"""Summarize the run records under .perfbench/results/ across seeds.

Usage, from the root of a checkout, after runs of perfbench/run.py:

    python3 perfbench/summarize.py > summary.json

For every workload and end-to-end metric it gives the median over runs, the
quartiles and the spread (quartile distance over median), which is how the
benchmark's bounds are judged.  For traced runs it gives the median of every
per-layer metric.  The environment of the newest record is included, without
its per-run fields.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def across(values):
    out = {"runs": len(values), "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / out["median"] if out["median"] else None)
    return out


def main():
    paths = sorted(glob.glob(os.path.join(ROOT, ".perfbench", "results", "*.json")),
                   key=os.path.getmtime)
    records = [json.load(open(path)) for path in paths]
    if not records:
        sys.exit("error: no records under .perfbench/results/")
    environment = dict(records[-1]["environment"])
    for per_run in ("workload", "seed", "trace", "workload_size"):
        del environment[per_run]
    summary = {"environment": environment, "workloads": {}}
    for workload in sorted({r["environment"]["workload"] for r in records}):
        mine = [r for r in records if r["environment"]["workload"] == workload]
        untraced = [r for r in mine if not r["environment"]["trace"]]
        traced = [r for r in mine if r["environment"]["trace"]]
        entry = {
            "workload_size": mine[-1]["environment"]["workload_size"],
            "seeds": sorted(r["environment"]["seed"] for r in untraced),
            "failed": sum(r["failed"] for r in mine),
            "errors": sum(len(r["errors"]) for r in mine),
            "end_to_end": {
                name: across([r["end_to_end"][name]["median"] for r in untraced])
                for name in (untraced[0]["end_to_end"] if untraced else ())
            },
        }
        if traced:
            entry["traced_seeds"] = [r["environment"]["seed"] for r in traced]
            entry["per_layer"] = {
                name: statistics.median(r["per_layer"][name] for r in traced)
                for name in traced[0]["per_layer"]
            }
        summary["workloads"][workload] = entry
    json.dump(summary, sys.stdout, indent=1, sort_keys=True)
    print()


if __name__ == "__main__":
    main()
