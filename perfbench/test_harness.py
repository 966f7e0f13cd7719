"""Self-test of the benchmark harness at tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def run_bench(workload, trace, cwd=ROOT, script=os.path.join("perfbench", "run.py")):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_emitted_with_unit(workload, trace):
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for m in expected:
        value = result["metrics"][m["name"]]["value"]
        assert isinstance(value, (int, float))
        if not trace:
            assert value > 0


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("ct-paper", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_tampered_outputs_are_caught(tmp_path):
    wl = workloads.CtPaper(str(tmp_path), seed=3, size="tiny")
    first = wl.iteration()
    assert first.failures == [] and first.ops == 2
    trace = os.path.join(wl.dir, "solve", "trace.csv")
    assert workloads.check_error_drop(trace, workloads.CT_ERROR_DROP) == []

    with open(trace) as fh:
        lines = fh.read().splitlines()
    k, _, residual = lines[-1].split(",")
    lines[-1] = f"{k},1e6,{residual}"
    with open(trace, "w") as fh:
        fh.write("\n".join(lines) + "\n")

    assert workloads.check_error_drop(trace, workloads.CT_ERROR_DROP)
    changed = workloads.compare_digests(first.digests, workloads.tree_digests(wl.dir))
    assert changed == ["output solve/trace.csv is not byte-identical to the first iteration"]


def test_tampered_ct_pipeline_is_caught(tmp_path):
    wl = workloads.Pipelines(str(tmp_path), seed=3, size="tiny")
    assert wl.iteration().failures == []
    flags = wl.params["ct"]
    ct_dir = os.path.join(wl.dir, "ct")
    assert workloads.check_ct_rows(ct_dir, flags, workloads.CT_ANGLE_STEP) == []

    path = os.path.join(ct_dir, "manifest.json")
    with open(path) as fh:
        manifest = json.load(fh)
    manifest["parameters"]["rows"] += 1
    with open(path, "w") as fh:
        json.dump(manifest, fh)
    assert workloads.check_ct_rows(ct_dir, flags, workloads.CT_ANGLE_STEP)


def test_failed_command_is_counted(tmp_path):
    wl = workloads.GaussChain(str(tmp_path), seed=3, size="tiny")
    it = workloads.Iteration()
    os.makedirs(wl.dir)
    assert wl.cli(it, "diagnose", "diagnose",
                  ["diagnose", "--system-dir", os.path.join(wl.dir, "missing")]) is None
    assert it.ops == 1 and it.failed_ops == {"diagnose"}
