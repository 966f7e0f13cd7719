"""Per-layer metrics from the spans and counters of a traced run.

Each metric is computed per iteration and reported as the median over the
traced iterations.  Time metrics are self times (span duration minus the time
its children cover), so a layer is not charged for the layers it calls.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracer import FACTORIZATIONS, MODULES

FACTORIZATION_KINDS = ("eigh", "eigvals", "svd", "qr", "lu")
EXPERIMENTS = ("fig1", "fig2", "fig3", "ct", "table1")
GAUSSIAN_INSTANCES = (
    "problems.gen_gaussian", "problems.mismatch_threshold",
    "problems.assemble_consistent", "problems.assemble_inconsistent",
    "problems.assemble_underdetermined", "problems.assemble_scaled_for_probopt",
)
CSV_IO = (
    "fileio.write_vector_csv", "fileio.read_vector_csv",
    "fileio.write_table_csv", "fileio.read_table_csv",
)
GRADIENTS = ("probopt.supergradient_lambda", "probopt.subgradient_norm")

# Per-layer metrics in the result line: (name, unit).  Every workload reports
# all of them.  Times listed here are non-zero on every workload; counts may
# be zero where a workload bypasses the layer.  The times of layers that only
# some workloads exercise (ray tracer, .mtx I/O, diagnostics, factorizations,
# probopt, replicates, each experiment) are computed too, for the report.
REPORTED = (
    ("cli.self_s", "s"),
    ("experiments.self_s", "s"),
    ("problems.self_s", "s"),
    ("fileio.self_s", "s"),
    ("fileio.csv_s", "s"),
    ("solver.self_s", "s"),
    ("solver.make_system_s", "s"),
    ("solver.run_s", "s"),
    ("solver.us_per_step", "us"),
    ("sampling.self_s", "s"),
    ("sampling.alias_build_s", "s"),
    ("sampling.us_per_draw", "us"),
    ("linalg.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("problems.rays", "count"),
    ("problems.operator_bytes", "B"),
    ("fileio.mtx_bytes", "B"),
    ("solver.steps", "count"),
    ("solver.log_points", "count"),
    ("solver.replicate_steps", "count"),
    ("diagnostics.calls", "count"),
    ("diagnostics.factorizations_per_call", "count"),
    ("linalg.eigh_calls", "count"),
    ("linalg.eigvals_calls", "count"),
    ("linalg.svd_calls", "count"),
    ("linalg.qr_calls", "count"),
    ("linalg.lu_calls", "count"),
    ("probopt.iterations", "count"),
    ("probopt.factorizations_per_iter", "count"),
    ("probopt.degenerate_iterations", "count"),
    ("trace.spans", "count"),
)

# Counts that must repeat exactly from iteration to iteration of one seed.
EXACT_COUNTS = (
    "solver.steps", "problems.rays", "fileio.mtx_bytes", "problems.operator_bytes",
    "diagnostics.factorizations_per_call", "probopt.factorizations_per_iter",
)


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def _ancestor(parents, names, idx, target):
    """(ancestor index named ``target``, its child on the path), or (-1, -1)."""
    child, node = idx, parents[idx]
    while node >= 0:
        if names[node] == target:
            return node, child
        child, node = node, parents[node]
    return -1, -1


def iteration_metrics(tracer):
    """{iteration id: {metric: value}} for every traced iteration."""
    durations, selfs = tracer.self_times()
    names, parents, starts = tracer.names, tracer.parents, tracer.starts

    self_by = defaultdict(lambda: defaultdict(float))
    dur_by = defaultdict(lambda: defaultdict(float))
    calls_by = defaultdict(lambda: defaultdict(int))
    first_gradient = {}
    for idx, name in enumerate(names):
        it = tracer.iterations[idx]
        self_by[it][name] += selfs[idx]
        dur_by[it][name] += durations[idx]
        calls_by[it][name] += 1
        if name in GRADIENTS:
            opt, _ = _ancestor(parents, names, idx, "probopt.optimize_probabilities")
            first_gradient.setdefault(opt, starts[idx])

    diag_factorizations = defaultdict(int)
    loop_factorizations = defaultdict(int)
    for idx, name in enumerate(names):
        if name not in FACTORIZATIONS:
            continue
        it = tracer.iterations[idx]
        if _ancestor(parents, names, idx, "diagnostics.compute_diagnostics")[0] >= 0:
            diag_factorizations[it] += 1
        opt, child = _ancestor(parents, names, idx, "probopt.optimize_probabilities")
        if opt >= 0 and opt in first_gradient and starts[child] >= first_gradient[opt]:
            loop_factorizations[it] += 1

    out = {}
    for it in sorted(calls_by):
        if it < 0:
            continue
        s, d, c = self_by[it], dur_by[it], calls_by[it]
        counts = tracer.counters[it]

        def total(table, names_):
            return sum(table[n] for n in names_)

        def module(prefix):
            return sum(v for n, v in s.items() if n.startswith(prefix + "."))

        m = {f"{mod}.self_s": module(mod) for mod in MODULES}
        for key in ("problems.rays", "problems.operator_bytes", "fileio.mtx_bytes",
                    "solver.steps", "solver.log_points", "solver.replicate_steps",
                    "probopt.iterations", "probopt.degenerate_iterations"):
            m[key] = counts.get(key, 0)
        m["problems.ray_trace_s"] = s["problems.parallel_beam_matrix"]
        m["problems.us_per_ray"] = _ratio(m["problems.ray_trace_s"], m["problems.rays"], 1e6)
        m["problems.ct_pair_s"] = s["problems.ct_mismatch_pair"]
        m["problems.instance_s"] = total(s, GAUSSIAN_INSTANCES)
        m["fileio.mtx_write_s"] = s["fileio.write_matrix_market"]
        m["fileio.mtx_read_s"] = s["fileio.read_matrix_market"]
        m["fileio.csv_s"] = total(s, CSV_IO)
        m["solver.make_system_s"] = s["solver.make_system"]
        m["solver.run_s"] = s["solver.run"]
        m["solver.us_per_step"] = _ratio(m["solver.run_s"], m["solver.steps"], 1e6)
        m["solver.replicate_s"] = s["solver.run_replicates"]
        m["sampling.alias_build_s"] = s["sampling.DiscreteSampler"]
        m["diagnostics.compute_s"] = m["diagnostics.self_s"]
        m["diagnostics.calls"] = c["diagnostics.compute_diagnostics"]
        m["diagnostics.factorizations_per_call"] = _ratio(
            diag_factorizations[it], m["diagnostics.calls"])
        for kind in FACTORIZATION_KINDS:
            fns = [n for n, k in FACTORIZATIONS.items() if k == kind]
            m[f"linalg.{kind}_s"] = total(s, fns)
            m[f"linalg.{kind}_calls"] = total(c, fns)
        m["probopt.optimize_s"] = m["probopt.self_s"]
        m["probopt.ms_per_iter"] = _ratio(
            d["probopt.optimize_probabilities"], m["probopt.iterations"], 1e3)
        m["probopt.factorizations_per_iter"] = _ratio(
            loop_factorizations[it], total(c, GRADIENTS))
        for name in EXPERIMENTS:
            m[f"experiments.{name}_s"] = d[f"experiments.experiment_{name}"]
        m["trace.spans"] = sum(c.values())
        out[it] = m
    return out


def median_metrics(per_iteration):
    keys = next(iter(per_iteration.values())).keys()
    return {k: statistics.median(m[k] for m in per_iteration.values()) for k in keys}


def count_mismatches(per_iteration):
    """Messages for exact counts that differ between iterations of one seed."""
    messages = []
    for key in EXACT_COUNTS:
        values = sorted({m[key] for m in per_iteration.values()})
        if len(values) > 1:
            messages.append(f"count {key} differs between iterations: {values}")
    return messages
