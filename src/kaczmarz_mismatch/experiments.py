"""Named experiment pipelines producing plot-ready CSV directories.

Each experiment builds its instance through ``problems.build_instance``,
runs the relevant solves, and computes traces, diagnostics, and
theoretical-bound curves.  Only then does it write its directory through
``_write``: every CSV, then its ``manifest.json``, each recording the same
parameters (the instance kind, the instance's, the pipeline's own); a
pipeline that fails leaves no directory.  A matched
solve (V = A) runs on ``solver.matched_pair`` of the mismatched system, and
each solve makes the rows it reads for its own run.  fig1-fig3 share
their steps in ``_figure``.
``EXPERIMENTS`` lists each pipeline's instance kind and parameters with their
desk-scale defaults (seconds to minutes).  Every parameter, its instance's
included, is an ``experiment`` flag; the flags reach the published sizes.
table1's solve length and error target are the constants ``TABLE1_*``,
recorded with its parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import problems
from .diagnostics import (
    CSV_COLUMNS,
    compute_diagnostics,
    inconsistent_bound,
)
from .errors import InvalidInputError
from .fileio import provenance_lines, vector_table, write_csv_files, write_manifest
from .probopt import Objective, ProbOptConfig, optimize_probabilities
from .solver import SolverConfig, StepRule, matched_pair, run


@dataclass(frozen=True)
class Experiment:
    """One named pipeline, run by the function ``experiment_<name>`` of this module.

    ``kind`` is the instance it builds (a key of ``problems.INSTANCES``).
    ``defaults`` holds its seed, its own parameters and the instance defaults
    it overrides.
    """

    kind: str
    defaults: dict[str, object]

    def parameters(self, given):
        """``given`` over every default; a parameter the pipeline lacks is invalid input."""
        params = {**problems.INSTANCES[self.kind].defaults, **self.defaults}
        unknown = sorted(set(given) - set(params))
        if unknown:
            raise InvalidInputError(f"pipeline takes no parameter {', '.join(unknown)}")
        return {**params, **given}


EXPERIMENTS = {
    "fig1": Experiment("consistent", {"seed": 1, "iters": 20000, "log_stride": 500}),
    "fig2": Experiment("inconsistent", {"seed": 2, "iters": 20000, "log_stride": 500}),
    "fig3": Experiment("underdetermined", {"seed": 3, "iters": 20000, "log_stride": 500}),
    "ct": Experiment("ct", {"seed": 4, "sweeps": 20}),
    # iters counts optimizer iterations; each solve runs TABLE1_SOLVE_ITERATIONS.
    "table1": Experiment("probopt", {"seed": 5, "m": 150, "iters": 500, "log_stride": 200}),
}
TABLE1_SOLVE_ITERATIONS = 40000
TABLE1_ERROR_TARGET = 1e-6

TRACE_COLUMNS = ("k", "error_norm", "residual_norm")


def probability_scheme(sys, scheme):
    """Named row distributions: uniform, rownorm-a, or pairing weights."""
    if scheme == "uniform":
        return np.full(sys.m, 1.0 / sys.m)
    if scheme == "rownorm-a":
        return sys.norms_sq_a / sys.norms_sq_a.sum()
    if scheme == "pairing":
        return sys.pairing / sys.pairing.sum()
    raise InvalidInputError(f"unknown probability scheme {scheme!r}")


def trace_table(trace):
    """(columns, rows) of a trace CSV; the error column is empty without a truth."""
    errors = trace.error_norms or [None] * len(trace.logged_k)
    return TRACE_COLUMNS, list(zip(trace.logged_k, errors, trace.residual_norms))


def _setup(name, given):
    """(seed, parameters: the instance's then its own, instance) of pipeline ``name``.

    A pipeline writes its output directory only after its last computation,
    so invalid parameters, like any other failure, leave no directory behind.
    """
    exp = EXPERIMENTS[name]
    params = exp.parameters(given)
    seed = params.pop("seed")
    instance = {key: params[key] for key in problems.INSTANCES[exp.kind].defaults}
    return seed, params, problems.build_instance(exp.kind, seed, **instance)


def _write(name, out_dir, command, seed, parameters, files):
    """Write the CSV ``files``, then ``manifest.json``; each records kind and ``parameters``."""
    parameters = {"kind": EXPERIMENTS[name].kind, **parameters}
    write_csv_files(out_dir, provenance_lines(command, seed, parameters), files)
    write_manifest(out_dir, command, seed, parameters, experiment=name)


def _figure(name, out_dir, command, params, table, matched):
    """The steps fig1-fig3 share, at rownorm-a p; returns the diagnostics.

    ``table(sys, diag, mismatched trace)`` gives the file name, columns and
    rows of the figure's own table.  ``matched`` adds the matched solve.
    """
    seed, params, sys = _setup(name, params)
    cfg = SolverConfig(max_iterations=params["iters"], log_stride=params["log_stride"], seed=seed)
    p = probability_scheme(sys, "rownorm-a")
    diag = compute_diagnostics(sys, p)  # auto-restricted for m < n

    trace = run(sys, p, cfg)
    files = {"rkma_trace.csv": trace_table(trace)}
    if matched:
        files["rk_trace.csv"] = trace_table(run(matched_pair(sys), p, cfg))
    files["diagnostics.csv"] = (CSV_COLUMNS, [diag.csv_row()])
    file_name, columns, rows = table(sys, diag, trace)
    files[file_name] = (columns, rows)
    _write(name, out_dir, command, seed, params, files)
    return diag


def experiment_fig1(out_dir, command="experiment fig1", **params):
    """Overdetermined consistent comparison: matched vs mismatched adjoint."""

    def bound(sys, diag, trace):
        e0 = trace.error_norms[0]
        rows = []
        for k in trace.logged_k:
            # max: a computed lambda may exceed 1 by a rounding error.
            sq_bound = max(1.0 - diag.lam, 0.0) ** k * e0**2
            rows.append((k, sq_bound, np.sqrt(sq_bound), diag.rho_asymptotic**k * e0))
        return "bound.csv", ("k", "sq_error_bound", "error_bound", "rate_curve"), rows

    return _figure("fig1", out_dir, command, params, bound, matched=True)


def experiment_fig2(out_dir, command="experiment fig2", **params):
    """Inconsistent right-hand side: error decays to a nonzero floor."""

    def bound(sys, diag, trace):
        e0_sq = trace.error_norms[0] ** 2
        rows = []
        for k in trace.logged_k:
            sq_bound = inconsistent_bound(k, diag.lam, diag.gamma, e0_sq)
            rows.append((k, sq_bound, np.sqrt(sq_bound), diag.fixed_point_error))
        return "bound.csv", ("k", "sq_error_bound", "error_bound", "floor"), rows

    return _figure("fig2", out_dir, command, params, bound, matched=False)


def experiment_fig3(out_dir, command="experiment fig3", **params):
    """Underdetermined case: solution in rg V^T, out of reach for matched rows.

    ``plateau.csv`` holds ||truth - A^+ b||, the distance from the truth to
    the min-norm solution that the matched iteration reaches from x_0 = 0.
    """

    def plateau(sys, diag, trace):
        min_norm = np.linalg.lstsq(sys.a, sys.b, rcond=None)[0]
        gap = float(np.linalg.norm(sys.truth - min_norm))
        return "plateau.csv", ("matched_range_gap",), [(gap,)]

    return _figure("fig3", out_dir, command, params, plateau, matched=True)


def experiment_ct(out_dir, command="experiment ct", **params):
    """Tomography reconstruction with a detector-bin-averaged backprojector."""
    seed, params, sys = _setup("ct", params)
    cfg = SolverConfig(max_iterations=params["sweeps"] * sys.m, log_stride=sys.m, seed=seed)

    trace_mis = run(sys, probability_scheme(sys, "pairing"), cfg)
    trace_matched = run(matched_pair(sys), probability_scheme(sys, "rownorm-a"), cfg)
    _write("ct", out_dir, command, seed, {**params, "rows": sys.m}, {
        "rkma_trace.csv": trace_table(trace_mis),
        "rk_trace.csv": trace_table(trace_matched),
        "phantom.csv": vector_table(sys.truth),
        "recon_rkma.csv": vector_table(trace_mis.final_x),
        "recon_rk.csv": vector_table(trace_matched.final_x),
    })
    return trace_mis, trace_matched


def iterations_to_error(trace, target):
    """First logged iteration with error at or below target, or None."""
    for k, err in zip(trace.logged_k, trace.error_norms):
        if err <= target:
            return k
    return None


def experiment_table1(out_dir, command="experiment table1", **params):
    """Probability optimization study: rate quantities and solve traces.

    Produces the quantity table for uniform, pairing-proportional, and the
    two optimized distributions, plus a solve trace and an
    iterations-to-target summary per distribution.
    """
    seed, params, sys = _setup("table1", params)
    opt_iterations = params["iters"]
    lam_cfg = ProbOptConfig(objective=Objective.MAX_LAMBDA_MIN, iterations=opt_iterations)
    norm_cfg = ProbOptConfig(objective=Objective.MIN_SPECTRAL_NORM, iterations=opt_iterations)
    cfg = SolverConfig(
        max_iterations=TABLE1_SOLVE_ITERATIONS, log_stride=params["log_stride"], seed=seed
    )

    opt_lam = optimize_probabilities(sys, StepRule.OBLIQUE_EXACT, lam_cfg)
    opt_norm = optimize_probabilities(sys, StepRule.OBLIQUE_EXACT, norm_cfg)
    schemes = {
        "uniform": probability_scheme(sys, "uniform"),
        "pairing": probability_scheme(sys, "pairing"),
        "opt_lambda": opt_lam.best_p,
        "opt_norm": opt_norm.best_p,
    }

    quantities = {}
    files = {}
    for name, p in schemes.items():
        diag = compute_diagnostics(sys, p)
        quantities[name] = {
            "one_minus_lambda": 1.0 - diag.lam,
            "rho": diag.rho_asymptotic,
            "norm": diag.norm_expectation,
        }
        files[f"p_{name}.csv"] = vector_table(p, "probability")
    files["table.csv"] = (("quantity",) + tuple(schemes), [
        (quantity,) + tuple(quantities[name][quantity] for name in schemes)
        for quantity in ("one_minus_lambda", "rho", "norm")
    ])
    for label, result in (("lambda", opt_lam), ("norm", opt_norm)):
        files[f"history_{label}.csv"] = (("iter", "objective"), enumerate(result.objective_evals))

    summary_rows = []
    for name, p in schemes.items():
        trace = run(sys, p, cfg)
        files[f"trace_{name}.csv"] = trace_table(trace)
        summary_rows.append(
            (name, iterations_to_error(trace, TABLE1_ERROR_TARGET), trace.error_norms[-1])
        )

    files["summary.csv"] = (("scheme", "iterations_to_target", "final_error"), summary_rows)
    _write("table1", out_dir, command, seed, {
        **params,
        "solve_iterations": TABLE1_SOLVE_ITERATIONS, "error_target": TABLE1_ERROR_TARGET,
    }, files)
    return quantities
