"""Named experiment pipelines producing plot-ready CSV directories.

Each experiment builds its instance, runs the relevant solves, and writes
traces, diagnostics, and theoretical-bound curves with provenance headers.
Defaults are desk scale (seconds to minutes); the flags of ``cmd_experiment``
reach the published problem sizes.
"""

from __future__ import annotations

import json
import os

import numpy as np

from . import __version__
from .diagnostics import (
    CSV_COLUMNS,
    compute_diagnostics,
    inconsistent_bound,
)
from .errors import InvalidInputError
from .fileio import provenance_lines, write_table_csv, write_vector_csv
from .linalg import orthonormal_range_basis
from .probopt import Objective, ProbOptConfig, optimize_probabilities
from .problems import (
    assemble_consistent,
    assemble_inconsistent,
    assemble_scaled_for_probopt,
    assemble_underdetermined,
    ct_mismatch_pair,
    gen_gaussian,
    mismatch_threshold,
    parallel_beam_matrix,
    smooth_phantom,
)
from .solver import SolverConfig, StepRule, make_system, run

EXPERIMENT_NAMES = ("fig1", "fig2", "fig3", "ct", "table1")

TRACE_COLUMNS = ("k", "error_norm", "residual_norm")


def probability_scheme(sys, scheme):
    """Named row distributions: uniform, rownorm-a, or pairing weights."""
    if scheme == "uniform":
        return np.full(sys.m, 1.0 / sys.m)
    if scheme == "rownorm-a":
        p = sys.row_norms_sq("a")
        return p / p.sum()
    if scheme == "pairing":
        return sys.pairing / sys.pairing.sum()
    raise InvalidInputError(f"unknown probability scheme {scheme!r}")


def write_trace_csv(path, trace, header_lines=()):
    rows = []
    for idx, k in enumerate(trace.logged_k):
        err = trace.error_norms[idx] if trace.error_norms else None
        rows.append((k, err, trace.residual_norms[idx]))
    write_table_csv(path, TRACE_COLUMNS, rows, header_lines=header_lines)


def write_diagnostics_csv(path, diag, header_lines=()):
    write_table_csv(path, CSV_COLUMNS, [diag.csv_row()], header_lines=header_lines)


def _write_manifest(out_dir, name, params, command, seed):
    manifest = {
        "experiment": name,
        "tool_version": __version__,
        "format_version": "1",
        "command": command,
        "seed": seed,
        "parameters": params,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _headers(command, seed, extra=()):
    return list(provenance_lines(__version__, command, seed)) + list(extra)


def experiment_fig1(
    out_dir,
    seed=1,
    m=200,
    n=50,
    tau=0.5,
    iterations=20000,
    log_stride=500,
    command="experiment fig1",
):
    """Overdetermined consistent comparison: matched vs mismatched adjoint."""
    os.makedirs(out_dir, exist_ok=True)
    a = gen_gaussian(m, n, seed)
    sys_mis = assemble_consistent(a, mismatch_threshold(a, tau), seed)
    sys_matched = make_system(a, a, sys_mis.b, truth=sys_mis.truth)
    p = probability_scheme(sys_mis, "rownorm-a")

    diag = compute_diagnostics(sys_mis, p)
    cfg = SolverConfig(max_iterations=iterations, log_stride=log_stride, seed=seed)
    trace_mis = run(sys_mis, p, cfg)
    trace_matched = run(sys_matched, p, cfg)

    headers = _headers(command, seed, [f"m: {m}", f"n: {n}", f"tau: {tau}"])
    write_trace_csv(os.path.join(out_dir, "rkma_trace.csv"), trace_mis, headers)
    write_trace_csv(os.path.join(out_dir, "rk_trace.csv"), trace_matched, headers)
    write_diagnostics_csv(os.path.join(out_dir, "diagnostics.csv"), diag, headers)

    e0 = trace_mis.error_norms[0]
    rows = []
    for k in trace_mis.logged_k:
        sq_bound = (1.0 - diag.lam) ** k * e0**2
        rows.append((k, sq_bound, np.sqrt(sq_bound), diag.rho_asymptotic**k * e0))
    write_table_csv(
        os.path.join(out_dir, "bound.csv"),
        ("k", "sq_error_bound", "error_bound", "rate_curve"),
        rows,
        header_lines=headers,
    )
    _write_manifest(
        out_dir, "fig1",
        {"m": m, "n": n, "tau": tau, "iterations": iterations, "log_stride": log_stride},
        command, seed,
    )
    return diag


def experiment_fig2(
    out_dir,
    seed=2,
    m=200,
    n=50,
    tau=0.5,
    noise_scale=0.05,
    iterations=20000,
    log_stride=500,
    command="experiment fig2",
):
    """Inconsistent right-hand side: error decays to a nonzero floor."""
    os.makedirs(out_dir, exist_ok=True)
    a = gen_gaussian(m, n, seed)
    sys = assemble_inconsistent(a, mismatch_threshold(a, tau), noise_scale, seed)
    p = probability_scheme(sys, "rownorm-a")

    diag = compute_diagnostics(sys, p)
    cfg = SolverConfig(max_iterations=iterations, log_stride=log_stride, seed=seed)
    trace = run(sys, p, cfg)

    headers = _headers(
        command, seed, [f"m: {m}", f"n: {n}", f"tau: {tau}", f"noise_scale: {noise_scale}"]
    )
    write_trace_csv(os.path.join(out_dir, "rkma_trace.csv"), trace, headers)
    write_diagnostics_csv(os.path.join(out_dir, "diagnostics.csv"), diag, headers)

    e0_sq = trace.error_norms[0] ** 2
    rows = []
    for k in trace.logged_k:
        sq_bound = inconsistent_bound(k, diag.lam, diag.gamma, e0_sq)
        rows.append((k, sq_bound, np.sqrt(sq_bound), diag.fixed_point_error))
    write_table_csv(
        os.path.join(out_dir, "bound.csv"),
        ("k", "sq_error_bound", "error_bound", "floor"),
        rows,
        header_lines=headers,
    )
    _write_manifest(
        out_dir, "fig2",
        {
            "m": m, "n": n, "tau": tau, "noise_scale": noise_scale,
            "iterations": iterations, "log_stride": log_stride,
        },
        command, seed,
    )
    return diag


def experiment_fig3(
    out_dir,
    seed=3,
    m=60,
    n=300,
    tau=0.3,
    iterations=20000,
    log_stride=500,
    command="experiment fig3",
):
    """Underdetermined case: solution in rg V^T, out of reach for matched rows."""
    os.makedirs(out_dir, exist_ok=True)
    sys = assemble_underdetermined(m, n, tau, seed)
    sys_matched = make_system(sys.a, sys.a, sys.b, truth=sys.truth)
    p = probability_scheme(sys, "rownorm-a")

    diag = compute_diagnostics(sys, p)  # auto-restricted for m < n
    cfg = SolverConfig(max_iterations=iterations, log_stride=log_stride, seed=seed)
    trace_mis = run(sys, p, cfg)
    trace_matched = run(sys_matched, p, cfg)

    za = orthonormal_range_basis(sys.a.T)
    plateau = float(np.linalg.norm(sys.truth - za @ (za.T @ sys.truth)))

    headers = _headers(command, seed, [f"m: {m}", f"n: {n}", f"tau: {tau}"])
    write_trace_csv(os.path.join(out_dir, "rkma_trace.csv"), trace_mis, headers)
    write_trace_csv(os.path.join(out_dir, "rk_trace.csv"), trace_matched, headers)
    write_diagnostics_csv(os.path.join(out_dir, "diagnostics.csv"), diag, headers)
    write_table_csv(
        os.path.join(out_dir, "plateau.csv"),
        ("matched_range_gap",),
        [(plateau,)],
        header_lines=headers,
    )
    _write_manifest(
        out_dir, "fig3",
        {"m": m, "n": n, "tau": tau, "iterations": iterations, "log_stride": log_stride},
        command, seed,
    )
    return diag


def build_ct_instance(grid_n, angle_step_deg, rays_per_angle, seed, span_factor=1.4):
    """Projection pair plus phantom for the tomography experiment."""
    angles = np.arange(0.0, 180.0, angle_step_deg)
    full = parallel_beam_matrix(
        grid_n, angles, rays_per_angle, span_factor * grid_n
    )
    phantom = smooth_phantom(grid_n, seed)
    sys = ct_mismatch_pair(full, full @ phantom, truth=phantom)
    return sys, phantom


def experiment_ct(
    out_dir,
    seed=4,
    grid_n=32,
    angle_step_deg=5.0,
    rays_per_angle=90,
    sweeps=20,
    command="experiment ct",
):
    """Tomography reconstruction with a detector-bin-averaged backprojector."""
    os.makedirs(out_dir, exist_ok=True)
    sys, phantom = build_ct_instance(grid_n, angle_step_deg, rays_per_angle, seed)
    sys_matched = make_system(sys.a, sys.a, sys.b, truth=sys.truth)

    iterations = sweeps * sys.m
    cfg = SolverConfig(max_iterations=iterations, log_stride=sys.m, seed=seed)
    trace_mis = run(sys, probability_scheme(sys, "pairing"), cfg)
    trace_matched = run(sys_matched, probability_scheme(sys_matched, "rownorm-a"), cfg)

    headers = _headers(
        command, seed,
        [
            f"grid_n: {grid_n}", f"angle_step_deg: {angle_step_deg}",
            f"rays_per_angle: {rays_per_angle}", f"rows: {sys.m}",
            f"sweeps: {sweeps}",
        ],
    )
    write_trace_csv(os.path.join(out_dir, "rkma_trace.csv"), trace_mis, headers)
    write_trace_csv(os.path.join(out_dir, "rk_trace.csv"), trace_matched, headers)
    write_vector_csv(os.path.join(out_dir, "phantom.csv"), phantom, headers)
    write_vector_csv(os.path.join(out_dir, "recon_rkma.csv"), trace_mis.final_x, headers)
    write_vector_csv(os.path.join(out_dir, "recon_rk.csv"), trace_matched.final_x, headers)
    _write_manifest(
        out_dir, "ct",
        {
            "grid_n": grid_n, "angle_step_deg": angle_step_deg,
            "rays_per_angle": rays_per_angle, "rows": sys.m, "sweeps": sweeps,
        },
        command, seed,
    )
    return trace_mis, trace_matched


def iterations_to_error(trace, target):
    """First logged iteration with error at or below target, or None."""
    for k, err in zip(trace.logged_k, trace.error_norms):
        if err <= target:
            return k
    return None


def experiment_table1(
    out_dir,
    seed=5,
    m=150,
    n=50,
    zero_frac=0.05,
    opt_iterations=500,
    solve_iterations=40000,
    log_stride=200,
    error_target=1e-6,
    command="experiment table1",
):
    """Probability optimization study: rate quantities and solve traces.

    Produces the quantity table for uniform, pairing-proportional, and the
    two optimized distributions, plus a solve trace and an
    iterations-to-target summary per distribution.
    """
    os.makedirs(out_dir, exist_ok=True)
    sys = assemble_scaled_for_probopt(m, n, zero_frac, seed)

    opt_lam = optimize_probabilities(
        sys, StepRule.OBLIQUE_EXACT,
        ProbOptConfig(objective=Objective.MAX_LAMBDA_MIN, iterations=opt_iterations, seed=seed),
    )
    opt_norm = optimize_probabilities(
        sys, StepRule.OBLIQUE_EXACT,
        ProbOptConfig(objective=Objective.MIN_SPECTRAL_NORM, iterations=opt_iterations, seed=seed),
    )
    schemes = {
        "uniform": probability_scheme(sys, "uniform"),
        "pairing": probability_scheme(sys, "pairing"),
        "opt_lambda": opt_lam.best_p,
        "opt_norm": opt_norm.best_p,
    }

    headers = _headers(
        command, seed,
        [f"m: {m}", f"n: {n}", f"zero_frac: {zero_frac}", f"opt_iterations: {opt_iterations}"],
    )

    quantities = {}
    for name, p in schemes.items():
        diag = compute_diagnostics(sys, p)
        quantities[name] = {
            "one_minus_lambda": 1.0 - diag.lam,
            "rho": diag.rho_asymptotic,
            "norm": diag.norm_expectation,
        }
        write_vector_csv(
            os.path.join(out_dir, f"p_{name}.csv"), p, headers, column="probability"
        )
    table_rows = [
        (quantity,) + tuple(quantities[name][quantity] for name in schemes)
        for quantity in ("one_minus_lambda", "rho", "norm")
    ]
    write_table_csv(
        os.path.join(out_dir, "table.csv"),
        ("quantity",) + tuple(schemes),
        table_rows,
        header_lines=headers,
    )

    for label, result in (("lambda", opt_lam), ("norm", opt_norm)):
        write_table_csv(
            os.path.join(out_dir, f"history_{label}.csv"),
            ("iter", "objective"),
            result.history,
            header_lines=headers,
        )

    summary_rows = []
    cfg = SolverConfig(max_iterations=solve_iterations, log_stride=log_stride, seed=seed)
    for name, p in schemes.items():
        trace = run(sys, p, cfg)
        write_trace_csv(os.path.join(out_dir, f"trace_{name}.csv"), trace, headers)
        summary_rows.append(
            (name, iterations_to_error(trace, error_target), trace.error_norms[-1])
        )
    write_table_csv(
        os.path.join(out_dir, "summary.csv"),
        ("scheme", "iterations_to_target", "final_error"),
        summary_rows,
        header_lines=headers + [f"error_target: {error_target}"],
    )
    _write_manifest(
        out_dir, "table1",
        {
            "m": m, "n": n, "zero_frac": zero_frac,
            "opt_iterations": opt_iterations, "solve_iterations": solve_iterations,
            "log_stride": log_stride, "error_target": error_target,
        },
        command, seed,
    )
    return quantities
