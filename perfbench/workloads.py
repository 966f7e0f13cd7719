"""The three closed-loop workloads and the checks on their outputs.

One client, no concurrency: each command starts after the previous one has
returned.  Commands go in-process through ``kaczmarz_mismatch.cli.main(argv)``
or the public library functions; each is one operation.  The workload seed
reaches the program only as ``--seed`` and through the instances generated
from it.

Every iteration of a workload repeats the same commands with the same seed
into the same directories, so its output files must be byte-identical to
those of the first iteration (the determinism contract).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import time
import traceback

import numpy as np

from kaczmarz_mismatch import cli, experiments, problems, solver

# Sizes per scale.  "paper" is what the benchmark measures; "tiny" exists for
# the harness self-test.
SIZES = {
    "paper": {
        "ct-paper": {"grid": 50, "angle_step": 5.0, "rays": 150, "sweeps": 20},
        "gauss-chain": {
            "m": 1000, "n": 400, "tau": 0.5, "opt_iters": 30,
            "wide_m": 200, "wide_n": 800, "wide_tau": 0.5,
            "max_iters": 400000, "log_stride": 1000,
            "replicates": 64, "replicate_iters": 3000, "replicate_stride": 500,
        },
        "pipelines": {
            "fig1": {"m": 200, "n": 50, "tau": 0.5, "iters": 20000, "log_stride": 500},
            "fig2": {"m": 200, "n": 50, "tau": 0.5, "noise_scale": 0.05,
                     "iters": 20000, "log_stride": 500},
            "fig3": {"m": 60, "n": 300, "tau": 0.3, "iters": 20000, "log_stride": 500},
            "ct": {"grid": 32, "rays": 90, "sweeps": 20},
            "table1": {"m": 150, "n": 50, "zero_frac": 0.05, "iters": 500, "log_stride": 200},
        },
    },
    "tiny": {
        "ct-paper": {"grid": 12, "angle_step": 10.0, "rays": 36, "sweeps": 20},
        "gauss-chain": {
            "m": 120, "n": 40, "tau": 0.5, "opt_iters": 5,
            "wide_m": 20, "wide_n": 80, "wide_tau": 0.5,
            "max_iters": 200000, "log_stride": 200,
            "replicates": 8, "replicate_iters": 400, "replicate_stride": 100,
        },
        "pipelines": {
            "fig1": {"m": 40, "n": 10, "tau": 0.5, "iters": 2000, "log_stride": 100},
            "fig2": {"m": 40, "n": 10, "tau": 0.5, "noise_scale": 0.05,
                     "iters": 2000, "log_stride": 100},
            "fig3": {"m": 12, "n": 60, "tau": 0.3, "iters": 2000, "log_stride": 100},
            "ct": {"grid": 12, "rays": 36, "sweeps": 5},
            "table1": {"m": 30, "n": 10, "zero_frac": 0.05, "iters": 5, "log_stride": 200},
        },
    },
}

# The ct-paper trace must end at or below this share of its starting error.
# Paper-size seeds 101-110 end between 0.025 and 0.034 after 20 sweeps.
CT_ERROR_DROP = 0.1
# Relative residual the --tol solves must reach, and the tolerance passed.
SOLVE_TOL = 1e-8
# Angle step of the ct pipeline: the ``experiment`` default, which it runs with.
CT_ANGLE_STEP = 5.0
# Monte-Carlo slack on the (1 - lambda)^k e0^2 bound for the replicate mean.
MC_SLACK = 1.5


def read_table(path):
    """Columns and float rows of a CSV written by the package ('#' headers)."""
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh if not line.startswith("#")]
    columns = lines[0].split(",")
    rows = [[float(c) if c else math.nan for c in line.split(",")] for line in lines[1:] if line]
    return columns, rows


def read_vector(path):
    return np.array([row[0] for row in read_table(path)[1]])


def file_digest(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def tree_digests(root):
    """sha256 of every file below ``root``, keyed by relative path."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, root)] = file_digest(path)
    return out


def compare_digests(reference, current):
    """Failure messages for files that differ from, or are missing against, the reference."""
    failures = []
    for rel in sorted(set(reference) | set(current)):
        if reference.get(rel) != current.get(rel):
            failures.append(f"output {rel} is not byte-identical to the first iteration")
    return failures


# -- output checks (each returns a list of failure messages) -----------------

def error_drop(trace_path):
    """Final logged error as a share of the initial one."""
    columns, rows = read_table(trace_path)
    err = columns.index("error_norm")
    return rows[-1][err] / rows[0][err]


def check_error_drop(trace_path, drop):
    observed = error_drop(trace_path)
    if not observed <= drop:
        return [f"{trace_path}: final error is {observed:.6g} x the initial one, not <= {drop}"]
    return []


def check_early_stop(trace_path, b_path, max_iters, tol):
    columns, rows = read_table(trace_path)
    k = rows[-1][columns.index("k")]
    residual = rows[-1][columns.index("residual_norm")]
    relative = residual / np.linalg.norm(read_vector(b_path))
    failures = []
    if not k < max_iters:
        failures.append(f"{trace_path}: solve did not stop early ({k:.0f} of {max_iters})")
    if not relative <= tol:
        failures.append(f"{trace_path}: relative residual {relative:.3e} > {tol:g}")
    return failures


def check_ct_rows(out_dir, flags, angle_step):
    """The ct pipeline's row count is within its ray count and its trace spans the sweeps."""
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        rows = json.load(fh)["parameters"]["rows"]
    rays = len(np.arange(0.0, 180.0, angle_step)) * flags["rays"]
    columns, trace = read_table(os.path.join(out_dir, "rkma_trace.csv"))
    last_k = trace[-1][columns.index("k")]
    failures = []
    if not 0 < rows <= rays:
        failures.append(f"experiment ct has {rows} rows for {rays} rays")
    if last_k != flags["sweeps"] * rows:
        failures.append(f"experiment ct trace ends at k = {last_k:.0f}, "
                        f"not {flags['sweeps']} sweeps x {rows} rows")
    return failures


def parse_report(text):
    """``key: value`` lines printed by ``diagnose``."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def check_guarantee(report):
    if report.get("guarantees_convergence") != "true":
        return [f"diagnose reports guarantees_convergence: {report.get('guarantees_convergence')}"]
    return []


def check_optimizer(history_path, printed):
    values = [row[1] for row in read_table(history_path)[1]]
    failures = []
    if not max(values) >= values[0]:
        failures.append(f"optimizer best lambda {max(values):.9g} < uniform start {values[0]:.9g}")
    if printed is None or not math.isclose(float(printed), max(values), rel_tol=1e-8):
        failures.append(f"printed best objective {printed} != history maximum {max(values):.9g}")
    return failures


def check_replicate_decay(logged_k, mean_sq, lam, slack):
    """Replicate mean squared error against slack * (1 - lambda)^k * e0^2."""
    e0_sq = mean_sq[0]
    for k, value in zip(logged_k, mean_sq):
        bound = (1.0 - lam) ** k * e0_sq
        if not value <= slack * bound:
            return [f"replicate mean squared error {value:.6g} exceeds {slack} x bound "
                    f"{bound:.6g} at k = {k}"]
    return []


# -- workloads ---------------------------------------------------------------

class Iteration:
    """Timings, counts and failures of one pass through a workload."""

    def __init__(self):
        self.wall = 0.0
        self.phases: dict[str, float] = {}
        self.values: dict[str, float] = {}  # solver steps, rates, error drop
        self.ops = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.failed_ops: set[str] = set()

    def add_phase(self, phase, seconds):
        self.phases[phase] = self.phases.get(phase, 0.0) + seconds

    def fail(self, op, messages):
        if messages:
            self.failed_ops.add(op)
            self.failures.extend(f"{op}: {m}" for m in messages)


class Workload:
    """Base class: runs ops, times them by phase and records failures."""

    name = ""

    def __init__(self, work_dir, seed, size="paper"):
        self.dir = os.path.join(work_dir, self.name)
        self.seed = seed
        self.params = SIZES[size][self.name]

    def op(self, it, name, phase, fn):
        """Run one operation; returns its value, or None when it raised."""
        it.ops += 1
        start = time.perf_counter()
        try:
            value = fn()
        except Exception:
            it.fail(name, [traceback.format_exc(limit=3).strip().replace("\n", " | ")])
            value = None
        it.add_phase(phase, time.perf_counter() - start)
        return value

    def cli(self, it, name, phase, argv):
        """Run one CLI command; returns its standard output, or None on a non-zero exit."""
        out, err = io.StringIO(), io.StringIO()

        def call():
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return cli.main(argv)

        code = self.op(it, name, phase, call)
        if code != 0:
            it.fail(name, [f"exit code {code}: {err.getvalue().strip()[-300:]}"])
            return None
        return out.getvalue()

    def iteration(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        it = Iteration()
        start = time.perf_counter()
        checks = self.commands(it)
        it.wall = time.perf_counter() - start
        for op, check in checks:
            try:
                it.fail(op, check())
            except (OSError, ValueError, IndexError) as exc:
                it.fail(op, [f"output check could not run: {exc!r}"])
        it.digests = tree_digests(self.dir)
        return it

    def path(self, *parts):
        return os.path.join(self.dir, *parts)

    def commands(self, it):
        """Run the ops of one iteration; return (op, check) pairs to run afterwards."""
        raise NotImplementedError


class CtPaper(Workload):
    """Paper-scale tomography: generate the CT pair, then 20 sweeps of solve."""

    name = "ct-paper"

    def commands(self, it):
        p, seed = self.params, str(self.seed)
        inst = self.path("instance")
        self.cli(it, "generate", "generate", [
            "generate", "--kind", "ct", "--grid", str(p["grid"]),
            "--angle-step", str(p["angle_step"]), "--rays", str(p["rays"]),
            "--seed", seed, "--out", inst,
        ])
        try:
            with open(os.path.join(inst, "manifest.json")) as fh:
                rows = json.load(fh)["rows"]
        except (OSError, ValueError, KeyError) as exc:
            it.fail("generate", [f"manifest unreadable: {exc!r}"])
            return []
        iters = p["sweeps"] * rows
        solve_out = self.path("solve")
        if self.cli(it, "solve", "solve", [
            "solve", "--system-dir", inst, "--p", "pairing", "--rule", "oblique",
            "--iters", str(iters), "--log-stride", str(rows),
            "--seed", seed, "--out", solve_out,
        ]) is None:
            return []
        it.values["solve_steps"] = iters
        trace = os.path.join(solve_out, "trace.csv")

        def check():
            it.values["error_drop"] = error_drop(trace)
            return check_error_drop(trace, CT_ERROR_DROP)

        return [("solve", check)]


class GaussChain(Workload):
    """generate -> diagnose -> optimize -> solve on Gaussian instances, plus replicates."""

    name = "gauss-chain"

    def _solve(self, it, name, inst, p_source, extra=()):
        p = self.params
        out = self.path(f"{name}-out")
        if self.cli(it, name, "solve", [
            "solve", "--system-dir", inst, "--p", p_source,
            "--tol", str(SOLVE_TOL), "--iters", str(p["max_iters"]),
            "--log-stride", str(p["log_stride"]), "--seed", str(self.seed),
            "--out", out, *extra,
        ]) is None:
            return []
        trace = os.path.join(out, "trace.csv")
        b_path = os.path.join(inst, "b.csv")

        def check():
            it.values["solve_steps"] = it.values.get("solve_steps", 0) + read_table(trace)[1][-1][0]
            return check_early_stop(trace, b_path, p["max_iters"], SOLVE_TOL)

        return [(name, check)]

    def commands(self, it):
        p, seed = self.params, str(self.seed)
        checks = []
        inst, wide = self.path("consistent"), self.path("wide")
        self.cli(it, "generate", "generate", [
            "generate", "--kind", "consistent", "--m", str(p["m"]), "--n", str(p["n"]),
            "--tau", str(p["tau"]), "--seed", seed, "--out", inst,
        ])
        self.cli(it, "generate-wide", "generate", [
            "generate", "--kind", "underdetermined", "--m", str(p["wide_m"]),
            "--n", str(p["wide_n"]), "--tau", str(p["wide_tau"]), "--seed", seed,
            "--out", wide,
        ])

        text = self.cli(it, "diagnose", "diagnose",
                        ["diagnose", "--system-dir", inst, "--p", "rownorm-a"])
        report = parse_report(text or "")
        checks.append(("diagnose", lambda: check_guarantee(report)))

        opt = self.path("opt")
        text = self.cli(it, "optimize", "optimize", [
            "optimize", "--system-dir", inst, "--objective", "lambda",
            "--iters", str(p["opt_iters"]), "--seed", seed, "--out", opt,
        ])
        if text is not None:
            printed = parse_report(text).get("best lambda objective")
            history = os.path.join(opt, "history.csv")
            checks.append(("optimize", lambda: check_optimizer(history, printed)))
            checks += self._solve(it, "solve", inst, "file:" + os.path.join(opt, "p_opt.csv"))

        text = self.cli(it, "diagnose-wide", "diagnose",
                        ["diagnose", "--system-dir", wide, "--p", "rownorm-a"])
        wide_report = parse_report(text or "")
        checks.append(("diagnose-wide", lambda: check_guarantee(wide_report)))
        checks += self._solve(it, "solve-wide", wide, "rownorm-a", ["--start-in-range"])

        if "lambda" in report:
            checks += self._replicates(it, float(report["lambda"]))
        return checks

    def _replicates(self, it, lam):
        """Monte-Carlo batch on the consistent instance, rebuilt in memory."""
        p, reps = self.params, self.params["replicates"]
        cfg = solver.SolverConfig(
            max_iterations=p["replicate_iters"], log_stride=p["replicate_stride"],
            seed=self.seed,
        )
        timing = {}

        def batch():
            a = problems.gen_gaussian(p["m"], p["n"], self.seed)
            sys_pair = problems.assemble_consistent(
                a, problems.mismatch_threshold(a, p["tau"]), self.seed
            )
            probs = experiments.probability_scheme(sys_pair, "rownorm-a")
            start = time.perf_counter()
            stats = solver.run_replicates(sys_pair, probs, cfg, reps)
            timing["run"] = time.perf_counter() - start
            return sys_pair, stats

        value = self.op(it, "replicates", "replicates", batch)
        if value is None:
            return []
        sys_pair, stats = value
        it.values["mc_steps_per_s"] = reps * stats.logged_k[-1] / timing["run"]
        b_path = os.path.join(self.path("consistent"), "b.csv")

        def check():
            failures = check_replicate_decay(stats.logged_k, stats.mean_sq_errors, lam, MC_SLACK)
            if not np.array_equal(sys_pair.b, read_vector(b_path)):
                failures.append("in-memory instance differs from the generated b.csv")
            return failures

        return [("replicates", check)]


class Pipelines(Workload):
    """The five paper pipelines through ``experiment`` at desk defaults."""

    name = "pipelines"

    def commands(self, it):
        checks = []
        for name, flags in self.params.items():
            argv = ["experiment", "--name", name, "--seed", str(self.seed),
                    "--out", self.path(name)]
            for flag, value in flags.items():
                argv += ["--" + flag.replace("_", "-"), str(value)]
            if self.cli(it, f"experiment-{name}", f"experiment-{name}", argv) is None:
                continue
            if name in ("fig1", "fig2", "ct"):
                trace = self.path(name, "rkma_trace.csv")
                checks.append((f"experiment-{name}", lambda t=trace: check_error_drop(t, 1.0)))
            if name == "ct":
                checks.append(("experiment-ct", lambda f=flags: check_ct_rows(
                    self.path("ct"), f, CT_ANGLE_STEP)))
        return checks


WORKLOADS = {cls.name: cls for cls in (CtPaper, GaussChain, Pipelines)}
