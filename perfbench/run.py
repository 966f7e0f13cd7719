"""Benchmark harness for kaczmarz-mismatch.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload ct-paper --seed 1 --seconds 30 --trace 0

Runs one workload (see ``workloads.py``) in this process: one untimed
warm-up iteration, then timed iterations until ``--seconds`` have passed.
Before each untraced one, a fresh interpreter imports the package's CLI; the
time it takes is the set-up time.  With ``--trace 1`` the timed iterations
alternate between untraced ones and ones with every public package function
wrapped in a span (``tracer.py``); the median difference of neighbouring
pairs is the tracing overhead.

Prints a human-readable report, the environment record as one JSON line, and
as the last line one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``).  The full record, and the spans of a traced run, are
written under ``.perfbench/results/`` in the checkout.  Exit code 0 when every
check passed, 1 when one failed, 2 when the harness cannot run.
"""

import os

# BLAS threads are pinned before numpy is first imported.  One thread is both
# faster and steadier than two for these matrix sizes on a 2-core machine.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE_DIR = os.path.join(SRC, "kaczmarz_mismatch")
OUT_DIR = os.path.join(ROOT, ".perfbench")

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
DRAW_LOOPS, DRAWS_PER_LOOP = 5, 20000
STARTUP_CODE = "import kaczmarz_mismatch.cli as c, os; print(os.path.dirname(c.__file__))"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("paper", "tiny"), default="paper",
                        help="instance sizes; tiny is for the harness self-test")
    return parser.parse_args(argv)


def die(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import the package from this checkout's src/, never from site-packages."""
    if not os.path.isfile(os.path.join(PACKAGE_DIR, "__init__.py")):
        die(f"no package source at {PACKAGE_DIR}")
    sys.path.insert(0, SRC)
    import kaczmarz_mismatch

    if os.path.dirname(os.path.abspath(kaczmarz_mismatch.__file__)) != PACKAGE_DIR:
        die(f"imported {kaczmarz_mismatch.__file__}, not {PACKAGE_DIR}")
    return kaczmarz_mismatch


def summary(values):
    """Median, quartiles, sample count, and the highest percentile with ten samples beyond it."""
    values = sorted(values)
    n = len(values)
    out = {"n": n, "median": statistics.median(values), "min": values[0], "max": values[-1]}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    if n >= 20:
        q = math.floor(100 * (1 - 10 / n))
        out[f"p{q}"] = statistics.quantiles(values, n=100)[q - 1]
    return out


def source_digest():
    digest = hashlib.sha256()
    for dirpath, dirnames, files in os.walk(PACKAGE_DIR):
        dirnames.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def environment(args, params):
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": None, "version": None}
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "blas_env": {var: os.environ.get(var) for var in BLAS_ENV},
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "workload_size": params,
    }


def startup():
    """Seconds for a fresh interpreter to import the package's CLI, and a failure
    message, or None, saying whether it imported it from this checkout."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", STARTUP_CODE], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=60, check=False)
    seconds = time.perf_counter() - start
    if done.returncode != 0 or done.stdout.strip() != PACKAGE_DIR:
        return seconds, (f"start-up: exit {done.returncode}, imported "
                         f"{done.stdout.strip()!r}: {done.stderr.strip()[-300:]}")
    return seconds, None


def timed_loop(workload, budget, tracer=None):
    """Timed iterations until ``budget`` seconds have passed (at least one, and an
    even number when traced).  A start-up runs before every untraced iteration,
    so that set-up and iterations sample the same stretch of the host's load.
    With a tracer, every second iteration is traced.

    Returns the (seconds, failure) start-ups and the untraced and traced
    iterations, each in the order they ran."""
    startups, untraced, traced = [], [], []
    start = time.perf_counter()
    while (not untraced or time.perf_counter() - start < budget
           or (tracer is not None and len(traced) < len(untraced))):
        if tracer is None or len(traced) == len(untraced):
            startups.append(startup())
            untraced.append(workload.iteration())
            continue
        tracer.iteration = len(traced)
        tracer.install()
        try:
            traced.append(workload.iteration())
        finally:
            tracer.uninstall()
    return startups, untraced, traced


def end_to_end(iterations, startups):
    out = {
        "wall_s": summary([it.wall for it in iterations]),
        "setup_s": summary(startups),
    }
    phases = sorted({p for it in iterations for p in it.phases})
    for phase in phases:
        out[f"{phase}_s"] = summary([it.phases.get(phase, 0.0) for it in iterations])
    for key in sorted({k for it in iterations for k in it.values}):
        mine = [it for it in iterations if key in it.values]
        if key == "solve_steps":
            out["solve_steps_per_s"] = summary([it.values[key] / it.phases["solve"] for it in mine])
        else:
            out[key] = summary([it.values[key] for it in mine])
    return out


def draw_cost(package, p, seed):
    """Median microseconds per ``DiscreteSampler.draw`` on the workload's own ``p``."""
    sampler = package.sampling.DiscreteSampler(p)
    rng = package.sampling.replicate_rng(seed)
    costs = []
    for _ in range(DRAW_LOOPS):
        start = time.perf_counter()
        for _ in range(DRAWS_PER_LOOP):
            sampler.draw(rng)
        costs.append((time.perf_counter() - start) / DRAWS_PER_LOOP * 1e6)
    return statistics.median(costs)


def print_table(title, rows):
    print(title)
    for name, stats in rows.items():
        extra = " ".join(f"{k}={v:.6g}" for k, v in stats.items() if k not in ("n", "median"))
        print(f"  {name:<28} median={stats['median']:.6g} n={stats['n']} {extra}")


def main(argv=None):
    args = parse_args(argv)
    package = import_package()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import layers
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        die(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    work_dir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    results_dir = os.path.join(OUT_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](work_dir, args.seed, args.size)
    env = environment(args, workload.params)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    tracer = Tracer(package) if args.trace else None
    try:
        warmup = workload.iteration()
        startups, untraced, traced = timed_loop(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    errors = [failure for _, failure in startups if failure]
    every = [warmup] + untraced + traced
    for it in every[1:]:
        it.fail("outputs", workloads.compare_digests(warmup.digests, it.digests))
    for it in every:
        errors.extend(it.failures)
    attempted = len(startups) + sum(it.ops for it in every)
    failed = sum(failure is not None for _, failure in startups) + sum(
        len(it.failed_ops) for it in every)

    record = {"environment": env, "attempted": attempted, "failed": failed}
    e2e = end_to_end(untraced, [seconds for seconds, _ in startups])
    e2e["peak_rss_mb"] = {"n": 1, "median": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    # A fresh CLI process pays what the warm-up pays; a gap between this and
    # wall_s shows work that later iterations reuse within one process.
    e2e["warmup_s"] = {"n": 1, "median": warmup.wall}
    record["end_to_end"] = e2e
    record["iterations"] = [{"wall_s": it.wall, "phases": it.phases, "traced": it in traced}
                            for it in untraced + traced]
    if args.trace:
        per_iteration = layers.iteration_metrics(tracer)
        errors.extend(layers.count_mismatches(per_iteration))
        per_layer = layers.median_metrics(per_iteration)
        per_layer["sampling.us_per_draw"] = draw_cost(package, tracer.last_p, args.seed)
        per_layer["trace.overhead_s"] = statistics.median(
            t.wall - u.wall for u, t in zip(untraced, traced))
        record["traced_wall_s"] = summary([it.wall for it in traced])
        record["per_layer"] = per_layer
        record["per_iteration"] = list(per_iteration.values())
        tracer.write_csv(os.path.join(results_dir, f"{tag}-spans.csv"))
    record["errors"] = errors
    correct = not errors

    print(f"workload {args.workload} seed {args.seed} size {args.size}: "
          f"1 warm-up, then {len(untraced)} untraced iterations, each after a start-up, "
          f"and {len(traced)} traced ones; "
          f"ops attempted {attempted}, failed {failed}")
    print_table("end-to-end (untraced):", e2e)
    if args.trace:
        print("per-layer (traced, median over iterations):")
        for name, value in record["per_layer"].items():
            print(f"  {name:<40} {value:.6g}")
    for message in errors:
        print(f"ERROR {message}")
    print(json.dumps({"environment": env}, sort_keys=True))
    with open(os.path.join(results_dir, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    if args.trace:
        metrics = {name: {"value": record["per_layer"][name], "unit": unit}
                   for name, unit in layers.REPORTED}
    else:
        metrics = {name: {"value": e2e[name]["median"], "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
