"""Command-line front end.

Subcommands: ``generate`` (write a problem instance to a directory),
``diagnose`` (convergence quantities), ``solve`` (run the iteration, write a
trace), ``optimize`` (row-probability optimization), ``experiment`` (the
named benchmark pipelines).  The parameter flags of ``generate`` and
``experiment`` and their defaults come from ``problems.INSTANCES`` and
``experiments.EXPERIMENTS``; a flag the chosen kind or pipeline does not take
is invalid input.

Exit codes: 0 success, 1 invalid input, 2 numeric failure, 3 analysis
completed but no convergence guarantee holds.  Identical invocations write
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import os
import sys as _sys

from . import __version__, experiments, problems
from .diagnostics import CSV_COLUMNS, compute_diagnostics
from .errors import (
    InvalidInputError,
    KaczmarzError,
    NoGuaranteeError,
    NumericError,
)
from .fileio import (
    provenance_lines,
    read_matrix_market,
    read_vector_csv,
    vector_table,
    write_csv_files,
    write_manifest,
    write_matrix_market,
)
from .probopt import Objective, ProbOptConfig, optimize_probabilities
from .sampling import replicate_rng
from .solver import SolverConfig, StepRule, make_system, run

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_NUMERIC_FAILURE = 2
EXIT_NO_GUARANTEE = 3

# Flags of generate/experiment that select and place the output rather than
# set a parameter of the chosen kind or pipeline.
_FIXED_FLAGS = ("command", "kind", "name", "out")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # Usage problems are invalid input (exit 1), not argparse's default 2.
    def error(self, message):
        raise _UsageError(message)


def _add_parameter_flags(parser, defaults_by_entry):
    """One flag per parameter of any entry, absent unless given on the command line.

    ``defaults_by_entry`` maps each kind or pipeline to {flag: default}; a
    flag's type is its default's, and its help lists each entry's default.
    """
    uses = {}
    for entry, defaults in defaults_by_entry.items():
        for dest, default in defaults.items():
            uses.setdefault(dest, []).append((entry, default))
    for dest, entries in uses.items():
        parser.add_argument(
            "--" + dest.replace("_", "-"),
            type=type(entries[0][1]),
            default=argparse.SUPPRESS,
            help="default: " + ", ".join(f"{entry} {default}" for entry, default in entries),
        )


def _build_parser():
    parser = _Parser(prog="kaczmarz-mismatch", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a problem instance to a directory")
    gen.add_argument("--kind", choices=tuple(problems.INSTANCES), required=True)
    _add_parameter_flags(
        gen, {kind: recipe.defaults for kind, recipe in problems.INSTANCES.items()}
    )
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)

    # The flags diagnose, solve and optimize share; they lead each header.
    system = argparse.ArgumentParser(add_help=False)
    system.add_argument("--system-dir", required=True)
    system.add_argument("--rule", default="oblique", choices=[r.value for r in StepRule])
    p_flag = argparse.ArgumentParser(add_help=False)
    p_flag.add_argument("--p", default="uniform", help="uniform | rownorm-a | pairing | file:PATH")

    diag = sub.add_parser("diagnose", parents=[system, p_flag],
                          help="compute convergence diagnostics")
    diag.add_argument("--out", default=None,
                      help="directory for diagnostics.csv (default: system dir)")

    solve = sub.add_parser("solve", parents=[system, p_flag], help="run the randomized iteration")
    solve.add_argument("--iters", type=int, default=10000)
    solve.add_argument("--log-stride", type=int, default=100)
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--tol", type=float, default=0.0,
                       help="relative residual early-stop tolerance (0 disables)")
    solve.add_argument("--start-in-range", action="store_true",
                       help="start from V^T c with Gaussian c instead of zero")
    solve.add_argument("--out", required=True)

    opt = sub.add_parser("optimize", parents=[system], help="optimize the row probabilities")
    opt.add_argument("--objective", choices=[o.value for o in Objective],
                     default="lambda")
    opt.add_argument("--iters", type=int, default=200)
    opt.add_argument("--seed", type=int, default=0,
                     help="recorded in the output headers only: the optimizer "
                          "draws no random numbers")
    opt.add_argument("--out", required=True)

    exp = sub.add_parser("experiment", help="run a named benchmark pipeline")
    exp.add_argument("--name", choices=tuple(experiments.EXPERIMENTS), required=True)
    _add_parameter_flags(
        exp, {name: pipeline.parameters({}) for name, pipeline in experiments.EXPERIMENTS.items()}
    )
    exp.add_argument("--out", required=True)
    return parser


def _report(*lines):
    """Print a command's summary to stdout; called once its files are written.

    A reader that stops early (``| grep -q``, ``| head``) closes the pipe.
    The rest of the summary is then dropped and the command keeps its own
    exit code; stdout is pointed at the null device, so the interpreter's
    last flush of the unwritten text does not fail as well.
    """
    try:
        print("\n".join(lines), flush=True)
    except BrokenPipeError:
        try:
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, _sys.stdout.fileno())
            os.close(null)
        except (AttributeError, OSError, ValueError):
            pass  # no file descriptor behind stdout to redirect


def _command_string(argv):
    return "kaczmarz-mismatch " + " ".join(argv)


def _flag_headers(args, argv):
    """Header of a diagnose, solve or optimize file: every flag as parsed but ``--out``."""
    params = {k: v for k, v in vars(args).items() if k not in ("command", "out", "seed")}
    return provenance_lines(_command_string(argv), getattr(args, "seed", "-"), params)


def _load_system(system_dir):
    a = read_matrix_market(os.path.join(system_dir, "A.mtx"))
    v = read_matrix_market(os.path.join(system_dir, "V.mtx"))
    b = read_vector_csv(os.path.join(system_dir, "b.csv"))
    noise_path = os.path.join(system_dir, "r.csv")
    truth_path = os.path.join(system_dir, "xhat.csv")
    noise = read_vector_csv(noise_path) if os.path.exists(noise_path) else None
    truth = read_vector_csv(truth_path) if os.path.exists(truth_path) else None
    return make_system(a, v, b, noise=noise, truth=truth)


def _resolve_probabilities(sys_pair, source):
    if source.startswith("file:"):
        return read_vector_csv(source[len("file:"):])
    return experiments.probability_scheme(sys_pair, source)


def _given_flags(args, accepted, owner):
    """The parameter flags given on the command line; each must be one ``owner`` takes."""
    given = {k: v for k, v in vars(args).items() if k not in _FIXED_FLAGS}
    for dest in given:
        if dest not in accepted:
            raise InvalidInputError(f"--{dest.replace('_', '-')} does not apply to {owner}")
    return given


def _cmd_generate(args, argv):
    recipe = problems.INSTANCES[args.kind]
    given = _given_flags(args, {"seed", *recipe.defaults}, f"--kind {args.kind}")
    seed = given.pop("seed")
    params = {"kind": args.kind, **recipe.parameters(given)}
    sys_pair = problems.build_instance(seed=seed, **params)
    out = args.out
    files = {"b.csv": vector_table(sys_pair.b)}
    for name, vector in (("r.csv", sys_pair.noise), ("xhat.csv", sys_pair.truth)):
        if vector is not None:
            files[name] = vector_table(vector)
    # An earlier instance's: _load_system would read them with this one.
    for name in ("r.csv", "xhat.csv", "diagnostics.csv"):
        path = os.path.join(out, name)
        if name not in files and os.path.exists(path):
            os.remove(path)

    command = _command_string(argv)
    headers = provenance_lines(command, seed, params)
    write_csv_files(out, headers, files)
    comment = "\n".join(headers)
    write_matrix_market(os.path.join(out, "A.mtx"), sys_pair.a, comment=comment)
    write_matrix_market(os.path.join(out, "V.mtx"), sys_pair.v, comment=comment)
    write_manifest(out, command, seed, params, rows=sys_pair.m, cols=sys_pair.n)
    _report(f"wrote {args.kind} instance ({sys_pair.m} x {sys_pair.n}) to {out}")
    return EXIT_OK


def _cmd_diagnose(args, argv):
    sys_pair = _load_system(args.system_dir)
    p = _resolve_probabilities(sys_pair, args.p)
    diag = compute_diagnostics(sys_pair, p, StepRule(args.rule))
    write_csv_files(args.out or args.system_dir, _flag_headers(args, argv),
                    {"diagnostics.csv": (CSV_COLUMNS, [diag.csv_row()])})
    lines = diag.report_lines()
    if not diag.guarantees_convergence:
        lines.append("warning: no convergence guarantee (lambda <= 0)")
    _report(*lines)
    return EXIT_OK if diag.guarantees_convergence else EXIT_NO_GUARANTEE


def _cmd_solve(args, argv):
    sys_pair = _load_system(args.system_dir)
    p = _resolve_probabilities(sys_pair, args.p)
    start_coefficients = None
    if args.start_in_range:
        start_coefficients = replicate_rng(args.seed, 7).standard_normal(sys_pair.m)
    cfg = SolverConfig(
        rule=StepRule(args.rule),
        max_iterations=args.iters,
        log_stride=args.log_stride,
        seed=args.seed,
        residual_tolerance=args.tol,
        start_coefficients=start_coefficients,
    )
    trace = run(sys_pair, p, cfg)
    write_csv_files(args.out, _flag_headers(args, argv),
                    {"trace.csv": experiments.trace_table(trace)})
    last_err = trace.error_norms[-1] if trace.error_norms else float("nan")
    _report(
        f"ran {trace.logged_k[-1]} iterations; final residual "
        f"{trace.residual_norms[-1]:.6e}; final error {last_err:.6e}"
    )
    return EXIT_OK


def _cmd_optimize(args, argv):
    sys_pair = _load_system(args.system_dir)
    cfg = ProbOptConfig(objective=Objective(args.objective), iterations=args.iters)
    result = optimize_probabilities(sys_pair, StepRule(args.rule), cfg)
    write_csv_files(args.out, _flag_headers(args, argv), {
        "p_opt.csv": vector_table(result.best_p, "probability"),
        "history.csv": (("iter", "objective"), enumerate(result.objective_evals)),
    })
    _report(
        f"best {args.objective} objective: {result.best_objective:.9g}",
        f"best_iteration: {result.best_iteration}",
        f"degenerate_iterations: {len(result.degenerate_iterations)}",
    )
    return EXIT_OK


def _cmd_experiment(args, argv):
    params = _given_flags(
        args, experiments.EXPERIMENTS[args.name].parameters({}), f"--name {args.name}"
    )
    # Looked up at call time, so a wrapper installed on the module sees the call.
    runner = getattr(experiments, f"experiment_{args.name}")
    runner(args.out, command=_command_string(argv), **params)
    _report(f"experiment {args.name} written to {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    argv = list(_sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "generate": _cmd_generate,
            "diagnose": _cmd_diagnose,
            "solve": _cmd_solve,
            "optimize": _cmd_optimize,
            "experiment": _cmd_experiment,
        }[args.command]
        return handler(args, argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_INVALID_INPUT
    except NoGuaranteeError as exc:
        print(f"no guarantee: {exc}", file=_sys.stderr)
        return EXIT_NO_GUARANTEE
    except InvalidInputError as exc:
        print(f"invalid input: {exc}", file=_sys.stderr)
        return EXIT_INVALID_INPUT
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=_sys.stderr)
        return EXIT_NUMERIC_FAILURE
    except KaczmarzError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_NUMERIC_FAILURE
    except OSError as exc:
        print(f"i/o error: {exc}", file=_sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
