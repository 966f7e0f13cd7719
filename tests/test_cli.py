import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kaczmarz_mismatch
from kaczmarz_mismatch import experiments, fileio, problems
from kaczmarz_mismatch.cli import main
from kaczmarz_mismatch.diagnostics import inconsistent_bound
from kaczmarz_mismatch.errors import InvalidInputError, NumericError
from kaczmarz_mismatch.solver import make_system

import oracles


def run_cli(args):
    return main(args)


def read_csv(path):
    return oracles.read_table_csv(path)


def package_env():
    """The environment of a fresh interpreter that imports this package."""
    package_root = str(Path(kaczmarz_mismatch.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])
    ))


class TestGenerate:
    def test_round_trip_bit_exact(self, tmp_path):
        out = str(tmp_path / "sys")
        assert run_cli(["generate", "--kind", "consistent", "--m", "30", "--n", "8",
                        "--seed", "3", "--out", out]) == 0
        a = fileio.read_matrix_market(os.path.join(out, "A.mtx"))
        v = fileio.read_matrix_market(os.path.join(out, "V.mtx"))
        b = fileio.read_vector_csv(os.path.join(out, "b.csv"))
        xhat = fileio.read_vector_csv(os.path.join(out, "xhat.csv"))
        assert a.shape == (30, 8)
        assert v.shape == (30, 8)
        np.testing.assert_allclose(a @ xhat, b, atol=1e-12)

    def test_manifest_records_seed(self, tmp_path):
        out = str(tmp_path / "sys")
        run_cli(["generate", "--kind", "consistent", "--m", "10", "--n", "4",
                 "--seed", "77", "--out", out])
        manifest = json.loads((tmp_path / "sys" / "manifest.json").read_text())
        assert manifest["seed"] == 77
        assert manifest["parameters"]["kind"] == "consistent"

    def test_generated_instance_diagnoses_cleanly(self, tmp_path):
        out = str(tmp_path / "sys")
        run_cli(["generate", "--kind", "consistent", "--m", "500", "--n", "200",
                 "--seed", "1", "--out", out])
        code = run_cli(["diagnose", "--system-dir", out, "--p", "rownorm-a"])
        assert code == 0
        columns, rows = read_csv(os.path.join(out, "diagnostics.csv"))
        assert columns == list(
            ("lambda", "rho", "norm", "gamma", "fixed_point_error", "restricted")
        )
        assert rows[0][0] > 0  # lambda

    def test_inconsistent_writes_noise(self, tmp_path):
        out = str(tmp_path / "sys")
        run_cli(["generate", "--kind", "inconsistent", "--m", "20", "--n", "5",
                 "--noise-scale", "0.1", "--seed", "2", "--out", out])
        assert os.path.exists(os.path.join(out, "r.csv"))

    def test_regenerate_removes_stale_noise(self, tmp_path, capsys):
        # A consistent instance written over an inconsistent one leaves no
        # r.csv behind, so diagnose reads no noise into it.
        out = str(tmp_path / "sys")
        for kind in ("inconsistent", "consistent"):
            assert run_cli(["generate", "--kind", kind, "--m", "30", "--n", "8",
                            "--seed", "1", "--out", out]) == 0
        assert not os.path.exists(os.path.join(out, "r.csv"))
        capsys.readouterr()
        assert run_cli(["diagnose", "--system-dir", out]) == 0
        report = capsys.readouterr().out.splitlines()
        assert "gamma: " in report and "fixed_point_error: " in report

    def test_regenerate_removes_stale_diagnostics(self, tmp_path):
        # diagnose writes into the system directory by default; a new
        # instance there must not sit beside the old instance's diagnostics.
        out = str(tmp_path / "sys")
        assert run_cli(["generate", "--kind", "consistent", "--m", "30", "--n", "8",
                        "--out", out]) == 0
        assert run_cli(["diagnose", "--system-dir", out]) == 0
        assert os.path.exists(os.path.join(out, "diagnostics.csv"))
        assert run_cli(["generate", "--kind", "underdetermined", "--m", "8", "--n", "30",
                        "--out", out]) == 0
        assert not os.path.exists(os.path.join(out, "diagnostics.csv"))

    def test_regenerate_removes_stale_truth(self, tmp_path, monkeypatch):
        # Every kind has a truth today; an instance without one must not
        # leave an earlier xhat.csv to be read as its solution.
        out = tmp_path / "sys"
        argv = ["generate", "--kind", "consistent", "--m", "30", "--n", "8",
                "--out", str(out)]
        assert run_cli(argv) == 0
        build = problems.build_instance

        def no_truth(*args, **kwargs):
            built = build(*args, **kwargs)
            return make_system(built.a, built.v, built.b)

        monkeypatch.setattr(problems, "build_instance", no_truth)
        assert run_cli(argv) == 0
        assert sorted(os.listdir(out)) == ["A.mtx", "V.mtx", "b.csv", "manifest.json"]

    def test_identical_invocations_byte_identical(self, tmp_path):
        out1 = str(tmp_path / "s1")
        out2 = str(tmp_path / "s2")
        args = ["generate", "--kind", "probopt", "--m", "40", "--n", "10",
                "--seed", "9", "--out"]
        run_cli(args + [out1])
        run_cli(args + [out2])
        for name in ("A.mtx", "V.mtx", "b.csv", "xhat.csv"):
            b1 = (tmp_path / "s1" / name).read_bytes()
            b2 = (tmp_path / "s2" / name).read_bytes()
            # The command line (which includes --out) differs; strip comments.
            s1 = b"\n".join(l for l in b1.split(b"\n") if not l.startswith((b"%", b"#")))
            s2 = b"\n".join(l for l in b2.split(b"\n") if not l.startswith((b"%", b"#")))
            assert s1 == s2
        out3 = str(tmp_path / "s1_again")
        os.rename(out1, out3)
        run_cli(args + [out1])
        for name in ("A.mtx", "V.mtx", "b.csv", "xhat.csv"):
            assert (tmp_path / "s1" / name).read_bytes() == (
                tmp_path / "s1_again" / name
            ).read_bytes()


    @pytest.mark.parametrize(
        "kind", ["consistent", "inconsistent", "underdetermined", "probopt", "ct"]
    )
    def test_every_kind_runs_on_its_defaults(self, tmp_path, kind):
        out = str(tmp_path / kind)
        assert run_cli(["generate", "--kind", kind, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "A.mtx"))

    @pytest.mark.parametrize("kind, fmt", [("ct", "coordinate"), ("consistent", "array")])
    def test_matrix_market_format_follows_density(self, tmp_path, kind, fmt):
        out = tmp_path / kind
        assert run_cli(["generate", "--kind", kind, "--out", str(out)]) == 0
        for name in ("A.mtx", "V.mtx"):
            with open(out / name) as fh:
                assert fh.readline().split()[2] == fmt

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs")
    def test_ct_b_independent_of_blas_threads(self, tmp_path):
        # At this geometry a dense gemv for b rounded row 822 differently on
        # one and on two BLAS threads.
        package_root = str(Path(kaczmarz_mismatch.__file__).parents[1])
        values = {}
        for threads in ("1", "2"):
            out = tmp_path / f"ct{threads}"
            env = dict(
                os.environ,
                OPENBLAS_NUM_THREADS=threads,
                OMP_NUM_THREADS=threads,
                PYTHONPATH=os.pathsep.join(
                    filter(None, [package_root, os.environ.get("PYTHONPATH")])
                ),
            )
            subprocess.run(
                [sys.executable, "-m", "kaczmarz_mismatch.cli", "generate", "--kind", "ct",
                 "--grid", "50", "--angle-step", "5", "--rays", "150", "--seed", "1",
                 "--out", str(out)],
                env=env, check=True, capture_output=True,
            )
            lines = (out / "b.csv").read_text().splitlines()
            values[threads] = [line for line in lines if not line.startswith("#")]
        assert len(values["1"]) > 1600
        assert values["1"] == values["2"]


class TestDiagnose:
    def test_underdetermined_sets_restricted_flag(self, tmp_path):
        out = str(tmp_path / "sys")
        run_cli(["generate", "--kind", "underdetermined", "--m", "20", "--n", "60",
                 "--tau", "0.3", "--seed", "4", "--out", out])
        code = run_cli(["diagnose", "--system-dir", out, "--p", "uniform"])
        columns, rows = read_csv(os.path.join(out, "diagnostics.csv"))
        restricted = rows[0][columns.index("restricted")]
        assert restricted == "true"
        assert code in (0, 3)

    def test_identity_system_lambda(self, tmp_path, capsys):
        sys_dir = tmp_path / "sys"
        sys_dir.mkdir()
        eye = np.eye(3)
        fileio.write_matrix_market(sys_dir / "A.mtx", eye)
        fileio.write_matrix_market(sys_dir / "V.mtx", eye)
        fileio.write_table_csv(sys_dir / "b.csv", *fileio.vector_table(np.ones(3)))
        code = run_cli(["diagnose", "--system-dir", str(sys_dir), "--p", "uniform"])
        assert code == 0
        report = capsys.readouterr().out
        assert "lambda: 0.333333" in report

    def test_no_guarantee_exit_code(self, tmp_path):
        # Heavy mismatch turns lambda negative; exit code 3 signals it.
        sys_dir = tmp_path / "sys"
        sys_dir.mkdir()
        a = np.array([[1.0, 0.0], [1.0, 0.2]])
        v = np.array([[1.0, 4.0], [1.0, -3.0]])
        fileio.write_matrix_market(sys_dir / "A.mtx", a)
        fileio.write_matrix_market(sys_dir / "V.mtx", v)
        fileio.write_table_csv(sys_dir / "b.csv", *fileio.vector_table(np.ones(2)))
        code = run_cli(["diagnose", "--system-dir", str(sys_dir), "--p", "uniform"])
        assert code == 3

    @pytest.mark.parametrize("v, code", [
        ([[1.0, 0.0], [1.0, 0.2]], 0),  # V = A
        ([[1.0, 4.0], [1.0, -3.0]], 3),  # lambda < 0, as in test_no_guarantee_exit_code
    ])
    def test_closed_stdout_keeps_exit_code_and_csv(
        self, tmp_path, capsys, monkeypatch, v, code
    ):
        # A reader that has gone away (| grep -q) ends the report, not the
        # command: diagnostics.csv is written and the exit code is diagnose's.
        sys_dir = tmp_path / "sys"
        sys_dir.mkdir()
        fileio.write_matrix_market(sys_dir / "A.mtx", np.array([[1.0, 0.0], [1.0, 0.2]]))
        fileio.write_matrix_market(sys_dir / "V.mtx", np.array(v))
        fileio.write_table_csv(sys_dir / "b.csv", *fileio.vector_table(np.ones(2)))

        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert run_cli(["diagnose", "--system-dir", str(sys_dir), "--p", "uniform"]) == code
        assert capsys.readouterr().err == ""
        assert read_csv(sys_dir / "diagnostics.csv")[0][0] == "lambda"

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_closed_pipe_ends_quietly(self, tmp_path, unbuffered):
        # The same through a real pipe whose reader closed before the
        # command ran: no message, and nothing left for the exit flush.
        env = package_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        sys_dir = str(tmp_path / "sys")
        assert run_cli(["generate", "--kind", "consistent", "--m", "30", "--n", "8",
                        "--out", sys_dir]) == 0
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "kaczmarz_mismatch.cli", "diagnose",
                 "--system-dir", sys_dir, "--out", str(tmp_path / "diag")],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                env=env, check=False,
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (0, "")
        assert os.path.exists(tmp_path / "diag" / "diagnostics.csv")

    def test_probabilities_from_file(self, tmp_path):
        out = str(tmp_path / "sys")
        assert run_cli(["generate", "--kind", "consistent", "--m", "10", "--n", "12",
                        "--seed", "5", "--out", out]) == 0
        p_path = tmp_path / "p.csv"
        fileio.write_table_csv(p_path, *fileio.vector_table(np.full(10, 0.1)))
        assert run_cli(["diagnose", "--system-dir", out,
                        "--p", f"file:{p_path}"]) in (0, 3)

    def test_missing_directory_is_invalid_input(self, tmp_path):
        assert run_cli(["diagnose", "--system-dir", str(tmp_path / "nope")]) == 1


class TestSolve:
    def test_identity_solves_to_zero(self, tmp_path):
        sys_dir = tmp_path / "sys"
        sys_dir.mkdir()
        eye = np.eye(4)
        fileio.write_matrix_market(sys_dir / "A.mtx", eye)
        fileio.write_matrix_market(sys_dir / "V.mtx", eye)
        fileio.write_table_csv(sys_dir / "b.csv", *fileio.vector_table(np.ones(4)))
        fileio.write_table_csv(sys_dir / "xhat.csv", *fileio.vector_table(np.ones(4)))
        out = str(tmp_path / "run")
        code = run_cli(["solve", "--system-dir", str(sys_dir), "--p", "uniform",
                        "--iters", "200", "--log-stride", "50", "--seed", "1",
                        "--out", out])
        assert code == 0
        columns, rows = read_csv(os.path.join(out, "trace.csv"))
        assert columns == ["k", "error_norm", "residual_norm"]
        assert rows[-1][1] <= 1e-12

    def test_trace_row_count_contract(self, tmp_path):
        out = str(tmp_path / "sys")
        run_cli(["generate", "--kind", "consistent", "--m", "20", "--n", "5",
                 "--seed", "6", "--out", out])
        run_dir = str(tmp_path / "run")
        run_cli(["solve", "--system-dir", out, "--iters", "10",
                 "--log-stride", "3", "--seed", "1", "--out", run_dir])
        _, rows = read_csv(os.path.join(run_dir, "trace.csv"))
        assert len(rows) == int(np.ceil(10 / 3)) + 1

    def test_error_column_empty_without_truth(self, tmp_path):
        sys_dir = tmp_path / "sys"
        sys_dir.mkdir()
        eye = np.eye(3)
        fileio.write_matrix_market(sys_dir / "A.mtx", eye)
        fileio.write_matrix_market(sys_dir / "V.mtx", eye)
        fileio.write_table_csv(sys_dir / "b.csv", *fileio.vector_table(np.ones(3)))
        run_dir = str(tmp_path / "run")
        run_cli(["solve", "--system-dir", str(sys_dir), "--iters", "10",
                 "--log-stride", "5", "--seed", "0", "--out", run_dir])
        _, rows = read_csv(os.path.join(run_dir, "trace.csv"))
        assert all(row[1] is None for row in rows)

    def test_start_in_range(self, tmp_path):
        out = str(tmp_path / "sys")
        run_cli(["generate", "--kind", "underdetermined", "--m", "15", "--n", "40",
                 "--tau", "0.3", "--seed", "11", "--out", out])
        run_dir = str(tmp_path / "run")
        code = run_cli(["solve", "--system-dir", out, "--p", "rownorm-a",
                        "--rule", "oblique", "--iters", "3000", "--log-stride", "500",
                        "--seed", "2", "--start-in-range", "--out", run_dir])
        assert code == 0

    def test_repeat_run_byte_identical(self, tmp_path):
        out = str(tmp_path / "sys")
        run_cli(["generate", "--kind", "consistent", "--m", "30", "--n", "8",
                 "--seed", "8", "--out", out])
        d1, d2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        for d in (d1, d2):
            run_cli(["solve", "--system-dir", out, "--iters", "500",
                     "--log-stride", "100", "--seed", "42", "--out", d])
        t1 = (tmp_path / "r1" / "trace.csv").read_text()
        t2 = (tmp_path / "r2" / "trace.csv").read_text()
        strip = lambda t: [l for l in t.splitlines() if not l.startswith("#")]
        assert strip(t1) == strip(t2)

    def test_malformed_row_names_file_and_line(self, tmp_path, capsys):
        out = tmp_path / "sys"
        assert run_cli(["generate", "--kind", "consistent", "--m", "30", "--n", "8",
                        "--seed", "1", "--out", str(out)]) == 0
        lines = (out / "b.csv").read_text().splitlines(keepends=True)
        lines[9] = "0.12x5\n"  # the first value row, after 9 header lines
        (out / "b.csv").write_text("".join(lines))
        capsys.readouterr()
        run_dir = tmp_path / "run"
        assert run_cli(["solve", "--system-dir", str(out), "--iters", "10",
                        "--out", str(run_dir)]) == 1
        assert capsys.readouterr().err == (
            f"invalid input: {out / 'b.csv'}, line 10: '0.12x5' is not a number\n"
        )
        assert not run_dir.exists()


def header_lines(path, marker="# "):
    with open(path) as fh:
        return [line[len(marker):].rstrip("\n") for line in fh
                if line.startswith(marker) and not line.startswith("%%")]


def identity_system(sys_dir):
    sys_dir.mkdir()
    eye = np.eye(3)
    fileio.write_matrix_market(sys_dir / "A.mtx", eye)
    fileio.write_matrix_market(sys_dir / "V.mtx", eye)
    fileio.write_table_csv(sys_dir / "b.csv", *fileio.vector_table(np.ones(3)))
    return str(sys_dir)


def provenance(argv, seed):
    return [
        f"tool_version: {kaczmarz_mismatch.__version__}",
        "format_version: 2",
        "command: kaczmarz-mismatch " + " ".join(argv),
        f"seed: {seed}",
    ]


def assert_headers_match_manifest(out):
    """Every CSV and .mtx header of ``out`` holds the manifest's provenance and parameters."""
    with open(os.path.join(out, "manifest.json")) as fh:
        manifest = json.load(fh)
    parameters = sorted(
        f"{key}: {str(value).lower() if isinstance(value, bool) else value}"
        for key, value in manifest["parameters"].items()
    )
    names = sorted(os.listdir(out))
    assert any(name.endswith(".csv") for name in names)
    for name in names:
        if not name.endswith((".csv", ".mtx")):
            continue
        lines = header_lines(os.path.join(out, name), "# " if name.endswith(".csv") else "%")
        assert lines[:4] == fileio.provenance_lines(manifest["command"], manifest["seed"]), name
        assert sorted(lines[4:]) == parameters, name


class TestHeaders:
    def test_solve_and_optimize_header_lines(self, tmp_path):
        sys_dir = identity_system(tmp_path / "sys")
        runs = {
            "trace.csv": (["solve", "--system-dir", sys_dir, "--iters", "20",
                           "--log-stride", "5", "--seed", "4", "--tol", "1e-09",
                           "--out", str(tmp_path / "solve")],
                          [f"system_dir: {sys_dir}", "rule: oblique", "p: uniform",
                           "iters: 20", "log_stride: 5", "tol: 1e-09",
                           "start_in_range: false"]),
            "p_opt.csv": (["optimize", "--system-dir", sys_dir, "--iters", "3",
                           "--seed", "6", "--out", str(tmp_path / "opt")],
                          [f"system_dir: {sys_dir}", "rule: oblique", "objective: lambda",
                           "iters: 3"]),
        }
        for name, (argv, own) in runs.items():
            assert run_cli(argv) == 0
            assert header_lines(os.path.join(argv[-1], name)) == provenance(
                argv, argv[argv.index("--seed") + 1]
            ) + own

    def test_required_flags_only_record_every_resolved_flag(self, tmp_path):
        sys_dir = identity_system(tmp_path / "sys")
        runs = {
            "diagnostics.csv": (["diagnose", "--system-dir", sys_dir], "-",
                                ["rule: oblique", "p: uniform"]),
            "trace.csv": (["solve", "--system-dir", sys_dir, "--out", str(tmp_path / "solve")],
                          "0", ["rule: oblique", "p: uniform", "iters: 10000",
                                "log_stride: 100", "tol: 0.0", "start_in_range: false"]),
            "history.csv": (["optimize", "--system-dir", sys_dir, "--out", str(tmp_path / "opt")],
                            "0", ["rule: oblique", "objective: lambda", "iters: 200"]),
        }
        for name, (argv, seed, own) in runs.items():
            assert run_cli(argv) == 0
            out = argv[-1] if "--out" in argv else sys_dir
            assert header_lines(os.path.join(out, name)) == provenance(argv, seed) + [
                f"system_dir: {sys_dir}"
            ] + own, name

    def test_solve_help_names_the_probability_sources(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(["solve", "--help"])
        assert "uniform | rownorm-a | pairing | file:PATH" in capsys.readouterr().out

    @pytest.mark.parametrize("kind, flags", [
        ("consistent", ["--m", "12", "--n", "4"]),
        ("inconsistent", ["--m", "12", "--n", "4"]),
        ("underdetermined", ["--m", "4", "--n", "12"]),
        ("probopt", ["--m", "12", "--n", "4"]),
        ("ct", ["--grid", "8", "--rays", "12"]),
    ])
    def test_generate_headers_match_manifest(self, tmp_path, kind, flags):
        out = str(tmp_path / kind)
        assert run_cli(["generate", "--kind", kind, *flags, "--seed", "2", "--out", out]) == 0
        assert {"A.mtx", "V.mtx", "b.csv"} <= set(os.listdir(out))
        assert_headers_match_manifest(out)
        assert f"kind: {kind}" in header_lines(os.path.join(out, "A.mtx"), "%")

    @pytest.mark.parametrize("name, flags", [
        ("fig1", ["--m", "30", "--n", "8", "--iters", "200", "--log-stride", "50"]),
        ("fig2", ["--m", "30", "--n", "8", "--iters", "200", "--log-stride", "50"]),
        ("fig3", ["--m", "10", "--n", "30", "--iters", "400", "--log-stride", "100"]),
        ("ct", ["--grid", "8", "--rays", "12", "--sweeps", "1"]),
        ("table1", ["--m", "20", "--n", "6", "--iters", "5"]),
    ])
    def test_experiment_headers_match_manifest(self, tmp_path, name, flags):
        out = str(tmp_path / name)
        assert run_cli(["experiment", "--name", name, *flags, "--out", out]) == 0
        assert_headers_match_manifest(out)
        parameters = header_lines(os.path.join(out, "rkma_trace.csv" if name != "table1"
                                               else "trace_uniform.csv"))
        assert f"kind: {experiments.EXPERIMENTS[name].kind}" in parameters


class TestOptimize:
    def test_identity_stays_uniform(self, tmp_path):
        sys_dir = tmp_path / "sys"
        sys_dir.mkdir()
        eye = np.eye(3)
        fileio.write_matrix_market(sys_dir / "A.mtx", eye)
        fileio.write_matrix_market(sys_dir / "V.mtx", eye)
        fileio.write_table_csv(sys_dir / "b.csv", *fileio.vector_table(np.zeros(3)))
        out = str(tmp_path / "opt")
        code = run_cli(["optimize", "--system-dir", str(sys_dir),
                        "--objective", "lambda", "--iters", "30", "--out", out])
        assert code == 0
        p = fileio.read_vector_csv(os.path.join(out, "p_opt.csv"))
        np.testing.assert_allclose(p, np.full(3, 1 / 3), atol=1e-9)

    def test_reports_best_iteration_and_degenerate_count(self, tmp_path, capsys):
        # A = V = I: W = diag(p), so lambda_min is tied at the uniform start
        # and at the vertex of the simplex that the first step reaches.
        sys_dir = tmp_path / "sys"
        sys_dir.mkdir()
        eye = np.eye(3)
        fileio.write_matrix_market(sys_dir / "A.mtx", eye)
        fileio.write_matrix_market(sys_dir / "V.mtx", eye)
        fileio.write_table_csv(sys_dir / "b.csv", *fileio.vector_table(np.zeros(3)))
        assert run_cli(["optimize", "--system-dir", str(sys_dir), "--iters", "7",
                        "--out", str(tmp_path / "eye")]) == 0
        assert capsys.readouterr().out.splitlines()[-2:] == [
            "best_iteration: 0", "degenerate_iterations: 2",
        ]

        inst = str(tmp_path / "inst")
        run_cli(["generate", "--kind", "probopt", "--m", "30", "--n", "10",
                 "--seed", "10", "--out", inst])
        capsys.readouterr()
        opt_dir = str(tmp_path / "opt")
        assert run_cli(["optimize", "--system-dir", inst, "--objective", "norm",
                        "--iters", "40", "--out", opt_dir]) == 0
        lines = capsys.readouterr().out.splitlines()
        _, rows = read_csv(os.path.join(opt_dir, "history.csv"))
        values = [row[1] for row in rows]
        best = int(np.argmin(values))
        assert 0 < best
        assert lines == [
            f"best norm objective: {values[best]:.9g}",
            f"best_iteration: {best}",
            "degenerate_iterations: 0",
        ]

    @pytest.mark.parametrize("objective, pick, beats_uniform", [
        ("lambda", max, lambda best: best > 5.5157e-3),
        ("norm", min, lambda best: best < 0.99459),
    ], ids=["lambda", "norm"])
    def test_wide_system_optimizes_the_diagnosed_rates(
        self, tmp_path, capsys, objective, pick, beats_uniform
    ):
        # On m < n the optimizer, at its defaults, improves the range-restricted
        # rate that diagnose reports: 5.5157e-3 (lambda) and 0.99459 (norm) at
        # uniform p.
        inst = str(tmp_path / "inst")
        assert run_cli(["generate", "--kind", "underdetermined", "--seed", "1",
                        "--out", inst]) == 0
        opt_dir = str(tmp_path / "opt")
        assert run_cli(["optimize", "--system-dir", inst, "--objective", objective,
                        "--out", opt_dir]) == 0
        _, rows = read_csv(os.path.join(opt_dir, "history.csv"))
        best = pick(row[1] for row in rows)
        assert best != rows[0][1] and beats_uniform(best)
        capsys.readouterr()
        p_opt = "file:" + os.path.join(opt_dir, "p_opt.csv")
        assert run_cli(["diagnose", "--system-dir", inst, "--p", p_opt]) == 0
        report = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
        assert report["restricted"] == "true"
        assert float(report[objective]) == best

    @pytest.mark.parametrize("objective, pick", [("lambda", max), ("norm", min)],
                             ids=["lambda", "norm"])
    def test_diagnose_writes_the_best_history_cell(self, tmp_path, objective, pick):
        # diagnose at p_opt.csv reads the rate the optimizer reached, to the
        # last digit of the CSV cell.
        inst, opt_dir, diag_dir = (str(tmp_path / name) for name in ("inst", "opt", "diag"))
        assert run_cli(["generate", "--kind", "consistent", "--m", "200", "--n", "60",
                        "--seed", "1", "--out", inst]) == 0
        assert run_cli(["optimize", "--system-dir", inst, "--objective", objective,
                        "--iters", "30", "--out", opt_dir]) == 0
        assert run_cli(["diagnose", "--system-dir", inst, "--p",
                        "file:" + os.path.join(opt_dir, "p_opt.csv"), "--out", diag_dir]) == 0

        def cells(path):
            lines = [line for line in Path(path).read_text().splitlines()
                     if not line.startswith("#")]
            return [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]

        history = cells(os.path.join(opt_dir, "history.csv"))
        best = pick((row["objective"] for row in history), key=float)
        assert best != history[0]["objective"]  # p_opt is not the uniform start
        (diag,) = cells(os.path.join(diag_dir, "diagnostics.csv"))
        assert diag[objective] == best

    def test_history_best_so_far_monotone_norm(self, tmp_path):
        out = str(tmp_path / "sys")
        run_cli(["generate", "--kind", "probopt", "--m", "30", "--n", "10",
                 "--seed", "10", "--out", out])
        opt_dir = str(tmp_path / "opt")
        run_cli(["optimize", "--system-dir", out, "--objective", "norm",
                 "--iters", "60", "--out", opt_dir])
        _, rows = read_csv(os.path.join(opt_dir, "history.csv"))
        values = [row[1] for row in rows]
        best_so_far = np.minimum.accumulate(values)
        assert all(np.diff(best_so_far) <= 1e-15)


class TestExperiments:
    def test_fig1_directory_contract(self, tmp_path):
        out = str(tmp_path / "fig1")
        code = run_cli(["experiment", "--name", "fig1", "--seed", "1",
                        "--m", "60", "--n", "15", "--iters", "2000",
                        "--log-stride", "200", "--out", out])
        assert code == 0
        for name in ("rk_trace.csv", "rkma_trace.csv", "bound.csv",
                      "diagnostics.csv", "manifest.json"):
            assert os.path.exists(os.path.join(out, name)), name

    def test_fig2_bound_matches_function_pointwise(self, tmp_path):
        out = str(tmp_path / "fig2")
        run_cli(["experiment", "--name", "fig2", "--seed", "2",
                 "--m", "60", "--n", "15", "--iters", "2000",
                 "--log-stride", "200", "--out", out])
        d_cols, d_rows = read_csv(os.path.join(out, "diagnostics.csv"))
        lam = d_rows[0][d_cols.index("lambda")]
        gamma = d_rows[0][d_cols.index("gamma")]
        t_cols, t_rows = read_csv(os.path.join(out, "rkma_trace.csv"))
        e0_sq = t_rows[0][t_cols.index("error_norm")] ** 2
        b_cols, b_rows = read_csv(os.path.join(out, "bound.csv"))
        for row in b_rows:
            k = int(row[b_cols.index("k")])
            expected = inconsistent_bound(k, lam, gamma, e0_sq)
            assert row[b_cols.index("sq_error_bound")] == pytest.approx(
                expected, rel=1e-12
            )

    def test_fig3_contract(self, tmp_path):
        out = str(tmp_path / "fig3")
        code = run_cli(["experiment", "--name", "fig3", "--seed", "3",
                        "--m", "20", "--n", "60", "--iters", "4000",
                        "--log-stride", "500", "--out", out])
        assert code == 0
        cols, rows = read_csv(os.path.join(out, "diagnostics.csv"))
        assert rows[0][cols.index("restricted")] == "true"
        assert os.path.exists(os.path.join(out, "plateau.csv"))

    def test_table1_structure(self, tmp_path):
        out = str(tmp_path / "table1")
        code = run_cli(["experiment", "--name", "table1", "--seed", "5",
                        "--m", "40", "--n", "12", "--iters", "40",
                        "--out", out])
        assert code == 0
        cols, rows = read_csv(os.path.join(out, "table.csv"))
        assert cols == ["quantity", "uniform", "pairing", "opt_lambda", "opt_norm"]
        assert [row[0] for row in rows] == ["one_minus_lambda", "rho", "norm"]
        assert os.path.exists(os.path.join(out, "summary.csv"))
        # The solve length and the error target are fixed, and still recorded.
        with open(os.path.join(out, "manifest.json")) as fh:
            parameters = json.load(fh)["parameters"]
        assert parameters["solve_iterations"] == 40000
        assert parameters["error_target"] == 1e-06
        with open(os.path.join(out, "summary.csv")) as fh:
            assert "# error_target: 1e-06\n" in fh.read()

    def test_table1_takes_no_solve_length_or_error_target(self, tmp_path):
        out = tmp_path / "table1"
        for keyword in ("solve_iterations", "error_target"):
            with pytest.raises(InvalidInputError, match=keyword):
                experiments.experiment_table1(str(out), **{keyword: 10})
            assert not out.exists()

    def test_ct_small_contract(self, tmp_path):
        out = str(tmp_path / "ct")
        code = run_cli(["experiment", "--name", "ct", "--seed", "1",
                        "--grid", "8", "--rays", "24", "--sweeps", "2",
                        "--out", out])
        assert code == 0
        for name in ("rkma_trace.csv", "rk_trace.csv", "phantom.csv",
                      "recon_rkma.csv", "recon_rk.csv", "manifest.json"):
            assert os.path.exists(os.path.join(out, name)), name

    # Each pipeline solves the instance that generate writes for its kind at
    # the same seed and size, bit for bit after the file round trip.
    @pytest.mark.parametrize("name, kind, size", [
        ("fig1", "consistent", ["--m", "30", "--n", "8", "--tau", "0.4"]),
        ("fig2", "inconsistent", ["--m", "30", "--n", "8", "--tau", "0.4",
                                  "--noise-scale", "0.1"]),
        ("fig3", "underdetermined", ["--m", "12", "--n", "40", "--tau", "0.3"]),
        ("ct", "ct", ["--grid", "8", "--rays", "24"]),
        ("table1", "probopt", ["--m", "30", "--n", "8", "--zero-frac", "0.1"]),
        ("ct", "ct", ["--grid", "8", "--rays", "24", "--angle-step", "10"]),
    ])
    def test_instance_matches_generate(self, tmp_path, monkeypatch, name, kind, size):
        class Solved(Exception):
            pass

        def first_solve(sys_pair, p, cfg):
            raise Solved(sys_pair)

        monkeypatch.setattr(experiments, "run", first_solve)
        with pytest.raises(Solved) as solved:
            run_cli(["experiment", "--name", name, "--seed", "6", *size,
                     "--out", str(tmp_path / "exp")])
        built = solved.value.args[0]
        out = str(tmp_path / "gen")
        assert run_cli(["generate", "--kind", kind, "--seed", "6", *size,
                        "--out", out]) == 0

        def read(name):
            path = os.path.join(out, name)
            if name.endswith(".mtx"):
                return fileio.read_matrix_market(path)
            return fileio.read_vector_csv(path) if os.path.exists(path) else None

        for field, file in (("a", "A.mtx"), ("v", "V.mtx"), ("b", "b.csv"),
                            ("truth", "xhat.csv"), ("noise", "r.csv")):
            expected, written = getattr(built, field), read(file)
            if expected is None:
                assert written is None, field
            else:
                # The ct operators are CSR, built and read alike.
                assert np.array_equal(oracles.dense(expected), oracles.dense(written)), field

    def test_unknown_experiment_rejected(self, tmp_path):
        assert run_cli(["experiment", "--name", "fig9",
                        "--out", str(tmp_path / "x")]) == 1


class TestExitCodes:
    def test_usage_error(self):
        assert run_cli(["solve"]) == 1  # missing required flags

    def test_unknown_command(self):
        assert run_cli(["frobnicate"]) == 1

    def test_invalid_params(self, tmp_path, capsys):
        system = str(tmp_path / "sys")
        assert run_cli(["generate", "--kind", "consistent", "--m", "30", "--n", "8",
                        "--out", system]) == 0
        out = str(tmp_path / "x")
        for argv in (
            ["generate", "--kind", "underdetermined", "--m", "50", "--n", "10",
             "--out", out],
            ["diagnose", "--system-dir", system, "--p", "bogus"],
            ["solve", "--system-dir", system, "--p", "bogus", "--out", out],
            ["generate", "--kind", "ct", "--angle-step", "0", "--out", out],
            ["generate", "--kind", "ct", "--angle-step", "nan", "--out", out],
            ["generate", "--kind", "ct", "--angle-step", "-5", "--out", out],
            ["generate", "--kind", "ct", "--rays", "0", "--out", out],
            ["generate", "--kind", "ct", "--rays", "-1", "--out", out],
            ["generate", "--kind", "ct", "--rays", "4", "--out", out],
            ["experiment", "--name", "ct", "--rays", "0", "--out", out],
            ["experiment", "--name", "ct", "--angle-step", "0", "--out", out],
            ["experiment", "--name", "fig1", "--iters", "0", "--out", out],
            ["experiment", "--name", "fig2", "--log-stride", "0", "--out", out],
            ["experiment", "--name", "table1", "--iters", "0", "--out", out],
            ["experiment", "--name", "table1", "--m", "1", "--n", "5", "--iters", "2",
             "--out", out],
        ):
            capsys.readouterr()
            assert run_cli(argv) == 1, argv
            assert "invalid input" in capsys.readouterr().err, argv
            assert not os.path.exists(out), argv
        # NaN and infinite parameters fail their range checks by name.
        for argv, name in (
            (["generate", "--kind", "underdetermined", "--tau", "nan", "--out", out], "tau"),
            (["solve", "--system-dir", system, "--tol", "nan", "--out", out],
             "residual_tolerance"),
        ):
            capsys.readouterr()
            assert run_cli(argv) == 1, argv
            err = capsys.readouterr().err
            assert "invalid input" in err and name in err, argv
            assert not os.path.exists(out), argv

    def test_rank_deficient_ct_is_numeric_failure(self, tmp_path, capsys):
        # A V^T of the wide CT pair has rank below m, so neither the
        # restricted rates nor their optimization are defined.
        inst = str(tmp_path / "ct")
        assert run_cli(["generate", "--kind", "ct", "--grid", "16", "--angle-step", "10",
                        "--rays", "24", "--out", inst]) == 0
        out = tmp_path / "opt"
        for argv in (
            ["diagnose", "--system-dir", inst],
            ["optimize", "--system-dir", inst, "--iters", "3", "--out", str(out)],
        ):
            capsys.readouterr()
            assert run_cli(argv) == 2, argv
            assert capsys.readouterr().err == (
                "numeric failure: A V^T has rank 128 < 132: no unique solution in rg V^T\n"
            ), argv
        assert not out.exists()

    @pytest.mark.parametrize("name, size", [
        ("fig1", ["--m", "20", "--n", "5"]),
        ("fig2", ["--m", "20", "--n", "5"]),
        ("fig3", ["--m", "5", "--n", "20"]),
        ("ct", ["--grid", "8", "--rays", "24", "--sweeps", "1"]),
        ("table1", ["--m", "20", "--n", "5", "--iters", "2"]),
    ])
    def test_failed_solve_leaves_no_directory(self, tmp_path, capsys, monkeypatch,
                                              name, size):
        def failing_run(sys_pair, p, cfg):
            raise NumericError("solve failed")

        monkeypatch.setattr(experiments, "run", failing_run)
        out = tmp_path / "exp"
        assert run_cli(["experiment", "--name", name, *size, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "numeric failure: solve failed\n"
        assert not out.exists()

    def test_no_guarantee_pipeline_leaves_no_directory(self, tmp_path, capsys):
        # lambda = -0.0397: the solve and diagnostics finish, then the bound fails.
        out = tmp_path / "fig2"
        assert run_cli(["experiment", "--name", "fig2", "--m", "3", "--n", "3",
                        "--iters", "10", "--out", str(out)]) == 3
        assert "lambda = -3.974e-02 <= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["fig1", "fig2"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_lambda_rounded_above_one(self, tmp_path, name, seed):
        # n = 1 with V = A: lambda is 1 in exact arithmetic, and computes as
        # 1.0000000000000002.  Both bounds stay finite and non-negative.
        out = tmp_path / "exp"
        assert run_cli(["experiment", "--name", name, "--m", "2", "--n", "1",
                        "--tau", "0", "--seed", str(seed), "--iters", "10",
                        "--log-stride", "5", "--out", str(out)]) == 0
        columns, rows = read_csv(out / "bound.csv")
        assert [row[0] for row in rows] == [0, 5, 10]
        for column in ("sq_error_bound", "error_bound"):
            values = np.array([row[columns.index(column)] for row in rows])
            assert np.all(np.isfinite(values)) and np.all(values >= 0), column

    @pytest.mark.parametrize("argv, flag", [
        (["experiment", "--name", "ct", "--m", "100"], "--m"),
        (["experiment", "--name", "ct", "--tau", "9"], "--tau"),
        (["experiment", "--name", "fig1", "--zero-frac", "0.3"], "--zero-frac"),
        (["generate", "--kind", "ct", "--m", "7"], "--m"),
        (["optimize", "--system-dir", "sys", "--schedule", "sqrt"], "--schedule"),
        (["optimize", "--system-dir", "sys", "--step", "0.1"], "--step"),
    ])
    def test_unused_flag_rejected(self, tmp_path, capsys, argv, flag):
        assert run_cli(argv + ["--out", str(tmp_path / "x")]) == 1
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["solve", "diagnose", "optimize"])
    def test_unknown_rule_rejected(self, tmp_path, capsys, command):
        # --rule takes the three step rules of StepRule; adaptive-v is not one.
        out = tmp_path / "x"
        argv = [command, "--system-dir", "sys", "--rule", "adaptive-v", "--out", str(out)]
        assert run_cli(argv) == 1
        assert "invalid choice: 'adaptive-v'" in capsys.readouterr().err
        assert not out.exists()


class TestPackaging:
    def test_version_matches_pyproject(self):
        # Regex, not tomllib: Python 3.10 has no TOML reader.
        text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
        match = re.search(r'^version = "([^"]+)"$', text, re.MULTILINE)
        assert match is not None
        assert match.group(1) == kaczmarz_mismatch.__version__

    @staticmethod
    def fresh_python(code, cwd=None):
        """Standard output of ``code`` run in a fresh interpreter on this package."""
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=cwd, env=package_env(), check=True,
            capture_output=True, text=True,
        )
        return done.stdout

    def test_cli_import_leaves_out_ndimage(self):
        # No command filters an image with scipy.ndimage, and every command
        # pays the imports of the CLI module; scipy.io waits for a .mtx file.
        out = self.fresh_python(
            "import sys, kaczmarz_mismatch.cli; "
            "print(*(m in sys.modules for m in ('scipy.ndimage', 'scipy.sparse', 'scipy.io')))"
        )
        assert out.split() == ["False", "True", "False"]

    def test_pipelines_leave_out_scipy_io(self, tmp_path):
        # The five pipelines, at the sizes of the CI rerun step, read and
        # write no Matrix Market file, so no module under scipy.io loads.
        runs = [
            ["fig1", "--seed", "1", "--m", "60", "--n", "15", "--iters", "2000",
             "--log-stride", "200"],
            ["fig2", "--seed", "2", "--m", "60", "--n", "15", "--iters", "2000",
             "--log-stride", "200"],
            ["fig3", "--seed", "3", "--m", "20", "--n", "60", "--iters", "4000",
             "--log-stride", "500"],
            ["table1", "--seed", "5", "--m", "40", "--n", "12", "--iters", "40"],
            ["ct", "--seed", "1", "--grid", "8", "--rays", "24", "--sweeps", "2"],
        ]
        out = self.fresh_python(
            "import sys\n"
            "from kaczmarz_mismatch.cli import main\n"
            f"for name, *flags in {runs!r}:\n"
            "    assert main(['experiment', '--name', name, *flags, '--out', name]) == 0\n"
            "print(sorted(m for m in sys.modules if (m + '.').startswith('scipy.io.')))\n",
            cwd=tmp_path,
        )
        assert out.splitlines()[-1] == "[]"

    def test_generate_and_solve_load_scipy_io_in_fresh_processes(self, tmp_path):
        # Each command imports the Matrix Market function it needs on its
        # first .mtx write (generate) or read (solve).
        for argv in (
            ["generate", "--kind", "consistent", "--m", "30", "--n", "8", "--out", "sys"],
            ["solve", "--system-dir", "sys", "--iters", "100", "--out", "run"],
        ):
            out = self.fresh_python(
                "import sys\n"
                "from kaczmarz_mismatch.cli import main\n"
                f"print(main({argv!r}), 'scipy.io' in sys.modules)\n",
                cwd=tmp_path,
            )
            assert out.splitlines()[-1] == "0 True", argv
        assert (tmp_path / "run" / "trace.csv").exists()

    def test_ct_commands_leave_out_ndimage_and_special(self, tmp_path):
        # The CT phantom is blurred in numpy: a CT build loads neither
        # scipy.ndimage nor the scipy.special it would pull in.
        out = self.fresh_python(
            "import sys\n"
            "from kaczmarz_mismatch.cli import main\n"
            "assert main(['generate', '--kind', 'ct', '--grid', '12', '--angle-step', '10',"
            " '--rays', '36', '--out', 'ct']) == 0\n"
            "assert main(['experiment', '--name', 'ct', '--grid', '12', '--rays', '36',"
            " '--sweeps', '2', '--out', 'exp']) == 0\n"
            "print(sorted(m for m in sys.modules"
            " if m.startswith(('scipy.ndimage', 'scipy.special'))))\n",
            cwd=tmp_path,
        )
        assert out.splitlines()[-1] == "[]"
