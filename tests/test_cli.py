import json
import os

import numpy as np
import pytest

from kaczmarz_mismatch import experiments, fileio
from kaczmarz_mismatch.cli import main
from kaczmarz_mismatch.diagnostics import inconsistent_bound


def run_cli(args):
    return main(args)


def read_csv(path):
    return fileio.read_table_csv(path)


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
            ("lambda", "rho", "norm", "gamma", "fixed_point_error",
             "restricted", "positivity_ok")
        )
        assert rows[0][0] > 0  # lambda

    def test_inconsistent_writes_noise(self, tmp_path):
        out = str(tmp_path / "sys")
        run_cli(["generate", "--kind", "inconsistent", "--m", "20", "--n", "5",
                 "--noise-scale", "0.1", "--seed", "2", "--out", out])
        assert os.path.exists(os.path.join(out, "r.csv"))

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
        fileio.write_vector_csv(sys_dir / "b.csv", np.ones(3))
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
        fileio.write_vector_csv(sys_dir / "b.csv", np.ones(2))
        code = run_cli(["diagnose", "--system-dir", str(sys_dir), "--p", "uniform"])
        assert code == 3

    def test_probabilities_from_file(self, tmp_path):
        out = str(tmp_path / "sys")
        assert run_cli(["generate", "--kind", "consistent", "--m", "10", "--n", "12",
                        "--seed", "5", "--out", out]) == 0
        p_path = tmp_path / "p.csv"
        fileio.write_vector_csv(p_path, np.full(10, 0.1))
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
        fileio.write_vector_csv(sys_dir / "b.csv", np.ones(4))
        fileio.write_vector_csv(sys_dir / "xhat.csv", np.ones(4))
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
        fileio.write_vector_csv(sys_dir / "b.csv", np.ones(3))
        run_dir = str(tmp_path / "run")
        run_cli(["solve", "--system-dir", str(sys_dir), "--iters", "10",
                 "--log-stride", "5", "--seed", "0", "--out", run_dir])
        _, rows = read_csv(os.path.join(run_dir, "trace.csv"))
        assert all(row[1] is None for row in rows)

    def test_start_in_range_and_adaptive_rule(self, tmp_path):
        out = str(tmp_path / "sys")
        run_cli(["generate", "--kind", "underdetermined", "--m", "15", "--n", "40",
                 "--tau", "0.3", "--seed", "11", "--out", out])
        run_dir = str(tmp_path / "run")
        code = run_cli(["solve", "--system-dir", out, "--p", "rownorm-a",
                        "--rule", "oblique", "--iters", "3000", "--log-stride", "500",
                        "--seed", "2", "--start-in-range", "--out", run_dir])
        assert code == 0
        adaptive_dir = str(tmp_path / "run_adaptive")
        code = run_cli(["solve", "--system-dir", out, "--p", "uniform",
                        "--rule", "adaptive-v", "--iters", "500",
                        "--log-stride", "100", "--seed", "2", "--out", adaptive_dir])
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


class TestOptimize:
    def test_identity_stays_uniform(self, tmp_path):
        sys_dir = tmp_path / "sys"
        sys_dir.mkdir()
        eye = np.eye(3)
        fileio.write_matrix_market(sys_dir / "A.mtx", eye)
        fileio.write_matrix_market(sys_dir / "V.mtx", eye)
        fileio.write_vector_csv(sys_dir / "b.csv", np.zeros(3))
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
        fileio.write_vector_csv(sys_dir / "b.csv", np.zeros(3))
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
                assert np.array_equal(expected, written), field

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
            ["experiment", "--name", "fig1", "--iters", "0", "--out", out],
            ["experiment", "--name", "fig2", "--log-stride", "0", "--out", out],
            ["experiment", "--name", "table1", "--iters", "0", "--out", out],
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
            (["optimize", "--system-dir", system, "--step", "nan", "--out", out], "base_step"),
            (["optimize", "--system-dir", system, "--step", "inf", "--out", out], "base_step"),
        ):
            capsys.readouterr()
            assert run_cli(argv) == 1, argv
            err = capsys.readouterr().err
            assert "invalid input" in err and name in err, argv
            assert not os.path.exists(out), argv

    @pytest.mark.parametrize("argv, flag", [
        (["experiment", "--name", "ct", "--m", "100"], "--m"),
        (["experiment", "--name", "ct", "--tau", "9"], "--tau"),
        (["experiment", "--name", "fig1", "--zero-frac", "0.3"], "--zero-frac"),
        (["generate", "--kind", "ct", "--m", "7"], "--m"),
    ])
    def test_unused_flag_rejected(self, tmp_path, capsys, argv, flag):
        assert run_cli(argv + ["--out", str(tmp_path / "x")]) == 1
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "x").exists()
