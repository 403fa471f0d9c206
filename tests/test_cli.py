import ctypes
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import tsgbomp
from tsgbomp import analysis, experiments
from tsgbomp.analysis import RicEstimate, pibric, verify_lemmas
from tsgbomp.cli import at_least_one, at_least_zero, main
from tsgbomp.experiments import ExperimentConfig, curve_to_csv, run_curve
from tsgbomp.sensing import gaussian_matrix, matrix_to_binary, matrix_to_csv
from tsgbomp.signal_model import (
    PibsParams,
    signal_to_csv,
    signal_values_from_csv,
    support_to_text,
)


@pytest.fixture
def matrix_file(tmp_path):
    mat = gaussian_matrix(24, 32, "unit", True, np.random.default_rng(0))
    path = tmp_path / "phi.bin"
    path.write_bytes(matrix_to_binary(mat))
    return mat, path


class TestCount:
    def test_prints_enumerated_value(self, capsys):
        code = main(["count", "--n", "5", "--b", "1", "--p", "1",
                     "--lsep", "2", "--K", "2", "--R", "0"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_pseudo_cell_prints_exact_size(self, capsys):
        # every stated assumption holds, yet the closed form undercounts
        code = main(["count", "--n", "12", "--b", "1", "--p", "1", "--l", "2",
                     "--lsep", "2", "--K", "3", "--R", "1"])
        assert code == 0
        out, err = capsys.readouterr()
        assert out == "322\n"
        assert err == "warning: the closed form gives 112\n"

    def test_large_cell_prints_its_size(self, capsys):
        # C(114, 4) supports: counted, never walked
        code = main(["count", "--n", "120", "--b", "1", "--p", "1", "--lsep", "2",
                     "--K", "4", "--R", "0"])
        assert code == 0
        out, err = capsys.readouterr()
        assert out == "6672876\n"
        assert err == ""

    def test_many_clusters_count_without_recursion(self, capsys):
        # 400 single-block clusters in 800 columns: 401 layouts
        code = main(["count", "--n", "800", "--b", "1", "--p", "1", "--lsep", "1",
                     "--K", "400", "--R", "0"])
        assert code == 0
        assert capsys.readouterr().out == "401\n"

    def test_assumption_warning_on_stderr(self, capsys):
        code = main(["count", "--n", "30", "--b", "2", "--p", "2", "--lsep", "4",
                     "--l", "4", "--K", "3", "--R", "1"])
        assert code == 0
        err = capsys.readouterr().err
        assert "warning" in err


class TestThm1:
    def test_fail_prints_and_exits_one(self, capsys):
        code = main(["thm1", "--delta", "0.6", "--K", "1", "--b", "1", "--p", "1"])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL(17)" in out

    def test_pass_exits_zero(self, capsys):
        code = main(["thm1", "--delta", "0.0", "--K", "1", "--b", "1", "--p", "1",
                     "--xmin", "0.5", "--xmax", "1.0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS(17)" in out and "PASS(18)" in out

    def test_complex_labels(self, capsys):
        code = main(["thm1", "--delta", "0.6", "--K", "1", "--b", "1", "--p", "1",
                     "--field", "complex"])
        assert code == 1
        assert "FAIL(19)" in capsys.readouterr().out


    @pytest.mark.parametrize(
        "geometry", [["--b", "0", "--p", "2"], ["--b", "2", "--p", "0"], ["--b", "-1", "--p", "2"]],
        ids=["b0", "p0", "b-1"],
    )
    def test_block_or_cluster_below_one_exits_one(self, geometry, capsys):
        # at b = 0 f_K is 0, and both conditions used to pass
        code = main(["thm1", "--delta", "0.2", "--K", "2", *geometry])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and ">= 1" in err and "Traceback" not in err


    @pytest.mark.parametrize("eps", ["-5", "nan", "inf"])
    def test_negative_or_non_finite_noise_exits_one(self, eps, capsys):
        # --eps -5 used to print PASS(18) margin=29.83, and nan FAIL(18) margin=nan
        code = main(["thm1", "--delta", "0.2", "--K", "2", "--b", "2", "--p", "2",
                     "--xmin", "3", "--eps", eps])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: epsilon must be finite and >= 0")


class TestThm2:
    README = ["thm2", "--b", "1", "--p", "1", "--L", "2", "--K", "4", "--m", "2000",
              "--n", "200", "--eps0", "0.05", "--eps", "0.05"]

    def test_readme_example_reports_flags_and_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "thm2.csv"
        code = main([*self.README, "--csv", str(csv_path)])
        assert code == 0
        out = capsys.readouterr().out
        flags = [ln for ln in out.splitlines() if ln.startswith("flag ")]
        assert len(flags) == 7
        assert "flag eps0-window: VIOLATED" in flags
        rows = csv_path.read_text().splitlines()
        assert len(rows) == 23 and rows[0] == "quantity,value"
        names = [row.split(",")[0] for row in rows[1:]]
        assert names[:15] == ["lambda", "nu", "rho", "A", "C", "D", "E", "h", "c1", "c2",
                              "eps0", "eps", "g", "bound", "bound_derivation"]
        assert names[15:] == ["flag_" + ln[len("flag "):].split(":")[0] for ln in flags]
        assert "flag_eps0-window,0" in rows
        values = dict(row.split(",") for row in rows[1:])
        assert f"lambda = {values['lambda']} (separation)\n" in out
        assert f"h  = {values['h']}\n" in out
        assert f"bound            = {values['bound']}\n" in out

    def test_window_length_zero_exits_one(self, capsys):
        code = main(["thm2", "--b", "1", "--p", "1", "--L", "0", "--K", "4",
                     "--m", "40", "--n", "100", "--eps0", "0.1", "--eps", "0.1"])
        assert code == 1
        assert capsys.readouterr().err == "error: L must be >= 1, got 0\n"

    @pytest.mark.parametrize("option", ["--m", "--K"])
    def test_measurements_or_budget_zero_exits_one(self, option, capsys):
        argv = list(self.README)
        argv[argv.index(option) + 1] = "0"
        code = main(argv)
        assert code == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and ">= 1" in err and "Traceback" not in err


class TestGbounds:
    ARGS = ["gbounds", "--a", "0.5", "--K", "4", "--b", "1"]
    BOUNDS = "lower = 0.0343762320194731\nupper = 0.8193310587965339\n"

    def test_closed_form_bounds(self, capsys):
        assert main(self.ARGS) == 0
        assert capsys.readouterr().out == self.BOUNDS

    def test_seeded_empirical_tail(self, capsys):
        assert main([*self.ARGS, "--trials", "1000", "--seed", "3"]) == 0
        assert capsys.readouterr().out == self.BOUNDS + "empirical = 0.056\n"

    def test_trials_without_seed_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main([*self.ARGS, "--trials", "1000"])
        assert err.value.code == 2
        assert "--seed is required when --trials is set" in capsys.readouterr().err

    @pytest.mark.parametrize("size", ["-3", "-1"])
    def test_negative_block_count_and_size_exit_one(self, size, capsys):
        # their product 9 or 1 is a valid length, and these printed an
        # upper bound of 1.84 and of 1.0
        code = main(["gbounds", "--a", "0.5", f"--K={size}", f"--b={size}"])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: K must be >= 1, got {size}\n"

    @pytest.mark.parametrize(
        "setting, option",
        [(["--trials=-5"], "--trials"), (["--seed=-3", "--trials", "10"], "--seed")],
        ids=["trials", "seed"],
    )
    def test_negative_trials_or_seed_exits_two(self, setting, option, capsys):
        # the seed used to reach numpy after both bounds were printed, and
        # trials without a seed to ask for a seed
        with pytest.raises(SystemExit) as err:
            main([*self.ARGS, *setting])
        assert err.value.code == 2
        out, err_text = capsys.readouterr()
        assert out == "" and f"argument {option}: value must be >= 0, got -" in err_text


class TestGenerators:
    def test_gen_matrix_and_signal_round_trip(self, tmp_path):
        mat_path = tmp_path / "phi.csv"
        code = main(["gen-matrix", "--m", "12", "--n", "16", "--seed", "3",
                     "--out", str(mat_path)])
        assert code == 0
        assert mat_path.read_text().startswith("12,16,")

        sig_path = tmp_path / "sig.csv"
        sup_path = tmp_path / "sup.txt"
        code = main(["gen-signal", "--n", "16", "--b", "2", "--p", "2", "--L", "4",
                     "--K", "2", "--seed", "4", "--out", str(sig_path),
                     "--support-out", str(sup_path)])
        assert code == 0
        x = signal_values_from_csv(sig_path.read_text(), 16)
        assert np.count_nonzero(x) == 4
        assert "cluster" in sup_path.read_text()

    def test_gen_matrix_deterministic(self, tmp_path):
        a = tmp_path / "a.bin"
        b = tmp_path / "b.bin"
        for path in (a, b):
            main(["gen-matrix", "--m", "8", "--n", "6", "--seed", "9",
                  "--out", str(path)])
        assert a.read_bytes() == b.read_bytes()


class TestRecover:
    def test_recover_reports_support(self, tmp_path, capsys):
        mat = gaussian_matrix(24, 32, "unit", True, np.random.default_rng(0))
        mat_path = tmp_path / "phi.csv"
        mat_path.write_text(matrix_to_csv(mat))
        x = np.zeros(32)
        x[8:12] = 5.0
        y = mat.entries @ x
        y_path = tmp_path / "y.csv"
        rows = ["index,value"] + [f"{i + 1},{float(v)!r}" for i, v in enumerate(y)]
        y_path.write_text("\n".join(rows) + "\n")
        code = main(["recover", "--alg", "tsgbomp", "--matrix", str(mat_path), "--y", str(y_path),
                     "--iterations", "2", "--L", "4", "--B", "4", "--eps", "1e-8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "estimated columns:" in out
        listed = out.splitlines()[-1].split(":")[1].split()
        assert {"9", "10", "11", "12"}.issubset(set(listed))

    def test_solver_reads_only_the_cluster_width(self, matrix_file, tmp_path, capsys):
        # (b=2, p=2) and (b=4, p=1) describe different signals, but both
        # give the solver the cluster width B = 4, recover's one width option
        mat, mat_path = matrix_file
        x = np.zeros(32)
        x[5:9] = 5.0
        x[20:22] = -3.0
        y_path = tmp_path / "y.csv"
        y_path.write_text(signal_to_csv(mat.entries @ x))
        code = main(["recover", "--alg", "tsgbomp", "--matrix", str(mat_path), "--y", str(y_path),
                     "--iterations", "3", "--L", "8", "--B", "4", "--eps", "1e-8"])
        assert code == 0
        assert capsys.readouterr().out.endswith("estimated columns: 6 7 8 9 19 20 21 22\n")

    def test_out_writes_the_report_and_prints_nothing(self, matrix_file, tmp_path, capsys):
        mat, mat_path = matrix_file
        x = np.zeros(32)
        x[8:12] = 5.0
        y_path = tmp_path / "y.csv"
        y_path.write_text(signal_to_csv(mat.entries @ x))
        argv = ["recover", "--alg", "bomp", "--matrix", str(mat_path), "--y", str(y_path),
                "--iterations", "1", "--B", "4", "--eps", "1e-8"]
        assert main(argv) == 0
        report = capsys.readouterr().out
        out = tmp_path / "report.txt"
        assert main([*argv, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == report
        assert "estimated columns: 9 10 11 12" in report

    def test_bomp_needs_no_window_length(self, matrix_file, tmp_path, capsys):
        mat, mat_path = matrix_file
        x = np.zeros(32)
        x[8:12] = 5.0
        y_path = tmp_path / "y.csv"
        y_path.write_text(signal_to_csv(mat.entries @ x))
        code = main(["recover", "--alg", "bomp", "--matrix", str(mat_path), "--y", str(y_path),
                     "--iterations", "1", "--B", "4", "--eps", "1e-8"])
        assert code == 0
        assert "estimated columns:" in capsys.readouterr().out

    def test_bomp_refuses_a_window_length(self, matrix_file, tmp_path, capsys):
        # bomp's blocks are its windows of length B; an --L it would not
        # read, here one that does not divide n=32, is a usage error
        mat, mat_path = matrix_file
        y_path = tmp_path / "y.csv"
        y_path.write_text(signal_to_csv(mat.entries[:, 0]))
        with pytest.raises(SystemExit) as err:
            main(["recover", "--alg", "bomp", "--matrix", str(mat_path), "--y", str(y_path),
                  "--iterations", "1", "--L", "7", "--B", "4", "--eps", "1e-8"])
        assert err.value.code == 2
        out, err_text = capsys.readouterr()
        assert out == "" and err_text.endswith("error: --L applies to --alg tsgbomp only\n")

    def test_tsgbomp_without_window_length_exits_two(self, matrix_file, tmp_path, capsys):
        _, mat_path = matrix_file
        y_path = tmp_path / "y.csv"
        y_path.write_text("index,value\n1,1.0\n")
        with pytest.raises(SystemExit) as err:
            main(["recover", "--alg", "tsgbomp", "--matrix", str(mat_path), "--y", str(y_path),
                  "--iterations", "1", "--B", "4", "--eps", "1e-8"])
        assert err.value.code == 2
        assert "--L is required" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["0,1.0", "25,1.0", "3,abc", "3,nan", "3,1.0\n3,2.0"])
    def test_bad_measurement_row_exits_one(self, matrix_file, tmp_path, capsys, row):
        _, mat_path = matrix_file
        y_path = tmp_path / "y.csv"
        y_path.write_text(f"index,value\n{row}\n")
        code = main(["recover", "--matrix", str(mat_path), "--y", str(y_path),
                     "--iterations", "2", "--L", "4", "--B", "4", "--eps", "1e-8"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_matrix_field_that_is_not_a_number_exits_one(self, tmp_path, capsys):
        # float()'s own message named the field but not its row
        mat_path = tmp_path / "phi.csv"
        mat_path.write_text("2,2,0\n1.0,0.0\n1.0,x\n")
        y_path = tmp_path / "y.csv"
        y_path.write_text("index,value\n1,1.0\n")
        code = main(["recover", "--alg", "bomp", "--matrix", str(mat_path), "--y", str(y_path),
                     "--iterations", "1", "--B", "1", "--eps", "1e-8"])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: matrix CSV row 2 holds a field that is not a number: '1.0,x'\n"


    @pytest.mark.parametrize(
        "alg, b, p",
        [
            (["tsgbomp", "--L", "0"], 2, 2),
            (["tsgbomp", "--L", "4"], 0, 2),
            (["tsgbomp", "--L", "4"], 2, 0),
            (["bomp"], 0, 2),
        ],
        ids=["tsgbomp-L0", "tsgbomp-b0", "tsgbomp-p0", "bomp-b0"],
    )
    def test_zero_window_or_block_exits_one(self, matrix_file, tmp_path, capsys, alg, b, p):
        # recover reads only the width B = b * p, which is 0 when b or p is
        mat, mat_path = matrix_file
        y_path = tmp_path / "y.csv"
        y_path.write_text(signal_to_csv(mat.entries[:, 0]))
        code = main(["recover", "--alg", *alg, "--matrix", str(mat_path), "--y", str(y_path),
                     "--iterations", "1", "--B", str(b * p), "--eps", "1e-8"])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and ">= 1" in err and "Traceback" not in err


    def test_negative_block_and_cluster_exit_one(self, matrix_file, tmp_path, capsys):
        # both solvers' geometry check, the one window rule, names the width B
        mat, mat_path = matrix_file
        y_path = tmp_path / "y.csv"
        y_path.write_text(signal_to_csv(mat.entries[:, 0]))
        for alg in ["bomp"], ["tsgbomp", "--L", "4"]:
            code = main(["recover", "--alg", *alg, "--matrix", str(mat_path), "--y", str(y_path),
                         "--iterations", "1", "--B", "-2", "--eps", "1e-8"])
            assert code == 1
            out, err = capsys.readouterr()
            assert out == "" and err == "error: B must be >= 1, got -2\n"


class TestRic:
    def test_window_length_matches_separation(self, matrix_file, capsys):
        # ric spells the window only as the separation: L=4 with b=p=2 is
        # Lsep = L + 2pb - b = 10
        mat, path = matrix_file
        argv = ["ric", "--matrix", str(path), "--b", "2", "--p", "2", "--l", "2",
                "--K", "1", "--R", "1"]
        with pytest.raises(SystemExit) as err:
            main([*argv, "--L", "4"])
        assert err.value.code == 2
        capsys.readouterr()
        assert main([*argv, "--lsep", "10"]) == 0
        est = pibric(mat, PibsParams.from_window(n=32, b=2, p=2, l=2, L=4, K=1, R=1), 1, 1)
        assert capsys.readouterr().out == (
            f"delta = {est.delta!r}\nsupports scanned = {est.count}\nargmax support:\n"
            + support_to_text(est.argmax)
        )

    def test_malformed_matrix_exits_one(self, tmp_path, capsys):
        path = tmp_path / "phi.csv"
        path.write_text("2,2,0\n1,0\n0,1\n1,1\n")
        code = main(["ric", "--matrix", str(path), "--b", "1", "--p", "1",
                     "--lsep", "2", "--K", "1", "--R", "0"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_non_finite_matrix_exits_one(self, tmp_path, capsys):
        # a nan row would win the argmax and report delta = 0.0
        path = tmp_path / "phi.csv"
        path.write_text("2,2,0\n1,nan\n0,1\n")
        code = main(["ric", "--matrix", str(path), "--b", "1", "--p", "1",
                     "--lsep", "2", "--K", "1", "--R", "0"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_ric_outputs_delta(self, matrix_file, capsys):
        _, path = matrix_file
        code = main(["ric", "--matrix", str(path), "--b", "2", "--p", "2",
                     "--l", "2", "--lsep", "8", "--K", "1", "--R", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("delta = ")
        assert "supports scanned" in out


class TestLemmasCommand:
    def test_exit_zero_on_pass(self, tmp_path, capsys):
        mat = gaussian_matrix(24, 30, "unit", True, np.random.default_rng(2))
        path = tmp_path / "phi.bin"
        path.write_bytes(matrix_to_binary(mat))
        code = main(["lemmas", "--matrix", str(path), "--b", "1", "--p", "1",
                     "--lsep", "4", "--K", "2", "--R", "1", "--seed", "0"])
        out = capsys.readouterr().out
        assert "lemma checks" in out
        assert code == 0

    def test_margins_csv_writes_the_report_margins(self, matrix_file, tmp_path, capsys):
        mat, path = matrix_file
        csv_path = tmp_path / "margins.csv"
        code = main(["lemmas", "--matrix", str(path), "--b", "1", "--p", "1", "--lsep", "3",
                     "--K", "1", "--R", "1", "--seed", "4", "--margins-csv", str(csv_path)])
        params = PibsParams(n=32, b=1, p=1, l=3, Lsep=3, K=1, R=1)
        report = verify_lemmas(mat, params, 1, 1, np.random.default_rng(4), cell_cap=150_000)
        assert code == 0
        assert capsys.readouterr().out == report.render()
        assert csv_path.read_text() == report.margins_csv()
        assert len(csv_path.read_text().splitlines()) > 1

    def test_rejects_a_false_normalized_flag(self, tmp_path, capsys):
        # the header's normalized flag gates projected-column-bound, so a
        # matrix flagged normalized with columns of norm 3 must not load
        mat = gaussian_matrix(24, 30, "unit", True, np.random.default_rng(2))
        path = tmp_path / "phi.bin"
        path.write_bytes(matrix_to_binary(replace(mat, entries=3.0 * mat.entries)))
        code = main(["lemmas", "--matrix", str(path), "--b", "1", "--p", "1",
                     "--lsep", "4", "--K", "2", "--R", "1", "--seed", "0"])
        assert code == 1
        assert "column 1 has norm" in capsys.readouterr().err


    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_cell_cap_below_one_exits_two(self, matrix_file, cap, capsys):
        _, path = matrix_file
        with pytest.raises(SystemExit) as err:
            main(["lemmas", "--matrix", str(path), "--b", "1", "--p", "1", "--lsep", "3",
                  "--K", "1", "--R", "1", "--seed", "0", "--cell-cap", cap])
        assert err.value.code == 2
        message = f"--cell-cap: value must be >= 1, got {cap}"
        assert message in capsys.readouterr().err

    def test_families_over_the_cap_print_skipped(self, tmp_path, capsys):
        # these used to print norm-sandwich: pass checks=0 and blame delta >= 1
        mat = gaussian_matrix(20, 30, "unit", True, np.random.default_rng(0))
        path = tmp_path / "phi.bin"
        path.write_bytes(matrix_to_binary(mat))
        code = main(["lemmas", "--matrix", str(path), "--b", "1", "--p", "1", "--lsep", "3",
                     "--K", "1", "--R", "1", "--seed", "0", "--cell-cap", "1"])
        assert code == 0
        assert capsys.readouterr().out == (
            "lemma checks (K=1, R=1)\n"
            "  norm-sandwich: skipped (cells over cell_cap)\n"
            "  budget-monotonicity: skipped (cells over cell_cap)\n"
            "  pseudo-length-monotonicity: pass checks=2 worst_margin=0.000e+00\n"
            "  block-for-pseudo-trade: skipped (needed orders unavailable)\n"
            "  projected-sandwich: skipped (cells over cell_cap)\n"
            "  projected-innerproduct: skipped (cells over cell_cap)\n"
            "  projected-column-bound: skipped (cells over cell_cap)\n"
        )

    # the first used to print projected-column-bound: skipped (no order with
    # delta < 1), which needs an order with one pseudo block; the second
    # norm-sandwich: pass checks=0, and blamed delta >= 1 on order (0, 0)
    NO_ORDER_REPORTS = {
        ("2", "0"): (
            "lemma checks (K=2, R=0)\n"
            "  norm-sandwich: pass checks=8950 worst_margin=4.420e-06\n"
            "  budget-monotonicity: pass checks=3 worst_margin=3.485e-01\n"
            "  pseudo-length-monotonicity: pass checks=6 worst_margin=0.000e+00\n"
            "  block-for-pseudo-trade: skipped (needed orders unavailable)\n"
            "  projected-sandwich: pass checks=7000 worst_margin=2.310e-01\n"
            "  projected-innerproduct: pass checks=35000 worst_margin=2.945e-01\n"
            "  projected-column-bound: skipped (needed orders unavailable)\n"
        ),
        ("0", "0"): (
            "lemma checks (K=0, R=0)\n"
            "  norm-sandwich: skipped (no support covers a column)\n"
            "  budget-monotonicity: skipped (no cells)\n"
            "  pseudo-length-monotonicity: pass checks=2 worst_margin=0.000e+00\n"
            "  block-for-pseudo-trade: skipped (needed orders unavailable)\n"
            "  projected-sandwich: skipped (no support covers a column)\n"
            "  projected-innerproduct: skipped (no support covers a column)\n"
            "  projected-column-bound: skipped (needed orders unavailable)\n"
        ),
    }

    @pytest.mark.parametrize("K, R", list(NO_ORDER_REPORTS))
    def test_families_without_their_orders_print_why(self, K, R, tmp_path, capsys):
        mat = gaussian_matrix(40, 60, "unit", True, np.random.default_rng(1000))
        path = tmp_path / "phi.csv"
        path.write_text(matrix_to_csv(mat))
        code = main(["lemmas", "--matrix", str(path), "--b", "2", "--p", "2", "--lsep", "10",
                     "--K", K, "--R", R, "--seed", "1"])
        assert capsys.readouterr().out == self.NO_ORDER_REPORTS[K, R]
        assert code == 0

    def test_failing_family_prints_fail_and_exits_one(self, matrix_file, monkeypatch, capsys):
        # at a tolerance of -0.2 a family fails iff its worst margin is
        # below 0.2: the zero of pseudo-length-monotonicity does, the 0.287
        # of projected-innerproduct does not
        mat, path = matrix_file
        monkeypatch.setattr(analysis, "_LEMMA_TOL", -0.2)
        code = main(["lemmas", "--matrix", str(path), "--b", "1", "--p", "1", "--lsep", "3",
                     "--K", "1", "--R", "1", "--seed", "4"])
        params = PibsParams(n=32, b=1, p=1, l=3, Lsep=3, K=1, R=1)
        report = verify_lemmas(mat, params, 1, 1, np.random.default_rng(4))
        out = capsys.readouterr().out
        assert out == report.render()
        assert "  pseudo-length-monotonicity: FAIL checks=8 worst_margin=0.000e+00\n" in out
        assert "  projected-innerproduct: pass checks=23000 worst_margin=2.866e-01\n" in out
        assert not report.all_passed
        assert code == 1


class TestCurveCommand:
    def test_writes_csv_and_checks(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "n=48\nm=48\nb=2\np=2\nL=4\nK_grid=1,2\ntrials=2\n"
            "algorithms=tsgbomp\nmaster_seed=5\n"
        )
        out = tmp_path / "curve.csv"
        code = main(["curve", "--config", str(cfg), "--out", str(out), "--check"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "K,algorithm,success_rate,trials"
        assert len(lines) == 3

    def test_rising_curve_prints_csv_and_fails_the_check(self, tmp_path, capsys):
        # bomp at p=2 recovers more often at larger K, once its K blocks
        # cover the support more easily
        text = ("n=48\nm=48\nb=2\np=2\nL=4\nK_grid=2,6\ntrials=20\n"
                "algorithms=bomp\nmaster_seed=0\n")
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text)
        code = main(["curve", "--config", str(cfg), "--check"])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == curve_to_csv(run_curve(ExperimentConfig.from_text(text)))
        assert err == "check failure: bomp: success rate rises from 0.450 (K=2) to 0.850 (K=6)\n"


    def test_window_length_zero_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("n=48\nm=48\nb=2\np=2\nL=0\nK_grid=1\nmaster_seed=5\n")
        code = main(["curve", "--config", str(cfg)])
        assert code == 1
        assert capsys.readouterr().err == "error: L must be >= 1, got 0\n"

    @pytest.mark.parametrize(
        "geometry, message",
        [
            ("b=2\np=2\nL=4\nK_grid=1,-1\n", "K must be >= 0, got -1"),
            ("b=2\np=2\nL=2\nK_grid=1\n", "window length L=2 must be at least B=p*b=4"),
            ("b=2\np=2\nL=4\nK_grid=1\nvalue_scheme=const:-5\n",
             "amplitude must be finite and > 0, got -5.0"),
            ("b=2\np=2\nL=4\nK_grid=1\nvalue_scheme=bogus\n", "unknown value scheme 'bogus'"),
            ("b=2\np=2\nL=4\nK_grid=1,1\n", "K listed more than once: [1]"),
            ("b=2\np=2\nL=4\nK_grid=1\nalgorithms=tsgbomp,tsgbomp\n",
             "algorithm listed more than once: ['tsgbomp']"),
            ("b=5\np=2\nL=4\nK_grid=1\nalgorithms=bomp\n",
             "n=48 must be divisible by the window length 10"),
            ("m=0\nb=2\np=2\nL=4\nK_grid=1\n", "m must be >= 1, got 0"),
            ("n=0\nm=0\nb=2\np=2\nL=4\nK_grid=0\n", "n must be >= 1, got 0"),
            ("b=2\np=2\nL=4\nK_grid=1\nmatrix_kind=identity\n",
             "unknown config key 'matrix_kind'"),
        ],
        ids=["negative-K", "window-below-capacity", "negative-amplitude", "unknown-scheme",
             "repeated-K", "repeated-algorithm", "bomp-block-divisibility", "m-zero", "n-zero",
             "matrix-kind"],
    )
    def test_bad_grid_or_window_exits_one_before_writing(
        self, tmp_path, capsys, geometry, message
    ):
        # each used to fail in the middle of the run, after --out was written;
        # a row's lines replace the base config's lines of the same keys
        fields = dict(n="48", m="48", trials="2", master_seed="5")
        fields.update(line.split("=") for line in geometry.splitlines())
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("".join(f"{key}={value}\n" for key, value in fields.items()))
        out = tmp_path / "curve.csv"
        code = main(["curve", "--config", str(cfg), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_module_run_gives_the_same_csv_at_two_jobs(self, tmp_path):
        # the spawned workers re-import tsgbomp.cli as their main module
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("n=48\nm=48\nb=2\np=2\nL=4\nK_grid=1,2\ntrials=6\nmaster_seed=5\n")
        env = {**os.environ, "PYTHONPATH": str(Path(tsgbomp.__file__).parents[1])}
        one, two = (
            subprocess.run([sys.executable, "-m", "tsgbomp.cli", "curve", "--config", str(cfg),
                            "--jobs", jobs], env=env, capture_output=True, text=True,
                           check=True, timeout=120)
            for jobs in ("1", "2")
        )
        assert one.stdout.startswith("K,algorithm,success_rate,trials\n")
        assert two.stdout == one.stdout
        assert two.stderr == ""


class TestTheoremSuiteCommand:
    def test_runs_and_reports(self, capsys):
        code = main(["theorem-suite", "--count", "3", "--seed", "1"])
        out = capsys.readouterr().out
        assert "certified:" in out
        assert code == 0

    def test_no_certified_instance_exits_one(self, monkeypatch, capsys):
        # recovery of every certified instance holds vacuously when there is
        # none, so that run checked nothing
        monkeypatch.setattr(experiments, "pibric",
                            lambda *args: RicEstimate(delta=0.9, argmax=None, count=1))
        code = main(["theorem-suite", "--count", "3", "--seed", "1"])
        assert capsys.readouterr().out == (
            "instances: 3\ncertified: 0\nrecovered: 0\nno certified instances found\n"
        )
        assert code == 1


class TestUsageErrors:
    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["count", "--n", "5", "--b", "1", "--p", "1", "--lsep", "2",
                  "--K", "2", "--R", "0", "--bogus", "1"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "argv, window",
        [
            (["gen-signal", "--n", "16", "--K", "1", "--seed", "0", "--out", "x.csv"], "--L"),
            (["count", "--n", "16", "--K", "1", "--R", "0"], "--lsep"),
            (["ric", "--matrix", "phi.bin", "--K", "1", "--R", "0"], "--lsep"),
        ],
        ids=["gen-signal", "count", "ric"],
    )
    def test_missing_window_geometry_exits_two(self, argv, window, capsys):
        # each command spells the window one way: gen-signal the length,
        # count and ric the separation
        with pytest.raises(SystemExit) as err:
            main([*argv, "--b", "1", "--p", "1"])
        assert err.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"error: the following arguments are required: {window}\n"
        )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["recover", "--alg", "bomp", "--matrix", "phi.bin", "--y", "y.csv",
              "--iterations", "1", "--L", "7", "--B", "4", "--eps", "0"],
             "--L applies to --alg tsgbomp only"),
            (["recover", "--alg", "tsgbomp", "--matrix", "phi.bin", "--y", "y.csv",
              "--iterations", "1", "--B", "4", "--eps", "0"],
             "--L is required for --alg tsgbomp"),
            (["gbounds", "--a", "0.5", "--K", "4", "--b", "1", "--trials", "10"],
             "--seed is required when --trials is set"),
        ],
        ids=["recover-bomp-L", "recover-tsgbomp-no-L", "gbounds-trials-no-seed"],
    )
    def test_check_after_parsing_prints_the_command_usage(self, argv, message, capsys):
        # main() makes these checks after parsing, and reports them with
        # the command's usage line, as argparse reports its own errors
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        out, err_text = capsys.readouterr()
        assert out == ""
        assert err_text.startswith(f"usage: tsgbomp {argv[0]} [-h]")
        assert err_text.endswith(f"tsgbomp {argv[0]}: error: {message}\n")

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    @pytest.mark.parametrize(
        "argv, message",
        [
            # ric has no workers, so any --jobs is a usage error
            (["ric", "--matrix", "phi.bin", "--b", "1", "--p", "1", "--lsep", "2",
              "--K", "1", "--R", "0"], "unrecognized arguments: --jobs {jobs}"),
            (["curve", "--config", "exp.cfg"],
             "--jobs: value must be >= 1, got {jobs}"),
        ],
        ids=["ric", "curve"],
    )
    def test_jobs_below_one_exits_two(self, argv, message, jobs, capsys):
        # a worker count below 1 used to run serially without a word
        with pytest.raises(SystemExit) as err:
            main([*argv, "--jobs", jobs])
        assert err.value.code == 2
        assert message.format(jobs=jobs) in capsys.readouterr().err

    def test_ric_takes_no_jobs(self, capsys):
        # the scan is one serial descent per cell, with no workers to count
        with pytest.raises(SystemExit) as err:
            main(["ric", "--matrix", "phi.bin", "--b", "1", "--p", "1", "--lsep", "2",
                  "--K", "1", "--R", "0", "--jobs", "2"])
        assert err.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    def test_geometry_error_reported(self, capsys):
        code = main(["gen-signal", "--n", "3", "--b", "2", "--p", "1", "--L", "2",
                     "--K", "2", "--seed", "0", "--out", "/tmp/never.csv"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_gen_signal_gaussian_takes_no_amplitude(self, tmp_path, capsys):
        # the gaussian scheme draws standard-normal values; only const:<amplitude>
        # carries an amplitude
        out = tmp_path / "g.csv"
        code = main(["gen-signal", "--n", "24", "--b", "2", "--p", "2", "--L", "4", "--K", "1",
                     "--seed", "1", "--scheme", "gaussian:3", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: unknown value scheme 'gaussian:3'\n"
        assert not out.exists()

    @pytest.mark.parametrize("scheme", ["const", "bogus"])
    def test_gen_signal_refuses_a_scheme_as_a_config_does(self, scheme, tmp_path, capsys):
        # --scheme is the string a curve config's value_scheme holds
        out = tmp_path / "x.csv"
        code = main(["gen-signal", "--n", "24", "--b", "2", "--p", "2", "--L", "4", "--K", "1",
                     "--seed", "1", "--scheme", scheme, "--out", str(out)])
        assert code == 1 and not out.exists()
        with pytest.raises(ValueError) as refused:
            ExperimentConfig(n=24, m=24, b=2, p=2, L=4, K_grid=(1,), value_scheme=scheme)
        assert capsys.readouterr().err == f"error: {refused.value}\n"
        assert str(refused.value) == f"unknown value scheme {scheme!r}"

    def test_recover_lists_every_algorithm(self):
        # the CLI names the algorithms without importing experiments
        from tsgbomp import experiments
        from tsgbomp.cli import build_parser

        sub = next(a for a in build_parser()._actions if a.dest == "command")
        alg = next(a for a in sub.choices["recover"]._actions if a.dest == "alg")
        assert tuple(alg.choices) == experiments.ALGORITHMS

    def test_gen_signal_takes_no_pseudo_length(self, capsys):
        # signals are pseudo-free, so gen-signal has no --l
        with pytest.raises(SystemExit) as err:
            main(["gen-signal", "--n", "16", "--b", "2", "--p", "2", "--L", "4",
                  "--K", "2", "--seed", "0", "--out", "x.csv", "--l", "2"])
        assert err.value.code == 2
        assert "unrecognized arguments: --l 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,typo",
        [
            (["lemmas", "--matrix", "phi.bin", "--b", "2", "--p", "2", "--lsep", "10",
              "--K", "2", "--R", "2", "--seed", "0"], "--l"),
            (["ric", "--matrix", "phi.bin", "--b", "1", "--p", "1", "--lsep", "2",
              "--K", "1", "--R", "0"], "--ca"),
        ],
        ids=["lemmas-l", "ric-ca"],
    )
    def test_abbreviated_option_exits_two(self, argv, typo, capsys):
        # a prefix must not stand in for a full option (--l for --lsep)
        with pytest.raises(SystemExit) as err:
            main([*argv, typo, "4"])
        assert err.value.code == 2
        assert f"unrecognized arguments: {typo} 4" in capsys.readouterr().err


class TestFileErrors:
    @pytest.mark.parametrize(
        "argv, path",
        [
            (["ric", "--matrix", "{tmp}/nope.bin", "--b", "1", "--p", "1", "--lsep", "2",
              "--K", "1", "--R", "0"], "{tmp}/nope.bin"),
            (["gen-matrix", "--m", "4", "--n", "6", "--seed", "0",
              "--out", "{tmp}/nodir/phi.bin"], "{tmp}/nodir/phi.bin"),
        ],
        ids=["missing-input", "unwritable-output"],
    )
    def test_file_error_exits_one(self, argv, path, tmp_path, capsys):
        # an OSError is reported as any refused input is, not as a traceback
        code = main([arg.format(tmp=tmp_path) for arg in argv])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err == f"error: [Errno 2] No such file or directory: '{path.format(tmp=tmp_path)}'\n"


FUZZ_VALUES = ["-3", "0", "nan", "inf", "-inf"]

# Every numeric option of the parser, the amplitude of gen-signal's const
# scheme, and the one numeric key of a curve config, with the values of
# FUZZ_VALUES inside its domain and the type its parser reads it with:
# float, int, or at_least_one or at_least_zero, which refuse every value of
# FUZZ_VALUES outside the domain. The legitimate zeros are named here. An
# option a command no longer takes has type None: every value is a usage
# error, so a command line written for it cannot run.
DOMAINS = {
    ("gen-signal", "--n"): (set(), int),
    ("gen-signal", "--b"): (set(), int),
    ("gen-signal", "--p"): (set(), int),
    ("gen-signal", "--L"): (set(), int),
    ("gen-signal", "--lsep"): (set(), None),  # the window is --L only
    ("gen-signal", "--K"): ({"0"}, int),  # the zero signal
    ("gen-signal", "--amplitude"): (set(), None),  # now --scheme const:<amplitude>
    ("gen-signal", "--scheme=const:"): (set(), float),
    ("gen-signal", "--seed"): ({"0"}, at_least_zero),
    ("gen-matrix", "--m"): (set(), int),
    ("gen-matrix", "--n"): (set(), int),
    ("gen-matrix", "--seed"): ({"0"}, at_least_zero),
    ("recover", "--K"): (set(), None),  # the budget is --iterations, not a signal's K
    ("recover", "--iterations"): ({"0"}, int),  # no iteration: the zero estimate
    ("recover", "--L"): (set(), int),
    ("recover", "--b"): (set(), None),  # b and p give way to the width B = p*b
    ("recover", "--p"): (set(), None),
    ("recover", "--B"): (set(), int),
    ("recover", "--eps"): ({"0"}, float),  # a zero threshold: stop at the floor
    ("ric", "--b"): (set(), int),
    ("ric", "--p"): (set(), int),
    ("ric", "--L"): (set(), None),  # the window is --lsep only
    ("ric", "--lsep"): (set(), int),
    ("ric", "--l"): ({"0"}, int),  # pseudo blocks of no column
    ("ric", "--K"): ({"0"}, int),  # pseudo blocks only
    ("ric", "--R"): ({"0"}, int),  # blocks only
    ("ric", "--cap"): (set(), at_least_one),
    ("lemmas", "--b"): (set(), int),
    ("lemmas", "--p"): (set(), int),
    ("lemmas", "--lsep"): (set(), int),
    ("lemmas", "--K"): ({"0"}, int),
    ("lemmas", "--R"): ({"0"}, int),
    ("lemmas", "--cell-cap"): (set(), at_least_one),
    ("lemmas", "--seed"): ({"0"}, at_least_zero),
    ("count", "--n"): (set(), int),
    ("count", "--b"): (set(), int),
    ("count", "--p"): (set(), int),
    ("count", "--L"): (set(), None),  # the window is --lsep only
    ("count", "--lsep"): (set(), int),
    ("count", "--l"): ({"0"}, int),
    ("count", "--K"): ({"0"}, int),
    ("count", "--R"): ({"0"}, int),
    ("thm1", "--delta"): ({"0"}, float),  # in [0, 1)
    ("thm1", "--K"): (set(), int),
    ("thm1", "--b"): (set(), int),
    ("thm1", "--p"): (set(), int),
    ("thm1", "--eps"): ({"0"}, float),  # noiseless
    ("thm1", "--xmin"): (set(), float),  # finite, 0 < x_min <= x_max
    ("thm1", "--xmax"): (set(), float),
    ("thm2", "--b"): (set(), int),
    ("thm2", "--p"): (set(), int),
    ("thm2", "--L"): (set(), int),
    ("thm2", "--K"): (set(), int),
    ("thm2", "--R"): ({"0"}, int),  # no pseudo blocks
    ("thm2", "--m"): (set(), int),
    ("thm2", "--n"): (set(), int),
    ("thm2", "--eps0"): ({"-3", "0"}, float),  # any finite value; the range is a flag
    ("thm2", "--eps"): ({"0"}, float),  # -3 takes nu + eps below 0, outside f_K
    ("gbounds", "--a"): ({"0"}, float),  # a ratio in [0, 1]
    ("gbounds", "--K"): (set(), int),
    ("gbounds", "--b"): (set(), int),
    ("gbounds", "--trials"): ({"0"}, at_least_zero),  # no Monte Carlo estimate
    ("gbounds", "--seed"): ({"0"}, at_least_zero),
    ("curve", "--jobs"): (set(), at_least_one),
    ("curve", "epsilon"): ({"0"}, float),  # the config key
    ("theorem-suite", "--count"): (set(), at_least_one),
    ("theorem-suite", "--seed"): ({"0"}, at_least_zero),
}

# The message of each refusal pinned so far, by (command, option, value).
MESSAGES = {
    ("thm2", "--eps", "-3"): "error: eps must be >= -nu = ",
    ("thm1", "--xmin", "inf"): "error: need finite 0 < x_min <= x_max, got x_min=inf",
    ("thm1", "--xmax", "-3"): "error: need finite 0 < x_min <= x_max, got x_min=1.0, x_max=-3.0",
    ("thm1", "--eps", "inf"): "error: epsilon must be finite and >= 0, got inf",
    ("thm2", "--m", "0"): "error: m must be >= 1, got 0",
    ("gbounds", "--b", "-3"): "error: b must be >= 1, got -3",
    ("gen-signal", "--scheme=const:", "-inf"): "error: amplitude must be finite and > 0, got -inf",
    ("recover", "--B", "0"): "error: B must be >= 1, got 0",
    ("recover", "--iterations", "-3"): "error: iterations must be >= 0, got -3",
}


class TestNumericDomains:
    """Each option above, set to each value of FUZZ_VALUES in an otherwise
    valid command line: exit 0 inside its domain, 2 for a value its type
    does not parse or refuses, and 1 for any other value, never with a
    traceback and with the message MESSAGES pins. The value is passed as
    --option=value, since argparse reads a lone -inf as an option, or
    appended to an option that ends in a colon (--scheme=const:)."""

    # passes both conditions: at delta = 0 the threshold is 0
    THM1 = ["thm1", "--delta", "0", "--K", "2", "--b", "2", "--p", "2", "--xmin", "1", "--xmax", "2"]
    # valid command lines whose options are replaced one at a time
    GEOMETRY = ["--b", "2", "--p", "2", "--lsep", "10", "--l", "2", "--K", "1", "--R", "1"]
    BASE = {
        "gen-signal": ["gen-signal", "--n", "24", "--b", "2", "--p", "2", "--L", "4", "--K", "1",
                       "--seed", "1", "--out", "out.csv"],
        "gen-matrix": ["gen-matrix", "--m", "6", "--n", "8", "--seed", "1", "--out", "out.csv"],
        "recover": ["recover", "--matrix", "phi.bin", "--y", "y.csv", "--iterations", "2",
                    "--L", "4", "--B", "4", "--eps", "1e-8"],
        "thm1": THM1,
        "thm2": TestThm2.README,
        "ric": ["ric", "--matrix", "phi.bin", *GEOMETRY],
        "count": ["count", "--n", "24", *GEOMETRY],
        "lemmas": ["lemmas", "--matrix", "phi.bin", "--b", "2", "--p", "2", "--lsep", "4",
                   "--K", "1", "--R", "1", "--seed", "1"],
        "gbounds": ["gbounds", "--a", "0.5", "--K", "2", "--b", "2", "--seed", "1"],
        "curve": ["curve", "--config", "exp.cfg", "--out", "out.csv"],
        "theorem-suite": ["theorem-suite", "--count", "1", "--seed", "1"],
    }
    FILES = ("phi.bin", "y.csv", "exp.cfg", "out.csv")

    def command(self, name, option, value, tmp_path):
        setting = f"{option}{value}" if option.endswith(":") else f"{option}={value}"
        mat = gaussian_matrix(24, 32, "unit", True, np.random.default_rng(0))
        (tmp_path / "phi.bin").write_bytes(matrix_to_binary(mat))
        x = np.zeros(32)
        x[8:12] = 5.0
        (tmp_path / "y.csv").write_text(signal_to_csv(mat.entries @ x))
        config = "n=48\nm=48\nb=2\np=2\nL=4\nK_grid=1\ntrials=1\nmaster_seed=5\n"
        argv = [str(tmp_path / arg) if arg in self.FILES else arg for arg in self.BASE[name]]
        if option.startswith("--"):
            if option in argv:
                del argv[argv.index(option) : argv.index(option) + 2]
            argv.append(setting)
        else:  # a config key
            config += f"{setting}\n"
        (tmp_path / "exp.cfg").write_text(config)
        return argv

    @pytest.mark.parametrize("value", FUZZ_VALUES)
    @pytest.mark.parametrize("name, option", list(DOMAINS), ids=[" ".join(k) for k in DOMAINS])
    def test_exit_code_follows_the_domain(self, name, option, value, tmp_path, capsys):
        inside, kind = DOMAINS[name, option]
        if value in inside:
            expected = 0
        elif kind in (None, at_least_one, at_least_zero) or kind is int and value in (
            "nan", "inf", "-inf"
        ):
            expected = 2
        else:
            expected = 1
        try:
            code = main(self.command(name, option, value, tmp_path))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert code == expected, err
        assert "Traceback" not in err
        if code:
            assert out == ""
        if code == 1:
            assert err.startswith(MESSAGES.get((name, option, value), "error: "))
            assert not (tmp_path / "out.csv").exists()


class TestBlasThreads:
    VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

    def run_unpinned(self, *args, **preset):
        """Run Python on `args` with no BLAS variable set but `preset`."""
        env = {k: v for k, v in os.environ.items() if k not in self.VARS}
        env["PYTHONPATH"] = str(Path(tsgbomp.__file__).parents[1])
        env.update(preset)
        return subprocess.run([sys.executable, *args], env=env,
                              capture_output=True, text=True, check=True, timeout=120)

    def threads_after_import(self, **preset):
        code = f"import os, tsgbomp; print(*(os.environ[v] for v in {self.VARS!r}))"
        return self.run_unpinned("-c", code, **preset).stdout.split()

    def test_import_pins_one_thread(self):
        assert self.threads_after_import() == ["1", "1", "1"]

    def test_user_setting_is_kept(self):
        assert self.threads_after_import(OPENBLAS_NUM_THREADS="3") == ["3", "1", "1"]

    # a two-worker curve checked against one worker, then the BLAS thread
    # count that each worker of a two-worker pool reads from the library
    CURVE = """
import os, time
from ctypes import CDLL, c_int
from tsgbomp import experiments, workers

def blas_threads(_):
    time.sleep(0.25)  # so that the second worker takes tasks too
    get = getattr(CDLL({lib!r}), {getter!r})
    get.argtypes, get.restype = [], c_int
    return os.getpid(), get()

if __name__ == "__main__":
    config = experiments.ExperimentConfig(
        n=16, m=12, b=2, p=1, L=4, K_grid=(1, 2), trials=4, master_seed=0)
    for jobs in (2, 1):
        print(experiments.curve_to_csv(experiments.run_curve(config, jobs=jobs)))
    with workers.worker_map(2) as mapper:
        print(*sorted(dict(mapper(blas_threads, range(8))).values()))
"""

    @pytest.mark.parametrize("imports", ["import numpy, tsgbomp", "import tsgbomp, numpy"],
                             ids=["numpy-first", "package-first"])
    def test_every_worker_runs_one_blas_thread(self, imports, tmp_path):
        # workers start fresh with the package's pin in their environment,
        # so it holds in each of them even where numpy loaded first here
        openblas = bundled_openblas()
        if openblas is None:
            pytest.skip("numpy bundles no OpenBLAS")
        lib, getter = openblas
        script = tmp_path / "curve.py"
        script.write_text(imports + "\n" + self.CURVE.format(lib=lib, getter=getter))
        out = self.run_unpinned(str(script))
        two_jobs, one_job, threads = out.stdout.split("\n\n")
        assert two_jobs == one_job
        assert threads.split() and set(threads.split()) == {"1"}
        assert out.stderr == ""


def bundled_openblas():
    """The path of the OpenBLAS that numpy's wheel bundles and the name of its
    thread-count getter, or None."""
    for lib in sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("lib*openblas*.so*")):
        for getter in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(ctypes.CDLL(str(lib)), getter):
                return str(lib), getter
    return None
