import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tsgbomp import experiments
from tsgbomp.analysis import RicEstimate
from tsgbomp.experiments import (
    ALGORITHMS,
    REGIME_CONFIGS,
    CurvePoint,
    ExperimentConfig,
    check_curve,
    curve_to_csv,
    lemma_audit,
    run_curve,
    run_trial,
    theorem_regime_suite,
    trial_seed,
)
from tsgbomp.sensing import SensingMatrix, gaussian_matrix
from tsgbomp.signal_model import GeometryError, sample_support


# every key set, none to its default
CONFIG_TEXT = """\
n=48
m=48
b=2
p=2
L=4
K_grid=1,2
value_scheme=gaussian
trials=5
epsilon=1e-09
algorithms=bomp
master_seed=7
"""


def small_config(**kw):
    defaults = dict(
        n=48, m=32, b=2, p=2, L=4, K_grid=(1, 2), trials=5, master_seed=7
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestConfig:
    def test_round_trip_through_text(self):
        cfg = small_config(
            m=48, value_scheme="gaussian", epsilon=1e-9, algorithms=("bomp",),
        )
        assert ExperimentConfig.from_text(CONFIG_TEXT) == cfg

    def test_from_text_with_comments(self):
        text = "# comment\nn=48\nm=32\nb=2\np=2\nL=4\nK_grid=1,2\nmaster_seed=3\n"
        cfg = ExperimentConfig.from_text(text)
        assert cfg.K_grid == (1, 2)
        assert cfg.trials == 200  # default
        # list items are stripped: " bomp" used to be an unknown algorithm
        cfg = ExperimentConfig.from_text(text + "algorithms=tsgbomp, bomp\n")
        assert cfg.algorithms == ("tsgbomp", "bomp")

    def test_unknown_key_rejected(self):
        text = CONFIG_TEXT + "trails=1000\n"
        with pytest.raises(ValueError, match="unknown config key 'trails'"):
            ExperimentConfig.from_text(text)
        # every trial draws a Gaussian matrix; there is no matrix setting
        with pytest.raises(ValueError, match="unknown config key 'matrix_kind'"):
            ExperimentConfig.from_text(CONFIG_TEXT + "matrix_kind=identity\n")

    def test_missing_key_rejected(self):
        text = CONFIG_TEXT.replace("m=48\n", "").replace("master_seed=7\n", "")
        with pytest.raises(ValueError, match=r"^config missing keys: \['m', 'master_seed'\]$"):
            ExperimentConfig.from_text(text)

    def test_repeated_key_rejected(self):
        text = CONFIG_TEXT + "master_seed=8\n"
        with pytest.raises(ValueError, match="'master_seed' given twice"):
            ExperimentConfig.from_text(text)

    @pytest.mark.parametrize(
        "line,match",
        [
            ("K_grid=1,,3", r"'K_grid': empty item in '1,,3'"),
            ("K_grid=1,2,", r"'K_grid': empty item"),
            ("K_grid=,1", r"'K_grid': empty item"),
            ("K_grid=1, ,3", r"'K_grid': empty item"),
            ("K_grid=", r"'K_grid': empty list"),
            ("algorithms=", r"'algorithms': empty list"),
            ("algorithms=tsgbomp,,bomp", r"'algorithms': empty item"),
        ],
    )
    def test_empty_list_item_rejected(self, line, match):
        # an empty item was dropped, so K_grid=1,,3 read as (1, 3) and an
        # empty list gave a run with no points
        text = "n=48\nm=32\nb=2\np=2\nL=4\nmaster_seed=3\n" + line + "\n"
        if not line.startswith("K_grid"):
            text += "K_grid=1,2\n"
        with pytest.raises(ValueError, match=match):
            ExperimentConfig.from_text(text)

    def test_unparsable_value_names_its_key(self):
        with pytest.raises(ValueError, match="config key 'trials'"):
            ExperimentConfig.from_text(CONFIG_TEXT.replace("trials=5", "trials=five"))

    def test_infeasible_K_rejected(self):
        with pytest.raises(ValueError, match="infeasible"):
            small_config(K_grid=(1, 50))

    def test_repeated_K_or_algorithm_rejected(self):
        # a repeated entry ran its trials once per listing and reported
        # each point that many times over
        with pytest.raises(ValueError, match=r"K listed more than once: \[1\]"):
            small_config(K_grid=(1, 2, 1))
        with pytest.raises(ValueError, match=r"algorithm listed more than once: \['bomp'\]"):
            small_config(algorithms=("bomp", "tsgbomp", "bomp"))

    @pytest.mark.parametrize("key, name", [("K_grid", "K"), ("algorithms", "algorithm")])
    def test_empty_grid_rejected(self, key, name):
        # from_text refuses an empty list; a config built in code ran no
        # trial and wrote a header-only CSV
        with pytest.raises(ValueError, match=f"^no {name} listed$"):
            small_config(**{key: ()})

    def test_window_length_zero_rejected(self):
        with pytest.raises(ValueError, match="L must be >= 1, got 0"):
            small_config(L=0)

    def test_window_below_cluster_capacity_rejected_only_for_tsgbomp(self):
        # L = 2 < p*b = 4: tsgbomp's windows cannot hold a cluster, while
        # bomp never reads L
        with pytest.raises(ValueError, match="window length L=2 must be at least B=p\\*b=4"):
            small_config(L=2)
        assert small_config(L=2, algorithms=("bomp",)).L == 2

    def test_window_divisibility_binds_tsgbomp_only(self):
        # n=52 is a multiple of p*b = 4 but not of L = 8: bomp's blocks tile
        # it, tsgbomp's windows do not
        bomp_only = small_config(n=52, L=8, K_grid=(1,), trials=2, algorithms=("bomp",))
        points = run_curve(bomp_only)
        assert [(pt.K, pt.algorithm, pt.trials) for pt in points] == [(1, "bomp", 2)]
        with pytest.raises(ValueError, match="^n=52 must be divisible by the window length 8$"):
            small_config(n=52, L=8, K_grid=(1,), algorithms=("bomp", "tsgbomp"))

    @pytest.mark.parametrize(
        "scheme,match",
        [
            ("const:-5", "amplitude must be finite and > 0, got -5.0"),
            ("const:0", "amplitude must be finite and > 0"),
            ("const:nan", "amplitude must be finite and > 0, got nan"),
            ("const:inf", "amplitude must be finite and > 0, got inf"),
            ("const:", "unknown value scheme 'const:'"),
            ("const:ten", "unknown value scheme 'const:ten'"),
            ("const", "unknown value scheme 'const'"),
            ("bogus", "unknown value scheme 'bogus'"),
        ],
    )
    def test_bad_value_scheme_rejected(self, scheme, match):
        # a bad scheme used to fail only in the first trial
        with pytest.raises(ValueError, match=match):
            small_config(value_scheme=scheme)

    @pytest.mark.parametrize("scheme", ["gaussian", "const:10", "const:0.5"])
    def test_value_schemes_accepted(self, scheme):
        assert small_config(value_scheme=scheme).value_scheme == scheme

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            small_config(algorithms=("tsgbomp", "omp"))


class TestFeasibility:
    def test_published_grid_limits(self):
        for p, last in ((2, 15), (1, 13)):
            geometry = dict(n=200, m=120, b=4, p=p, L=8)
            assert ExperimentConfig(**geometry, K_grid=(last,)).K_grid == (last,)
            with pytest.raises(ValueError, match=f"K={last + 1} infeasible"):
                ExperimentConfig(**geometry, K_grid=(last + 1,))

    def test_accepts_exactly_the_K_the_sampler_draws(self):
        rng = np.random.default_rng(0)
        verdicts = set()
        for b, p, L, windows, K in itertools.product(
            (1, 2, 3), (1, 2), (2, 4, 6, 8), (1, 2, 3, 5), range(8)
        ):
            if L < p * b:
                continue
            n = L * windows
            probe = ExperimentConfig(n=n, m=n, b=b, p=p, L=L, K_grid=(0,), algorithms=("tsgbomp",))
            try:
                sample_support(probe.params_for(K), K, rng)
                draws = True
            except GeometryError:
                draws = False
            try:
                ExperimentConfig(n=n, m=n, b=b, p=p, L=L, K_grid=(K,), algorithms=("tsgbomp",))
                accepted = True
            except ValueError as exc:
                assert str(exc).startswith(f"K={K} infeasible: needs "), exc
                accepted = False
            assert accepted == draws, (n, b, p, L, K)
            verdicts.add(accepted)
        assert verdicts == {True, False}

    def test_zero_blocks_always_fit(self):
        # K = 0 needs -Lsep indices: the smallest window geometry holds it
        config = ExperimentConfig(n=8, m=8, b=4, p=2, L=8, K_grid=(0,))
        assert config.K_grid == (0,)


class TestTrials:
    def test_seed_derivation_is_stable(self):
        assert trial_seed(7, 3, "tsgbomp", 11) == 13825836463410059764
        assert trial_seed(7, 3, "tsgbomp", 11) == trial_seed(7, 3, "tsgbomp", 11)
        assert trial_seed(7, 3, "tsgbomp", 11) != trial_seed(7, 3, "bomp", 11)

    def test_cli_import_loads_no_hashlib(self):
        # hashlib loads OpenSSL's libcrypto, which only a trial seed needs
        code = "import sys, tsgbomp.cli; print('_hashlib' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(experiments.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True, timeout=120)
        assert out.stdout.strip() == "False"

    def test_trial_reproducible(self):
        cfg = small_config()
        a = run_trial(cfg, 2, "tsgbomp", 12345)
        b = run_trial(cfg, 2, "tsgbomp", 12345)
        assert (a.success, a.iterations, a.rel_error) == (
            b.success,
            b.iterations,
            b.rel_error,
        )

    @pytest.mark.parametrize("b, p", [(-2, 1), (0, 2), (2, 0)])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_solve_rejects_block_or_cluster_below_one(self, algorithm, b, p):
        # solve reads only the width B = b * p, which is below 1 here; b and
        # p themselves are refused where they are read: the config and the
        # command line
        Phi = SensingMatrix(np.eye(8), normalized=True)
        with pytest.raises(ValueError, match=f"^B must be >= 1, got {b * p}$"):
            experiments.solve(algorithm, Phi, np.ones(8), 1, 4, b * p, 0.0)

    def test_pinned_fixture(self):
        cfg = ExperimentConfig(
            n=200, m=160, b=4, p=2, L=8, K_grid=(2,), trials=1, master_seed=0
        )
        rec = run_trial(cfg, 2, "tsgbomp", 42)
        assert rec.success
        assert rec.iterations == 2
        assert rec.rel_error < 1e-12


class TestCurves:
    def test_row_count(self):
        cfg = small_config()
        pts = run_curve(cfg)
        assert len(pts) == len(cfg.K_grid) * len(cfg.algorithms)

    def test_jobs_do_not_change_results(self, tmp_path):
        cfg = small_config(trials=6)
        out1 = tmp_path / "curve1.csv"
        out2 = tmp_path / "curve2.csv"
        run_curve(cfg, jobs=1, out_path=str(out1))
        run_curve(cfg, jobs=2, out_path=str(out2))
        assert out1.read_bytes() == out2.read_bytes()

    def test_interrupt_flushes_finished_points(self, tmp_path, monkeypatch):
        cfg = small_config(trials=2, algorithms=("tsgbomp",))
        out = tmp_path / "curve.csv"
        started, seen = [], []

        def interrupted(*task):
            if len(started) == cfg.trials:
                # the second point's first trial: the first point's row is on disk
                seen.append(out.read_text())
                raise KeyboardInterrupt
            started.append(task)
            return run_trial(*task)

        monkeypatch.setattr(experiments, "run_trial", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_curve(cfg, jobs=1, out_path=str(out))
        assert seen == [out.read_text()]
        lines = out.read_text().splitlines()
        assert lines[0] == "K,algorithm,success_rate,trials"
        assert [ln.split(",")[:2] for ln in lines[1:]] == [["1", "tsgbomp"]]
        assert lines[1].endswith(",2")

    def test_unwritable_out_raises_before_any_trial(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(experiments, "run_trial", lambda *task: calls.append(task))
        out = tmp_path / "missing" / "curve.csv"
        with pytest.raises(OSError):
            run_curve(small_config(trials=1), jobs=1, out_path=str(out))
        assert calls == [] and not out.parent.exists()

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_raises_before_writing(self, tmp_path, jobs):
        out = tmp_path / "curve.csv"
        with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
            run_curve(small_config(trials=1), jobs=jobs, out_path=str(out))
        assert not out.exists()

    def test_csv_format(self):
        pts = [CurvePoint(K=1, algorithm="tsgbomp", success_rate=0.5, trials=2)]
        csv = curve_to_csv(pts)
        lines = csv.splitlines()
        assert lines[0] == "K,algorithm,success_rate,trials"
        assert lines[1] == "1,tsgbomp,0.5,2"

    def test_check_curve_flags_rises(self):
        pts = [
            CurvePoint(1, "tsgbomp", 0.5, 10),
            CurvePoint(2, "tsgbomp", 0.9, 10),
        ]
        violations = check_curve(pts)
        assert violations and "rises" in violations[0]
        assert not check_curve(
            [CurvePoint(1, "tsgbomp", 0.9, 10), CurvePoint(2, "tsgbomp", 0.88, 10)]
        )


class TestLemmaAudit:
    def test_first_report_audits_one_matrix(self, monkeypatch):
        calls = []
        monkeypatch.setattr(experiments, "_audit_matrix", calls.append)
        next(lemma_audit(5))
        assert calls == [0]

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_raises_before_matrix_zero(self, monkeypatch, jobs):
        calls = []
        monkeypatch.setattr(experiments, "_audit_matrix", calls.append)
        with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
            next(lemma_audit(5, jobs=jobs))
        assert calls == []


class TestTheoremRegime:
    def test_count_below_one_raises(self):
        for count in (0, -3):
            with pytest.raises(ValueError, match=f"count must be >= 1, got {count}"):
                theorem_regime_suite(count, np.random.default_rng(0))

    def test_small_run_all_recovered(self):
        rep = theorem_regime_suite(6, np.random.default_rng(3))
        assert rep.attempted == 6
        assert rep.certified >= 1
        assert rep.all_recovered, rep.render()

    def test_uncertified_instances_draw_no_signal(self, monkeypatch):
        # a constant of 0.9 clears no threshold: each instance draws its
        # matrix and nothing else, and the report says none was certified
        monkeypatch.setattr(experiments, "pibric",
                            lambda *args: RicEstimate(delta=0.9, argmax=None, count=1))
        rng = np.random.default_rng(0)
        rep = theorem_regime_suite(4, rng)
        assert rep.attempted == 4
        assert rep.certified == 0
        assert rep.render().endswith("no certified instances found\n")
        matrices_only = np.random.default_rng(0)
        for i in range(4):
            cfg = REGIME_CONFIGS[i % len(REGIME_CONFIGS)]
            gaussian_matrix(cfg.m, cfg.n, "one_over_m", True, matrices_only)
        assert rng.bit_generator.state == matrices_only.bit_generator.state

    def test_certified_instances_have_valid_constant(self):
        rep = theorem_regime_suite(4, np.random.default_rng(1))
        for inst in rep.instances:
            if inst.certified:
                assert inst.delta < 1.0 / np.sqrt(2 * inst.config.K + 1)
