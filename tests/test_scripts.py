"""The experiment scripts, run as a user runs them."""

import subprocess
import sys
from dataclasses import replace
from pathlib import Path

from tsgbomp.experiments import ExperimentConfig, curve_to_csv, run_curve

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True, text=True, timeout=300,
    )


class TestRunLemmaAudit:
    def test_two_jobs_print_what_one_job_prints(self):
        serial = run_script("run_lemma_audit.py", "--matrices", "6")
        pooled = run_script("run_lemma_audit.py", "--matrices", "6", "--jobs", "2")
        assert serial.returncode == pooled.returncode == 0, pooled.stderr
        one, two = serial.stdout.splitlines(), pooled.stdout.splitlines()
        # every line but the tally before the hash, which carries the time
        assert one[:-2] + one[-1:] == two[:-2] + two[-1:]

    def test_jobs_below_one_exits_two(self):
        proc = run_script("run_lemma_audit.py", "--matrices", "1", "--jobs", "0")
        assert proc.returncode == 2 and proc.stdout == ""
        assert "--jobs: value must be >= 1, got 0" in proc.stderr

    def test_matrices_below_one_exits_two(self):
        proc = run_script("run_lemma_audit.py", "--matrices", "-5")
        assert proc.returncode == 2 and proc.stdout == ""
        assert "--matrices: value must be >= 1, got -5" in proc.stderr


class TestRunPhaseTransition:
    def test_writes_every_config_curve(self, tmp_path):
        proc = run_script(
            "run_phase_transition.py", "--trials", "2", "--jobs", "1",
            "--out-dir", str(tmp_path),
        )
        assert proc.returncode == 0, proc.stderr
        assert sorted(f.name for f in tmp_path.iterdir()) == [
            "curve_n200_m120_b4_p1_L8.csv",
            "curve_n200_m120_b4_p2_L8.csv",
            "curve_n200_m160_b4_p1_L8.csv",
            "curve_n200_m160_b4_p2_L8.csv",
        ]
        config = ExperimentConfig.from_text((SCRIPTS / "configs" / "fig_m160_p2.cfg").read_text())
        expected = curve_to_csv(run_curve(replace(config, trials=2)))
        assert (tmp_path / "curve_n200_m160_b4_p2_L8.csv").read_text() == expected

    def test_jobs_below_one_exits_two(self, tmp_path):
        proc = run_script(
            "run_phase_transition.py", "--trials", "2", "--jobs", "-3",
            "--out-dir", str(tmp_path),
        )
        assert proc.returncode == 2 and list(tmp_path.iterdir()) == []
        assert "--jobs: value must be >= 1, got -3" in proc.stderr

    def test_trials_below_one_exits_two(self, tmp_path):
        out_dir = tmp_path / "results"
        proc = run_script("run_phase_transition.py", "--trials", "0", "--out-dir", str(out_dir))
        assert proc.returncode == 2 and proc.stdout == "" and not out_dir.exists()
        assert "--trials: value must be >= 1, got 0" in proc.stderr


class TestCheckOutputs:
    def test_quick_outputs_match_the_manifest(self):
        # the curve CSVs, ric stdout, the README examples, the ten-matrix
        # lemma audit and the quick scan fingerprint, to the byte
        proc = run_script("check_outputs.py", "--quick")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.splitlines()[-1] == "18 of 18 outputs match OUTPUTS.sha256"
