"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
import time
import types

import numpy as np
import pytest
from tsgbomp import analysis, signal_model

import layers
import run
import workloads
from conftest import BENCH, ROOT
from tracing import Target, Tracer

TINY = workloads.Scale(
    curve=dict(n=40, m=32, b=2, p=2, L=4),
    curve_K=(1, 2),
    curve_rounds=2,
    lemma_m=20,
    lemma=dict(n=24, b=1, p=1, l=3, L=2, K=2, R=2),
    lemma_samples=dict(support_samples=10, draws_sandwich=5, draws_projected=4,
                       draws_innerproduct=5),
    ric_matrix=(20, 30),
    ric=dict(b=2, p=1, l=0, lsep=4, K=2, R=0),
    lemma_ops=1,
    ric_ops=1,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_metric_tables_match_benchmark_json():
    assert _units("end_to_end") == run.END_TO_END
    assert _units("per_layer") == {k: unit for k, (unit, _) in layers.PER_LAYER.items()}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_is_emitted_and_checks_pass(name, in_tmp):
    result = workloads.run_workload(
        name, seed=5, seconds=0, trace=True, spawned_at=time.monotonic(),
        scale=TINY, workdir=in_tmp,
    )
    assert result["errors"] == []
    assert result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) | {"setup_s"} == set(_units("end_to_end"))
    assert set(result["layers"]) == set(_units("per_layer"))
    for value in list(result["metrics"].values()) + list(result["layers"].values()):
        assert math.isfinite(value)
    assert all(result["metrics"][k] > 0 for k in result["metrics"] if k != "recovery_rate.bomp")
    assert (in_tmp / workloads.OUT_DIR / f"spans-{name}-seed5.jsonl").is_file()


def test_layers_land_on_their_workloads(in_tmp):
    got = {
        name: workloads.run_workload(name, 5, 0, True, time.monotonic(), TINY, in_tmp)["layers"]
        for name in workloads.WORKLOADS
    }
    assert got["curve"]["recovery.lstsq_calls"] > 0
    assert got["curve"]["analysis.eig_submatrices"] == 0
    assert got["lemma_audit"]["analysis.eig_submatrices"] > 0
    assert got["lemma_audit"]["recovery.lstsq_calls"] == 0
    # the cell cache was filled during set-up, so nothing is enumerated
    assert got["lemma_audit"]["signal_model.supports_enumerated"] == 0
    assert got["ric_cold"]["signal_model.supports_enumerated"] > 0
    assert got["ric_cold"]["cli.startup_s"] > 0


@pytest.mark.parametrize(
    "targets", [layers.CURVE_TARGETS, layers.LEMMA_TARGETS, layers.RIC_CHILD_TARGETS]
)
def test_trace_wrappers_restore_the_original_attributes(targets):
    modules = {t.module: __import__(t.module, fromlist=["_"]) for t in targets}
    before = {(t.module, t.attr): getattr(modules[t.module], t.attr) for t in targets}
    with pytest.raises(RuntimeError):
        with Tracer().installed(targets):
            for (module, attr), original in before.items():
                assert getattr(modules[module], attr) is not original
            raise RuntimeError("leave the block early")
    for (module, attr), original in before.items():
        assert getattr(modules[module], attr) is original


def test_self_time_subtracts_children_and_generator_busy_time(monkeypatch):
    fake = types.ModuleType("fake_layer")

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.02)
        fake.inner()
        total = 0
        for i in fake.items(3):
            time.sleep(0.03)  # the consumer's time, not the generator's
            total += i
        return total

    def items(n):
        for i in range(n):
            time.sleep(0.01)
            yield i

    fake.inner, fake.outer, fake.items = inner, outer, items
    monkeypatch.setitem(sys.modules, "fake_layer", fake)
    tracer = Tracer()
    targets = (Target("fake_layer", "outer", "outer"), Target("fake_layer", "inner", "inner"),
               Target("fake_layer", "items", "items", generator=True))
    with tracer.installed(targets):
        with tracer.span("op", op=0):
            assert fake.outer() == 3
    spans = {s.name: (s, own) for s, own in zip(tracer.spans, tracer.self_times())}
    assert spans["items"][0].attrs == {"items": 3}
    assert 0.025 <= spans["items"][0].duration < 0.06
    assert all(s.op == 0 for s, _ in spans.values())
    outer_span, outer_self = spans["outer"]
    assert outer_self == pytest.approx(
        outer_span.duration - spans["inner"][0].duration - spans["items"][0].duration)
    assert 0.1 <= outer_self < 0.2  # own sleep plus the consumer's sleeps


def _ric_output(in_tmp):
    cold = workloads.RicCold(seed=2, scale=TINY, workdir=in_tmp)
    cold.setup()
    assert cold.op(0)
    return cold, cold.outputs[0], workloads.ric_reference(cold.Phi, cold.params)


def test_ric_reference_is_the_brute_force_maximum(in_tmp):
    cold = workloads.RicCold(seed=2, scale=TINY, workdir=in_tmp)
    cold.setup()
    p = cold.params
    supports = [s for s in signal_model.enumerate_supports(p, p.K, p.R) if s.columns]
    brute = max(analysis.operator_norm_dev(cold.Phi, s.columns) for s in supports)
    delta, count = workloads.ric_reference(cold.Phi, p)
    assert delta == pytest.approx(brute, rel=1e-12)
    assert count == len(signal_model.enumerate_supports(p, p.K, p.R))


def test_ric_check_accepts_a_true_output(in_tmp):
    cold, out, ref = _ric_output(in_tmp)
    assert workloads.ric_errors([out, out], cold.Phi, cold.params, ref) == []


def test_ric_check_rejects_a_wrong_delta(in_tmp):
    cold, out, ref = _ric_output(in_tmp)
    delta, _, _ = workloads.parse_ric(out)
    wrong = out.replace(f"delta = {delta}", f"delta = {float(delta) * (1 + 1e-9)!r}")
    assert wrong != out
    errors = workloads.ric_errors([wrong], cold.Phi, cold.params, ref)
    assert any("argmax support gives" in e for e in errors)
    assert any("brute-force maximum" in e for e in errors)
    # and a run that disagrees with the others
    errors = workloads.ric_errors([out, wrong], cold.Phi, cold.params, ref)
    assert any("differs across runs" in e for e in errors)


def test_ric_check_rejects_a_lower_delta_with_a_consistent_argmax(in_tmp):
    """A scan that skips supports prints a smaller delta that agrees with
    its own argmax; only the brute-force reference catches it."""
    cold, out, ref = _ric_output(in_tmp)
    p = cold.params
    delta, scanned, _ = workloads.parse_ric(out)
    devs = [(analysis.operator_norm_dev(cold.Phi, s.columns), s)
            for s in signal_model.enumerate_supports(p, p.K, p.R) if s.columns]
    lower, support = max((d, s) for d, s in devs if d < float(delta) * (1 - 1e-6))
    skipped = (f"delta = {lower!r}\nsupports scanned = {scanned}\nargmax support:\n"
               + signal_model.support_to_text(support))
    errors = workloads.ric_errors([skipped], cold.Phi, p, ref)
    assert len(errors) == 1 and "brute-force maximum" in errors[0]


def test_ric_check_rejects_a_wrong_support_count(in_tmp):
    cold, out, ref = _ric_output(in_tmp)
    _, scanned, _ = workloads.parse_ric(out)
    wrong = out.replace(f"supports scanned = {scanned}", f"supports scanned = {scanned - 1}")
    assert any("scanned" in e for e in workloads.ric_errors([wrong], cold.Phi, cold.params, ref))
    # and an enumeration that misses a support
    short = (ref[0], ref[1] - 1)
    assert any("iter_cell gives" in e for e in workloads.ric_errors([out], cold.Phi, cold.params, short))


def test_lemma_check_requires_every_family(in_tmp):
    audit = workloads.LemmaAudit(seed=5, scale=TINY, workdir=in_tmp)
    audit.exercised = set(workloads.LEMMA_FAMILIES) - {"projected-column-bound"}
    assert audit.checks() == ["lemma family projected-column-bound was never exercised"]


def test_curve_check_compares_with_run_curve(in_tmp):
    curve = workloads.Curve(seed=5, scale=TINY, workdir=in_tmp)
    for i in range(curve.count_ops):
        curve.op(i)
    assert curve.checks() == []
    first = curve.records[0]
    curve.records[0] = type(first)(**{**first.__dict__, "success": not first.success})
    assert len(curve.checks()) == 2  # both jobs=1 and jobs=2 now disagree


def test_run_refuses_a_directory_without_the_package(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "curve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


class _Ops:
    group, min_ops, tail_q, op_span, sensitivity = 2, 4, 50, "op", 0.5

    def op(self, i):
        time.sleep(0.001)
        return i != 3


class _SlowMachine:
    def slowdown(self):
        return 4.0  # felt as 2.0 at sensitivity 0.5


def test_measure_divides_wall_times_by_the_probed_slowdown():
    m = workloads.measure(_Ops(), 0, _SlowMachine())
    assert len(m.times) == 4 and m.failed == 1
    assert all(t >= 0.001 for t in m.times) and m.slowdown == pytest.approx(2.0)
    assert m.calibrated == pytest.approx([t / 2 for t in m.times])
    rate = workloads.timing(_Ops(), [1.0, 3.0, 1.0, 1.0])["ops_per_s"]
    assert rate == pytest.approx(2 / 3)  # two per group, median group 3 s


def test_percentile_matches_statistics_quantiles():
    values = list(np.linspace(1.0, 2.0, 201))
    assert workloads.percentile(values, 50) == pytest.approx(1.5)
    assert workloads.percentile(values, 99) == pytest.approx(1.99)
    assert workloads.percentile([3.0], 99) == 3.0
