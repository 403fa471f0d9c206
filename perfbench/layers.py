"""What the traced run wraps in `tsgbomp`, and how its spans become the
per-layer metrics listed in BENCHMARK.json.

Every `_s` metric is seconds per timed operation, averaged over the traced
run. Counts and computed byte totals are per operation too, averaged over the
workload's fixed operation set (see `Workload.count_ops`), so they repeat
exactly for a given seed.
"""

from __future__ import annotations

from collections import defaultdict

from tracing import Target, Tracer


def _lstsq_attrs(args, kwargs, result):
    return {"cols": int(args[0].shape[1])}


def _solve_attrs(args, kwargs, result):
    return {"iterations": int(result.iterations)}


def _matrix_attrs(args, kwargs, result):
    return {"bytes": int(result.entries.nbytes)}


def _eig_attrs(args, kwargs, result):
    a = args[0]
    return {"submatrices": int(a.size // (a.shape[-1] * a.shape[-2])), "bytes": int(a.nbytes)}


def _table_attrs(args, kwargs, result):
    return {"skipped": sum(1 for stat in result.values() if stat.skipped)}


CURVE_TARGETS = (
    Target("tsgbomp.experiments", "trial_seed", "experiments.trial_seed"),
    Target("tsgbomp.experiments", "run_trial", "experiments.run_trial"),
    Target("tsgbomp.experiments", "gaussian_matrix", "sensing.gaussian_matrix", _matrix_attrs),
    Target("tsgbomp.experiments", "sample_support", "signal_model.sample_support"),
    Target("tsgbomp.experiments", "fill_values", "signal_model.fill_values"),
    Target("tsgbomp.experiments", "measure", "sensing.measure"),
    Target("tsgbomp.experiments", "tsgbomp", "recovery.solve", _solve_attrs),
    Target("tsgbomp.experiments", "bomp", "recovery.solve", _solve_attrs),
    Target("tsgbomp.experiments", "success_check", "recovery.check"),
    Target("tsgbomp.experiments", "relative_error", "recovery.check"),
    Target("numpy.linalg", "lstsq", "recovery.lstsq", _lstsq_attrs),
)

_SCAN_TARGETS = (
    Target("tsgbomp.analysis", "cell_count", "analysis.cell_count"),
    Target("tsgbomp.analysis", "iter_cell", "signal_model.iter_cell", generator=True),
    Target("numpy.linalg", "eigvalsh", "analysis.eigvalsh", _eig_attrs),
)

LEMMA_TARGETS = (
    Target("tsgbomp.sensing", "gaussian_matrix", "sensing.gaussian_matrix", _matrix_attrs),
    Target("tsgbomp.analysis", "verify_lemmas", "analysis.verify_lemmas"),
    Target("tsgbomp.analysis", "pibric_table", "analysis.scan", _table_attrs),
    Target("numpy.linalg", "qr", "analysis.qr"),
) + _SCAN_TARGETS

# installed inside each `tsgbomp ric` child of the traced ric_cold run
RIC_CHILD_TARGETS = (
    Target("tsgbomp.cli", "main", "cli.main"),
    Target("tsgbomp.sensing", "matrix_from_binary", "sensing.load_matrix", _matrix_attrs),
    Target("tsgbomp.analysis", "pibric", "analysis.scan"),
) + _SCAN_TARGETS

# name -> (unit, better); the order is the order of the report
PER_LAYER = {
    "recovery.solve_s": ("s/op", "lower"),
    "recovery.lstsq_s": ("s/op", "lower"),
    "recovery.select_s": ("s/op", "lower"),
    "recovery.check_s": ("s/op", "lower"),
    "recovery.iterations": ("count/op", "lower"),
    "recovery.lstsq_calls": ("count/op", "lower"),
    "recovery.lstsq_cols": ("count/op", "lower"),
    "sensing.gaussian_matrix_s": ("s/op", "lower"),
    "sensing.measure_s": ("s/op", "lower"),
    "sensing.matrix_bytes": ("B/op", "lower"),
    "sensing.load_matrix_s": ("s/op", "lower"),
    "signal_model.sample_support_s": ("s/op", "lower"),
    "signal_model.fill_values_s": ("s/op", "lower"),
    "signal_model.iter_cell_s": ("s/op", "lower"),
    "signal_model.supports_enumerated": ("count/op", "lower"),
    "analysis.eigvalsh_s": ("s/op", "lower"),
    "analysis.eig_submatrices": ("count/op", "lower"),
    "analysis.gather_bytes": ("B/op", "lower"),
    "analysis.scan_self_s": ("s/op", "lower"),
    "analysis.cell_count_s": ("s/op", "lower"),
    "analysis.cells_skipped": ("count/op", "lower"),
    "analysis.lemma_checks_s": ("s/op", "lower"),
    "analysis.qr_s": ("s/op", "lower"),
    "experiments.trial_self_s": ("s/op", "lower"),
    "cli.startup_s": ("s/op", "lower"),
    "trace.overhead_share": ("share", "lower"),
}


def layer_metrics(tracer: Tracer, timed_ops: int, count_ops: int,
                  time_scale: float = 1.0) -> dict[str, float]:
    """Per-layer values from the spans of operations 0..timed_ops-1; counts
    use operations 0..count_ops-1. Span times are multiplied by `time_scale`,
    which brings them to reference speed. `trace.overhead_share` is filled
    in by the caller."""
    incl: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[tuple[str, str], float] = defaultdict(float)
    for span, self_time in zip(tracer.spans, tracer.self_times()):
        if span.op is None:
            continue
        if span.op < timed_ops:
            incl[span.name] += span.duration
            own[span.name] += self_time
        if span.op < count_ops:
            calls[span.name] += 1
            for key, value in span.attrs.items():
                counts[(span.name, key)] += value

    def t(value):
        return value * time_scale / timed_ops

    def c(value):
        return value / count_ops

    return {
        "recovery.solve_s": t(incl["recovery.solve"]),
        "recovery.lstsq_s": t(incl["recovery.lstsq"]),
        "recovery.select_s": t(own["recovery.solve"]),
        "recovery.check_s": t(incl["recovery.check"]),
        "recovery.iterations": c(counts[("recovery.solve", "iterations")]),
        "recovery.lstsq_calls": c(calls["recovery.lstsq"]),
        "recovery.lstsq_cols": c(counts[("recovery.lstsq", "cols")]),
        "sensing.gaussian_matrix_s": t(incl["sensing.gaussian_matrix"]),
        "sensing.measure_s": t(incl["sensing.measure"]),
        "sensing.matrix_bytes": c(
            counts[("sensing.gaussian_matrix", "bytes")] + counts[("sensing.load_matrix", "bytes")]
        ),
        "sensing.load_matrix_s": t(incl["sensing.load_matrix"]),
        "signal_model.sample_support_s": t(incl["signal_model.sample_support"]),
        "signal_model.fill_values_s": t(incl["signal_model.fill_values"]),
        "signal_model.iter_cell_s": t(incl["signal_model.iter_cell"]),
        "signal_model.supports_enumerated": c(counts[("signal_model.iter_cell", "items")]),
        "analysis.eigvalsh_s": t(incl["analysis.eigvalsh"]),
        "analysis.eig_submatrices": c(counts[("analysis.eigvalsh", "submatrices")]),
        "analysis.gather_bytes": c(counts[("analysis.eigvalsh", "bytes")]),
        "analysis.scan_self_s": t(own["analysis.scan"]),
        "analysis.cell_count_s": t(incl["analysis.cell_count"]),
        "analysis.cells_skipped": c(counts[("analysis.scan", "skipped")]),
        "analysis.lemma_checks_s": t(own["analysis.verify_lemmas"]),
        "analysis.qr_s": t(incl["analysis.qr"]),
        "experiments.trial_self_s": t(own["experiments.run_trial"] + own["experiments.trial_seed"]),
        # a ric_cold operation is one child process: its wall time minus main
        "cli.startup_s": t(own["ric_cold.run"]),
        "trace.overhead_share": 0.0,
    }
