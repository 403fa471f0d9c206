"""Command-line entry point.

Subcommands: gen-signal, gen-matrix, recover, ric, lemmas, count, thm1, thm2,
gbounds, curve, theorem-suite. Every randomized command requires an explicit
--seed; there is no ambient entropy. Exit codes: 0 success, 1 check failure,
2 usage error. Indices in all artifacts are 1-based.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import analysis, sensing, signal_model

# `experiments` and `recovery` load in the commands that run them, so that a
# `ric` or `count` does not import the solvers and the pool; `--alg` lists
# experiments.ALGORITHMS.
_ALGORITHMS = ("tsgbomp", "bomp")


def _load_matrix(path: str) -> sensing.SensingMatrix:
    data = Path(path).read_bytes()
    if path.endswith(".bin"):
        return sensing.matrix_from_binary(data)
    return sensing.matrix_from_csv(data.decode())


def _save_matrix(mat: sensing.SensingMatrix, path: str) -> None:
    if path.endswith(".bin"):
        Path(path).write_bytes(sensing.matrix_to_binary(mat))
    else:
        Path(path).write_text(sensing.matrix_to_csv(mat), newline="\n")


def _cmd_gen_signal(args) -> int:
    params = signal_model.PibsParams.from_window(
        n=args.n, b=args.b, p=args.p, l=0, L=args.L, K=args.K, R=0
    )
    rng = np.random.default_rng(args.seed)
    support = signal_model.sample_support(params, args.K, rng)
    x = signal_model.fill_values(support, args.scheme, rng)
    Path(args.out).write_text(signal_model.signal_to_csv(x), newline="\n")
    if args.support_out:
        Path(args.support_out).write_text(
            signal_model.support_to_text(support), newline="\n"
        )
    return 0


def _cmd_gen_matrix(args) -> int:
    rng = np.random.default_rng(args.seed)
    mat = sensing.gaussian_matrix(
        args.m, args.n, args.variance, not args.no_normalize, rng,
        complex_entries=args.complex,
    )
    _save_matrix(mat, args.out)
    return 0


def _cmd_recover(args) -> int:
    from . import experiments, recovery

    Phi = _load_matrix(args.matrix)
    y = signal_model.signal_values_from_csv(Path(args.y).read_text(), Phi.m)
    result = experiments.solve(args.alg, Phi, y, args.iterations, args.L, args.B, args.eps)
    report = recovery.result_report(result)
    if args.out:
        Path(args.out).write_text(report, newline="\n")
    else:
        sys.stdout.write(report)
    if args.trace_csv:
        Path(args.trace_csv).write_text(recovery.trace_to_csv(result), newline="\n")
    return 0


def _cmd_ric(args) -> int:
    Phi = _load_matrix(args.matrix)
    params = signal_model.PibsParams(
        n=Phi.n, b=args.b, p=args.p, l=args.l, Lsep=args.lsep, K=args.K, R=args.R
    )
    est = analysis.pibric(Phi, params, args.K, args.R, cap=args.cap)
    print(f"delta = {est.delta!r}")
    print(f"supports scanned = {est.count}")
    if est.argmax is not None and not est.argmax.is_empty():
        print("argmax support:")
        sys.stdout.write(signal_model.support_to_text(est.argmax))
    return 0


def _cmd_lemmas(args) -> int:
    Phi = _load_matrix(args.matrix)
    params = signal_model.PibsParams(
        n=Phi.n, b=args.b, p=args.p, l=args.lsep, Lsep=args.lsep, K=args.K, R=args.R
    )
    rng = np.random.default_rng(args.seed)
    report = analysis.verify_lemmas(Phi, params, args.K, args.R, rng, cell_cap=args.cell_cap)
    sys.stdout.write(report.render())
    if args.margins_csv:
        Path(args.margins_csv).write_text(report.margins_csv(), newline="\n")
    return 0 if report.all_passed else 1


def _cmd_count(args) -> int:
    params = signal_model.PibsParams(
        n=args.n, b=args.b, p=args.p, l=args.l, Lsep=args.lsep, K=args.K, R=args.R
    )
    cmp = signal_model.compare_counts(params, args.K, args.R)
    if not cmp.match:
        print(f"warning: the closed form gives {cmp.formula}", file=sys.stderr)
    for reason in cmp.notes:
        print(f"warning: {reason}", file=sys.stderr)
    print(cmp.exact)
    return 0


def _cmd_thm1(args) -> int:
    cert = analysis.thm1_certificate(
        args.delta, args.K, args.b, args.p,
        epsilon=args.eps, x_min=args.xmin, x_max=args.xmax, field=args.field,
    )
    c18 = "18" if args.field == "real" else "20"
    c17 = "17" if args.field == "real" else "19"
    print(f"{'PASS' if cert.condition_17_ok else 'FAIL'}({c17}) margin={cert.margin_17!r}")
    print(f"{'PASS' if cert.condition_18_ok else 'FAIL'}({c18}) margin={cert.margin_18!r}")
    return 0 if cert.passed else 1


def _cmd_thm2(args) -> int:
    report = analysis.thm2_bound(
        args.b, args.p, args.L, args.K, args.R, args.m, args.n,
        eps0=args.eps0, eps=args.eps, lambda_variant=args.lambda_variant,
    )
    sys.stdout.write(report.render())
    if args.csv:
        Path(args.csv).write_text(report.csv(), newline="\n")
    return 0


def _cmd_gbounds(args) -> int:
    lower, upper = analysis.g_bounds(args.a, args.K, args.b)
    print(f"lower = {lower!r}")
    print(f"upper = {upper!r}")
    if args.trials:
        rng = np.random.default_rng(args.seed)
        emp = analysis.g_empirical(args.a, args.K, args.b, args.trials, rng)
        print(f"empirical = {emp!r}")
    return 0


def _cmd_curve(args) -> int:
    from . import experiments

    config = experiments.ExperimentConfig.from_text(Path(args.config).read_text())
    points = experiments.run_curve(config, jobs=args.jobs, out_path=args.out)
    if not args.out:
        sys.stdout.write(experiments.curve_to_csv(points))
    if args.check:
        violations = experiments.check_curve(points)
        for v in violations:
            print(f"check failure: {v}", file=sys.stderr)
        return 1 if violations else 0
    return 0


def _cmd_theorem_suite(args) -> int:
    from . import experiments

    rng = np.random.default_rng(args.seed)
    report = experiments.theorem_regime_suite(args.count, rng)
    sys.stdout.write(report.render())
    return 0 if report.certified and report.all_recovered else 1


def _integer_at_least(low: int):
    """Argparse type of an integer option bounded below by `low`: text that
    is not an integer, or one that `signal_model.check_at_least` refuses, is
    a usage error."""

    def integer(text: str) -> int:
        value = int(text)
        try:
            signal_model.check_at_least(low, value=value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    return integer


# counts of workers, matrices, trials or instances, and caps
at_least_one = _integer_at_least(1)
# seeds, and gbounds --trials, where 0 asks for no estimate
at_least_zero = _integer_at_least(0)


def build_parser() -> argparse.ArgumentParser:
    # no abbreviations anywhere, so a stray --l cannot pass for --lsep
    parser = argparse.ArgumentParser(prog="tsgbomp", allow_abbrev=False)
    sub = parser.add_subparsers(
        dest="command", required=True,
        parser_class=partial(argparse.ArgumentParser, allow_abbrev=False),
    )

    # one window option per command: the length --L or --lsep = L + 2pb - b
    def geometry(sp, window, with_n=True, with_l=True):
        if with_n:
            sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--b", type=int, required=True)
        sp.add_argument("--p", type=int, required=True)
        if with_l:
            sp.add_argument("--l", type=int, default=0)
        sp.add_argument(window, type=int, required=True)

    sp = sub.add_parser("gen-signal", help="sample a support and fill values")
    geometry(sp, "--L", with_l=False)
    sp.add_argument("--K", type=int, required=True)
    sp.add_argument("--scheme", default="const:10",
                    help="const:<amplitude> or gaussian (default const:10)")
    sp.add_argument("--seed", type=at_least_zero, required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--support-out", default=None)
    sp.set_defaults(func=_cmd_gen_signal)

    sp = sub.add_parser("gen-matrix", help="draw a Gaussian sensing matrix")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--variance", choices=["unit", "one_over_m"], default="unit")
    sp.add_argument("--no-normalize", action="store_true")
    sp.add_argument("--complex", action="store_true")
    sp.add_argument("--seed", type=at_least_zero, required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_gen_matrix)

    sp = sub.add_parser("recover", help="run a solver on a stored instance")
    sp.add_argument("--alg", choices=_ALGORITHMS, default="tsgbomp")
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--y", required=True)
    sp.add_argument("--iterations", type=int, required=True,
                    help="budget: at most this many picks of B columns")
    sp.add_argument("--L", type=int, default=None, help="window length (tsgbomp only)")
    sp.add_argument("--B", type=int, required=True, help="cluster width p*b")
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--out", default=None)
    sp.add_argument("--trace-csv", default=None)
    sp.set_defaults(func=_cmd_recover)

    sp = sub.add_parser("ric", help="exact structured isometry constant")
    sp.add_argument("--matrix", required=True)
    geometry(sp, "--lsep", with_n=False)
    sp.add_argument("--K", type=int, required=True)
    sp.add_argument("--R", type=int, required=True)
    sp.add_argument("--cap", type=at_least_one, default=1_000_000)
    sp.set_defaults(func=_cmd_ric)

    sp = sub.add_parser("lemmas", help="brute-force lemma checks on a matrix")
    sp.add_argument("--matrix", required=True)
    geometry(sp, "--lsep", with_n=False, with_l=False)
    sp.add_argument("--K", type=int, required=True)
    sp.add_argument("--R", type=int, required=True)
    sp.add_argument("--cell-cap", type=at_least_one, default=150_000)
    sp.add_argument("--seed", type=at_least_zero, required=True)
    sp.add_argument("--margins-csv", default=None)
    sp.set_defaults(func=_cmd_lemmas)

    sp = sub.add_parser("count", help="count admissible supports")
    geometry(sp, "--lsep")
    sp.add_argument("--K", type=int, required=True)
    sp.add_argument("--R", type=int, required=True)
    sp.set_defaults(func=_cmd_count)

    sp = sub.add_parser("thm1", help="evaluate the recovery certificate")
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--K", type=int, required=True)
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--eps", type=float, default=0.0)
    sp.add_argument("--xmin", type=float, default=1.0)
    sp.add_argument("--xmax", type=float, default=1.0)
    sp.add_argument("--field", choices=["real", "complex"], default="real")
    sp.set_defaults(func=_cmd_thm1)

    sp = sub.add_parser("thm2", help="Gaussian-matrix probability lower bound")
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--L", type=int, required=True)
    sp.add_argument("--K", type=int, required=True)
    sp.add_argument("--R", type=int, default=2)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--eps0", type=float, required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument(
        "--lambda-variant", choices=["separation", "window"], default="separation"
    )
    sp.add_argument("--csv", default=None)
    sp.set_defaults(func=_cmd_thm2)

    sp = sub.add_parser("gbounds", help="magnitude-ratio tail bounds")
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--K", type=int, required=True)
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--trials", type=at_least_zero, default=0)
    sp.add_argument("--seed", type=at_least_zero, default=None)
    sp.set_defaults(func=_cmd_gbounds)

    sp = sub.add_parser("curve", help="Monte Carlo phase-transition curve")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", default=None)
    sp.add_argument("--jobs", type=at_least_one, default=1)
    sp.add_argument("--check", action="store_true")
    sp.set_defaults(func=_cmd_curve)

    sp = sub.add_parser("theorem-suite", help="certified-instance validation")
    sp.add_argument("--count", type=at_least_one, required=True)
    sp.add_argument("--seed", type=at_least_zero, required=True)
    sp.set_defaults(func=_cmd_theorem_suite)

    # main() reports what it checks after parsing through the command's own
    # parser, so the usage line it prints is that command's
    for sp in sub.choices.values():
        sp.set_defaults(parser=sp)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "gbounds" and args.trials and args.seed is None:
        args.parser.error("--seed is required when --trials is set")
    if args.command == "recover" and args.alg == "tsgbomp" and args.L is None:
        args.parser.error("--L is required for --alg tsgbomp")
    if args.command == "recover" and args.alg != "tsgbomp" and args.L is not None:
        args.parser.error("--L applies to --alg tsgbomp only")
    try:
        return args.func(args)
    except (ValueError, OSError, signal_model.EnumerationCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
