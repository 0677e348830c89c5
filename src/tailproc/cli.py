"""Command-line interface: simulate, fit, cov, check, validate.

Exit codes: 0 on success, 1 on usage or configuration errors and on
resource failures (memory that cannot be allocated, a file that cannot be
opened, a replication worker process that dies), 2 on numerical failure
(for example when the moment equation has no root).
"""

from __future__ import annotations

import argparse
import json
import re
import shlex
import sys
from dataclasses import asdict

import numpy as np

from . import asymptotics, montecarlo, second_order
from .estimator import ExcessSample, LmeSolverError, lme_fit, top_k_excesses
from .process import CoefficientSequence, InnovationModel, arma_to_ma, simulate

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2


class _Formatter(argparse.ArgumentDefaultsHelpFormatter):
    def _get_help_string(self, action):  # a default of None goes unsaid
        return action.help if action.default is None else super()._get_help_string(action)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads -5e-1 as an option; no flag here starts with a digit.
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def convert_arg_line_to_args(self, arg_line):
        """An argument file's line, split as a shell would, ``#`` comments dropped."""
        return shlex.split(arg_line, comments=True)


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"expected comma-separated numbers, got {text!r}") from exc


def _coeffs(args) -> CoefficientSequence:
    """Explicit coefficients, or the truncated expansion of an ARMA model."""
    coeffs, ar, ma = (None if text is None else _parse_floats(text)
                      for text in (args.coeffs, args.ar, args.ma))
    if coeffs is not None and (ar is not None or ma is not None):
        raise ValueError("give either coeffs or ar/ma, not both")
    if coeffs is not None:
        return CoefficientSequence(tuple(coeffs))
    if ar is not None or ma is not None:
        return arma_to_ma(ar or [], ma or [])
    raise ValueError("coefficients required: give coeffs or ar/ma")


def _emit(payload: dict | str, output: str | None) -> None:
    """Write JSON, or text already formatted, to ``output`` or stdout."""
    text = payload if isinstance(payload, str) else json.dumps(payload, indent=2)
    if output:
        with open(output, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _read_column(path: str) -> np.ndarray:
    """The first field of every row but blank ones, ``#`` comments and a
    header, which only the first other row may be."""
    values = []
    header_allowed = True
    with open(path, encoding="utf-8-sig") as handle:
        for number, line in enumerate(handle, start=1):
            token = line.strip().split(",")[0]
            if line.isspace() or token.startswith("#"):
                continue
            try:
                values.append(float(token))
            except ValueError:
                if not header_allowed:
                    raise ValueError(f"line {number} of {path} is not a number: "
                                     f"{token!r}") from None
            header_allowed = False
    if not values:
        raise ValueError(f"no numeric data found in {path}")
    return np.asarray(values)


def _cmd_simulate(args) -> int:
    path = simulate(_coeffs(args), InnovationModel(alpha=args.alpha, pi1=args.pi1),
                    args.n, args.seed)
    _emit("value\n" + "\n".join(repr(float(v)) for v in path.values), args.output)
    return EXIT_OK


def _cmd_fit(args) -> int:
    data = _read_column(args.input)
    if args.excesses:
        if args.k is not None and args.k != data.size:
            raise ValueError(f"--k {args.k} does not match the {data.size} excesses read")
        sample = ExcessSample.from_excesses(data)
    else:
        if args.k is None:
            raise ValueError("--k is required when fitting a raw series")
        sample = top_k_excesses(data, args.k)
    fit = lme_fit(sample, args.r)
    _emit({**asdict(fit), "r": args.r, "k": sample.k, "threshold": sample.threshold}, args.output)
    return EXIT_OK


def _cmd_cov(args) -> int:
    report = asymptotics.estimator_cov(args.gamma, args.r, _coeffs(args))
    _emit(report.to_dict(), args.output)
    return EXIT_OK


def _cmd_check(args) -> int:
    report = second_order.check_conditions(args.alpha, _coeffs(args), xi=args.xi)
    _emit(report.to_dict(), args.output)
    return EXIT_OK


def _cmd_validate(args) -> int:
    config = montecarlo.ExperimentConfig(
        coeffs=_coeffs(args), model=InnovationModel(alpha=args.alpha), n=args.n, k=args.k,
        r=args.r, replications=args.reps, master_seed=args.seed,
        worker_count_hint=montecarlo.usable_cpus(), sampling=args.sampling, theta=args.theta)
    csv_path = json_path = None
    if args.output:
        csv_path = args.output + ".records.csv"
        json_path = args.output + ".report.json"
    report = montecarlo.run_experiment(config, csv_path=csv_path, json_path=json_path)
    _emit(report.to_dict(), None)
    return EXIT_OK


def _add_coeff_flags(parser) -> None:
    parser.add_argument("--coeffs", default=None,
                        help="comma-separated moving-average coefficients, e.g. 1,0.5")
    parser.add_argument("--ar", default=None,
                        help="comma-separated autoregressive coefficients")
    parser.add_argument("--ma", default=None,
                        help="comma-separated moving-average lag coefficients")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tailproc",
                     description="Heavy-tailed linear processes, likelihood "
                                 "moment fitting, and limit validation.")
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = _Formatter

    p = sub.add_parser("simulate", formatter_class=fmt,
                       help="simulate a path and write it as a single column")
    _add_coeff_flags(p)
    p.add_argument("--alpha", type=float, default=3.0, help="innovation tail index")
    p.add_argument("--pi1", type=float, default=1.0,
                   help="right tail weight of the innovations (0.5 is the symmetric law)")
    p.add_argument("--n", type=int, default=1000, help="path length")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--output", default=None, help="output path (stdout if omitted)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", formatter_class=fmt,
                       help="fit the likelihood moment estimator")
    p.add_argument("--input", required=True,
                   help="single-column CSV holding a series (or excesses)")
    p.add_argument("--k", type=int, default=None, help="number of upper order statistics")
    p.add_argument("--r", type=float, default=-1.0, help="tuning exponent, negative")
    p.add_argument("--excesses", action="store_true",
                   help="treat the input column as pre-computed excesses")
    p.add_argument("--output", default=None, help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("cov", formatter_class=fmt,
                       help="closed-form covariance of the standardized estimator pair")
    _add_coeff_flags(p)
    p.add_argument("--gamma", type=float, required=True, help="tail index of the process")
    p.add_argument("--r", type=float, default=-1.0, help="tuning exponent, negative")
    p.add_argument("--output", default=None, help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_cov)

    p = sub.add_parser("check", formatter_class=fmt,
                       help="evaluate the regularity conditions for a coefficient sequence")
    _add_coeff_flags(p)
    p.add_argument("--alpha", type=float, required=True, help="innovation tail index")
    p.add_argument("--xi", type=float, default=0.9,
                   help="exponent fraction for the fractional power sum")
    p.add_argument("--output", default=None, help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_check)

    defaults = montecarlo.ExperimentConfig
    p = sub.add_parser("validate", formatter_class=fmt, fromfile_prefix_chars="@",
                       help="Monte Carlo validation of the normal limit",
                       description="Monte Carlo validation of the normal limit. @FILE "
                                   "stands for the flags in FILE, any number a line, "
                                   "# for comments; later arguments win.")
    _add_coeff_flags(p)
    p.add_argument("--alpha", type=float, required=True, help="innovation tail index")
    p.add_argument("--r", type=float, required=True, help="tuning exponent, negative")
    p.add_argument("--n", type=int, required=True, help="path length per replication")
    p.add_argument("--k", type=int, default=None,
                   help="number of upper order statistics (default: the growth rule)")
    p.add_argument("--theta", type=float, default=defaults.theta,
                   help="growth rule exponent fraction in (0, 1)")
    p.add_argument("--reps", type=int, required=True, help="number of replications")
    p.add_argument("--seed", type=int, required=True, help="master seed")
    p.add_argument("--sampling", choices=montecarlo.SAMPLING_MODES, default=defaults.sampling,
                   help="replication sampling mode")
    p.add_argument("--output", default=None,
                   help="prefix for <prefix>.records.csv and <prefix>.report.json")
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad usage and 0 after --help
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (LmeSolverError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
