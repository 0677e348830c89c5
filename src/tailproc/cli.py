"""Command-line interface: simulate, fit, cov, check, validate.

Exit codes: 0 on success, 1 on usage or configuration errors, 2 on numerical
failure (for example when the moment equation has no root).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import asdict, fields

import numpy as np

from . import asymptotics, montecarlo, second_order
from .estimator import ExcessSample, LmeSolverError, lme_fit, top_k_excesses
from .process import CoefficientSequence, InnovationModel, arma_to_ma, simulate

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2

# Config keys and their value types: float takes any JSON number, int a whole
# one.  null leaves NULLABLE_KEYS unset.  Keys that are not coefficients or
# InnovationModel fields pass to ExperimentConfig, renamed by KEYWORDS.
CONFIG_KEYS = {
    "coeffs": list, "ar": list, "ma": list, "alpha": float,
    "pi1": float, "r": float, "n": int, "k": int,
    "theta": float, "reps": int, "seed": int, "workers": int,
    "sampling": str,
}
COEFF_KEYS = ("coeffs", "ar", "ma")
NULLABLE_KEYS = COEFF_KEYS + ("k", "workers")
KEYWORDS = {"reps": "replications", "seed": "master_seed", "workers": "worker_count_hint"}
TYPE_NAMES = {float: "a number", int: "a number", str: "a string", list: "a list of numbers"}


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads -5e-1 as an option; no flag here starts with a digit.
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    # argparse exits 2 on bad usage by default; the contract here is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"expected comma-separated numbers, got {text!r}") from exc


def _convert(key: str, value):
    """A config file value as its key's type."""
    if key not in CONFIG_KEYS:
        raise UsageError(f"unknown config key: {key!r}")
    kind = CONFIG_KEYS[key]
    number = lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
    if kind is list:
        valid = isinstance(value, list) and all(map(number, value))
    else:
        valid = isinstance(value, str) if kind is str else number(value)
    if not valid:
        raise UsageError(f"config key {key!r} must be {TYPE_NAMES[kind]}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise UsageError(f"config key {key!r} must be a whole number")
    return kind(value)


def _coeffs(coeffs=None, ar=None, ma=None) -> CoefficientSequence:
    """Explicit coefficients, or the truncated expansion of an ARMA model."""
    if coeffs is not None and (ar is not None or ma is not None):
        raise UsageError("give either coeffs or ar/ma, not both")
    if coeffs is not None:
        return CoefficientSequence(tuple(float(v) for v in coeffs))
    if ar is not None or ma is not None:
        return arma_to_ma(ar or [], ma or [])
    raise UsageError("coefficients required: give coeffs or ar/ma")


def _coeff_flags(args) -> dict:
    """The coefficient flags given on the command line, parsed."""
    return {key: _parse_floats(getattr(args, key)) for key in COEFF_KEYS
            if getattr(args, key) is not None}


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
    with open(path) as handle:
        for number, line in enumerate(handle, start=1):
            token = line.strip().split(",")[0]
            if not token or token.startswith("#"):
                continue
            try:
                values.append(float(token))
            except ValueError:
                if not header_allowed:
                    raise UsageError(f"line {number} of {path} is not a number: "
                                     f"{token!r}") from None
            header_allowed = False
    if not values:
        raise UsageError(f"no numeric data found in {path}")
    return np.asarray(values)


def _cmd_simulate(args) -> int:
    coeffs = _coeffs(**_coeff_flags(args))
    model = InnovationModel(alpha=args.alpha, pi1=args.pi1)
    path = simulate(coeffs, model, args.n, args.seed)
    if args.format == "json":
        _emit({"seed": path.seed, "fingerprint": path.fingerprint,
               "values": path.values.tolist()}, args.output)
    else:
        _emit("value\n" + "\n".join(repr(float(v)) for v in path.values), args.output)
    return EXIT_OK


def _cmd_fit(args) -> int:
    data = _read_column(args.input)
    if args.excesses:
        if args.k is not None and args.k != data.size:
            raise UsageError(f"--k {args.k} does not match the {data.size} excesses read")
        sample = ExcessSample.from_excesses(data)
    else:
        if args.k is None:
            raise UsageError("--k is required when fitting a raw series")
        sample = top_k_excesses(data, args.k)
    fit = lme_fit(sample, args.r)
    _emit({**asdict(fit), "k": sample.k, "threshold": sample.threshold}, args.output)
    return EXIT_OK


def _cmd_cov(args) -> int:
    coeffs = _coeffs(**_coeff_flags(args))
    report = asymptotics.estimator_cov(args.gamma, args.r, coeffs)
    _emit(report.to_dict(), args.output)
    return EXIT_OK


def _cmd_check(args) -> int:
    coeffs = _coeffs(**_coeff_flags(args))
    report = second_order.check_conditions(args.alpha, coeffs, xi=args.xi)
    _emit(report.to_dict(), args.output)
    return EXIT_OK


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError("config file must hold a JSON object")
    return {key: _convert(key, value) for key, value in raw.items()
            if value is not None or key not in NULLABLE_KEYS}


def _cmd_validate(args) -> int:
    cfg = _load_config_file(args.config) if args.config else {}
    # Command-line flags override file values; coefficient flags replace the
    # file's coeffs/ar/ma keys as a group.
    flags = _coeff_flags(args)
    if flags:
        cfg = {key: value for key, value in cfg.items() if key not in COEFF_KEYS}
    cfg.update(flags)
    cfg.update({key: getattr(args, key) for key in CONFIG_KEYS.keys() - COEFF_KEYS
                if getattr(args, key, None) is not None})

    coeffs = _coeffs(*(cfg.pop(key, None) for key in COEFF_KEYS))
    for key in ("alpha", "r", "n", "reps", "seed"):
        if key not in cfg:
            raise UsageError(f"missing config key: {key!r}")
    model = InnovationModel(**{f.name: cfg.pop(f.name) for f in fields(InnovationModel)
                               if f.name in cfg})
    cfg.setdefault("workers", montecarlo.usable_cpus())
    config = montecarlo.ExperimentConfig(
        coeffs=coeffs, model=model,
        **{KEYWORDS.get(key, key): value for key, value in cfg.items()})

    csv_path = json_path = None
    if args.output:
        csv_path = args.output + ".records.csv"
        json_path = args.output + ".report.json"
    report = montecarlo.run_experiment(config, csv_path=csv_path, json_path=json_path)
    print(json.dumps(report.to_dict(), indent=2))
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
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("simulate", formatter_class=fmt,
                       help="simulate a path and write it as a single column")
    _add_coeff_flags(p)
    p.add_argument("--alpha", type=float, default=3.0, help="innovation tail index")
    p.add_argument("--pi1", type=float, default=1.0,
                   help="right tail weight of the innovations (0.5 is the symmetric law)")
    p.add_argument("--n", type=int, default=1000, help="path length")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--output", default=None, help="output path (stdout if omitted)")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="output format")
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

    p = sub.add_parser("validate", formatter_class=fmt,
                       help="Monte Carlo validation of the normal limit")
    p.add_argument("--config", default=None, help="JSON config file")
    _add_coeff_flags(p)
    p.add_argument("--alpha", type=float, default=None, help="innovation tail index")
    p.add_argument("--r", type=float, default=None, help="tuning exponent, negative")
    p.add_argument("--n", type=int, default=None, help="path length per replication")
    p.add_argument("--k", type=int, default=None,
                   help="number of upper order statistics (growth rule if omitted)")
    p.add_argument("--theta", type=float, default=None,
                   help="growth rule exponent fraction in (0, 1)")
    p.add_argument("--reps", type=int, default=None, help="number of replications")
    p.add_argument("--seed", type=int, default=None, help="master seed")
    p.add_argument("--workers", type=int, default=None,
                   help="process count (usable CPU count if omitted)")
    p.add_argument("--sampling", choices=("series", "gpd_direct"), default=None,
                   help="replication sampling mode")
    p.add_argument("--output", default=None,
                   help="prefix for <prefix>.records.csv and <prefix>.report.json")
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (LmeSolverError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
