"""Batch command-line front end.

Subcommands:
    dims             block table for one (n, d): Young indices and dimensions
    divergence       relative entropy and varentropy of a state pair
    distribution     exact outcome table as CSV or JSON
    estimate         single-instance estimator report (JSON)
    tail             exact two-sided tail masses plus their optimized bounds
    normality        KS distance against the normal limit over a range of n
    complexity-scan  copies-versus-dimension tail check at calibrated budgets
    verify           run the library invariant suite; nonzero exit on failure
    gen-state        write reproducible test states to JSON files

Every command is a pure function of its argument list: floats serialize
via repr (the shortest form that round-trips to the same double), rows
come out sorted, and no timestamps or environment details are written,
so re-running a command reproduces its report byte for byte.  Parse and
validation problems exit with status 2 and one structured line on
stderr; verify exits with status 1 when an invariant fails.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from .estimator import (
    annotate_estimates,
    estimate_report,
    normality_report,
    tail_report,
)
from .distribution import distribution
from .partitions import enumerate_young, sn_dim, total_schur_dim, weyl_dim, young_count
from .scaling import SCAN_MAX_D, calibrated_budget, complexity_row, varentropy_scale_proxy
from .states import (
    DensityMatrix,
    diagonal_state,
    load_state,
    random_mixed,
    random_pure_depolarized,
    relative_entropy,
    relative_varentropy,
    save_state,
)

SCAN_SPECTRUM_RATIO = 0.9  # geometric eigenvalue ratio used by complexity-scan states
DIMS_MAX_BLOCKS = 100_000  # dims --n 100 --d 6 (189,509 Young indices) needs 0.4 GB


class CliError(Exception):
    """Structured failure: category decides the stderr prefix."""

    def __init__(self, category: str, message: str):
        super().__init__(message)
        self.category = category


# -------------------------------------------------------------- serialization


def _float_cell(value: float) -> str:
    return repr(float(value))


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _float_cell(value)
    if isinstance(value, (tuple, list)):
        return " ".join(str(int(v)) for v in value)
    return str(value)


def _finite_or_none(value: float):
    value = float(value)
    return value if math.isfinite(value) else None


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def _emit_json(payload, out: str | None) -> None:
    _emit(json.dumps(payload, indent=2, allow_nan=False) + "\n", out)


def _emit_csv(header, rows, out: str | None) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    _emit(buf.getvalue(), out)


# ------------------------------------------------------------------ arguments


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError("must be finite and > 0")
    return value


def _parse_n_range(text: str) -> list[int]:
    """A:B:step, inclusive ends; step defaults to 1 when omitted."""
    fields = text.split(":")
    if len(fields) not in (2, 3):
        raise CliError("parse", f"bad range {text!r}, expected A:B:step")
    try:
        start, stop = int(fields[0]), int(fields[1])
        step = int(fields[2]) if len(fields) == 3 else 1
    except ValueError:
        raise CliError("parse", f"bad range {text!r}, fields must be integers")
    if step < 1 or start < 1:
        raise CliError("parse", "range start and step must be >= 1")
    values = list(range(start, stop + 1, step))
    if not values:
        raise CliError("parse", f"range {text!r} is empty")
    return values


def _parse_spectrum(text: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise CliError("parse", f"bad spectrum {text!r}, expected comma-separated numbers")
    if not values:
        raise CliError("parse", "spectrum is empty")
    if not all(math.isfinite(v) for v in values):
        raise CliError("parse", f"bad spectrum {text!r}, entries must be finite")
    if not sum(values) > 0:
        raise CliError("validation", "spectrum must have a positive sum")
    return values


def _load_density(path: str, label: str) -> DensityMatrix:
    try:
        return load_state(path)
    except FileNotFoundError:
        raise CliError("io", f"{label} file not found: {path}")
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise CliError("validation", f"{label} file {path}: {exc}")


def _load_pair(args) -> tuple[DensityMatrix, DensityMatrix]:
    rho = _load_density(args.rho, "rho")
    sigma = _load_density(args.sigma, "sigma")
    if rho.dim != sigma.dim:
        raise CliError("validation", "rho and sigma have different dimensions")
    return rho, sigma


# ----------------------------------------------------------------- subcommands


def cmd_dims(args) -> int:
    # sn_dim < d^n has at most n log10(d) digits; past the interpreter's
    # int-to-str limit it could not be written out
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digit_limit and args.n * math.log10(args.d) > digit_limit:
        raise CliError(
            "validation", f"dims limited to sn_dim below {digit_limit} digits; (n, d) = "
            f"({args.n}, {args.d}) may pass it"
        )
    if young_count(args.n, args.d, DIMS_MAX_BLOCKS) > DIMS_MAX_BLOCKS:
        raise CliError(
            "validation", f"dims limited to {DIMS_MAX_BLOCKS} Young indices; (n, d) = "
            f"({args.n}, {args.d}) has more"
        )
    summary = total_schur_dim(args.n, args.d)
    blocks = [
        (young, weyl_dim(young), sn_dim(young)[0])
        for young in enumerate_young(args.n, args.d)
    ]
    if args.format == "csv":
        _emit_csv(["young", "weyl_dim", "sn_dim"], blocks, args.out)
        return 0
    payload = {
        "n": args.n,
        "d": args.d,
        "count": summary.count,
        "total_dim": summary.total,
        "log_total_dim": math.log(summary.total),
        "blocks": [
            {"young": list(young), "weyl_dim": u, "sn_dim": v} for young, u, v in blocks
        ],
    }
    _emit_json(payload, args.out)
    return 0


def cmd_divergence(args) -> int:
    rho, sigma = _load_pair(args)
    div = relative_entropy(rho, sigma)
    if not math.isfinite(div):
        raise CliError("validation", "relative entropy is infinite (support violation)")
    payload = {
        "d": rho.dim,
        "relative_entropy": div,
        "varentropy": relative_varentropy(rho, sigma),
    }
    _emit_json(payload, args.out)
    return 0


def cmd_distribution(args) -> int:
    rho, sigma = _load_pair(args)
    try:
        dist = distribution(rho, sigma, args.n)
    except (ValueError, ArithmeticError) as exc:
        raise CliError("compute", str(exc))
    ann = annotate_estimates(dist)
    q_unit = np.exp(dist.log_q)
    rows = [
        (young, weight, float(p), float(q), int(m), float(x), float(xs))
        for young, weight, p, q, m, x, xs in zip(
            dist.youngs, dist.weights, dist.p, q_unit, dist.mult, ann.x, ann.x_star
        )
    ]
    header = ["lambda", "mu", "p", "q_unit", "multiplicity", "x", "x_star"]
    if args.format == "csv":
        _emit_csv(header, rows, args.out)
        return 0
    payload = {
        "n": dist.n,
        "d": dist.d,
        "backend": dist.backend,
        "sigma_spectrum": [float(v) for v in dist.sigma_values],
        "atoms": [
            {
                "lambda": list(young),
                "mu": list(weight),
                "p": p,
                "q_unit": q,
                "multiplicity": m,
                "x": x,
                "x_star": xs,
            }
            for young, weight, p, q, m, x, xs in rows
        ],
    }
    _emit_json(payload, args.out)
    return 0


def cmd_estimate(args) -> int:
    rho, sigma = _load_pair(args)
    try:
        report = estimate_report(rho, sigma, args.n)
    except (ValueError, ArithmeticError) as exc:
        raise CliError("compute", str(exc))
    payload = {
        "n": report.n,
        "d": report.d,
        "D": report.relative_entropy,
        "V": report.varentropy,
        "mean_x": report.mean_x,
        "mse": report.mse,
        "bias": report.bias,
        "mse_star": report.mse_star,
        "bias_star": report.bias_star,
        "mse_bound": report.mse_bound,
        "ks": report.ks,
    }
    _emit_json(payload, args.out)
    return 0


def cmd_tail(args) -> int:
    rho, sigma = _load_pair(args)
    try:
        report = tail_report(rho, sigma, args.n, args.epsilon)
    except (ValueError, ArithmeticError) as exc:
        raise CliError("compute", str(exc))
    payload = {
        "n": args.n,
        "d": rho.dim,
        "epsilon": report.epsilon,
        "center": report.center,
        "delta_plus": report.delta_plus,
        "delta_minus": report.delta_minus,
        "boundary_atoms": report.boundary_atoms,
        "bound_plus": report.bound_plus,
        "bound_minus": report.bound_minus,
    }
    _emit_json(payload, args.out)
    return 0


def cmd_normality(args) -> int:
    rho, sigma = _load_pair(args)
    if (args.n is None) == (args.n_range is None):
        raise CliError("parse", "normality needs exactly one of --n / --n-range")
    n_values = [args.n] if args.n is not None else _parse_n_range(args.n_range)
    div = relative_entropy(rho, sigma)
    if not math.isfinite(div):
        raise CliError("validation", "relative entropy is infinite (support violation)")
    varentropy = relative_varentropy(rho, sigma)
    if varentropy <= 0:
        raise CliError("validation", "varentropy is zero; no normal limit to compare to")
    rows = []
    for n in n_values:
        try:
            ann = annotate_estimates(distribution(rho, sigma, n))
        except (ValueError, ArithmeticError) as exc:
            raise CliError("compute", f"n={n}: {exc}")
        rows.append((n, normality_report(ann, div, varentropy).ks))
    if args.format == "csv":
        _emit_csv(["n", "ks"], rows, args.out)
        return 0
    payload = {
        "d": rho.dim,
        "relative_entropy": div,
        "varentropy": varentropy,
        "rows": [{"n": n, "ks": ks} for n, ks in rows],
    }
    _emit_json(payload, args.out)
    return 0


def cmd_complexity_scan(args) -> int:
    rows = []
    for d in sorted(set(args.d)):
        if not 2 <= d <= SCAN_MAX_D:
            raise CliError("validation", f"complexity-scan supports d in [2, {SCAN_MAX_D}], got {d}")
        c0 = varentropy_scale_proxy(d, seeds=range(args.seed, args.seed + 8))
        c = args.c if args.c is not None else calibrated_budget(c0, epsilon=args.epsilon)
        try:
            row = complexity_row(d, c, c0, args.epsilon, q=SCAN_SPECTRUM_RATIO)
        except (ValueError, ArithmeticError) as exc:
            raise CliError("compute", f"d={d}: {exc}")
        rows.append(row)
    header = [
        "d",
        "n",
        "tail_mass",
        "bound_simple",
        "bound_exact",
        "c",
        "c0",
        "epsilon",
        "q",
        "log_delta_plus",
        "log_delta_minus",
        "tomography_ratio",
    ]
    table = [
        (
            row.d,
            row.n,
            row.tail_mass,
            row.bound_simple,
            row.bound_exact,
            row.c,
            row.c0,
            row.epsilon,
            row.q,
            row.log_delta_plus,
            row.log_delta_minus,
            row.tomography_ratio,
        )
        for row in rows
    ]
    if args.format == "csv":
        _emit_csv(header, table, args.out)
        return 0
    json_rows = []
    for row in table:
        entry = dict(zip(header, row))
        entry["log_delta_plus"] = _finite_or_none(entry["log_delta_plus"])
        entry["log_delta_minus"] = _finite_or_none(entry["log_delta_minus"])
        json_rows.append(entry)
    payload = {"rows": json_rows}
    _emit_json(payload, args.out)
    return 0


def cmd_verify(args) -> int:
    from .verification import run_verification

    results = run_verification(seed=args.seed)
    failures = 0
    for name, ok, detail in results:
        if ok:
            sys.stdout.write(f"[PASS] {name}\n")
        else:
            failures += 1
            sys.stdout.write(f"[FAIL] {name}: {detail}\n")
    sys.stdout.write(f"{len(results) - failures}/{len(results)} invariant families hold\n")
    return 1 if failures else 0


def cmd_gen_state(args) -> int:
    if args.out is None:
        raise CliError("parse", "gen-state requires --out")
    if args.kind == "diagonal":
        if args.spectrum is None:
            raise CliError("parse", "diagonal states need --spectrum")
        raw = np.array(_parse_spectrum(args.spectrum), dtype=float)
        try:
            diagonal_state(raw / raw.sum())
        except ValueError as exc:
            raise CliError("validation", str(exc))
        payload = {"spectrum": [float(v) for v in raw / raw.sum()]}
        with open(args.out, "w", newline="") as fh:
            json.dump(payload, fh)
            fh.write("\n")
        return 0
    if args.d is None:
        raise CliError("parse", f"{args.kind} needs --d")
    try:
        if args.kind == "random_mixed":
            spectrum = _parse_spectrum(args.spectrum) if args.spectrum else None
            state = random_mixed(args.d, args.seed, spectrum=spectrum)
        else:
            if args.p is None:
                raise CliError("parse", "random_pure_depolarized needs --p")
            state = random_pure_depolarized(args.d, args.seed, args.p)
    except ValueError as exc:
        raise CliError("validation", str(exc))
    save_state(args.out, state)
    return 0


# ----------------------------------------------------------------- the parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schurest",
        description="Exact Schur-block statistics for relative-entropy estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pair(p):
        p.add_argument("--rho", required=True, help="state JSON file")
        p.add_argument("--sigma", required=True, help="reference state JSON file")

    def add_out(p, formats=None, default=None):
        p.add_argument("--out", help="output file (default: stdout)")
        if formats:
            p.add_argument("--format", choices=formats, default=default or formats[0])

    p = sub.add_parser("dims", help="Young indices and block dimensions for one (n, d)")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--d", type=_positive_int, required=True)
    add_out(p, formats=["json", "csv"])
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("divergence", help="relative entropy and varentropy of a pair")
    add_pair(p)
    add_out(p)
    p.set_defaults(func=cmd_divergence)

    p = sub.add_parser("distribution", help="exact outcome table")
    add_pair(p)
    p.add_argument("--n", type=_positive_int, required=True)
    add_out(p, formats=["csv", "json"])
    p.set_defaults(func=cmd_distribution)

    p = sub.add_parser("estimate", help="estimator statistics with the MSE bound")
    add_pair(p)
    p.add_argument("--n", type=_positive_int, required=True)
    add_out(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("tail", help="exact tail masses and large-deviation bounds")
    add_pair(p)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--epsilon", type=_positive_float, required=True)
    add_out(p)
    p.set_defaults(func=cmd_tail)

    p = sub.add_parser("normality", help="KS distance to the normal limit per n")
    add_pair(p)
    p.add_argument("--n", type=_positive_int)
    p.add_argument("--n-range", dest="n_range", help="A:B:step, inclusive")
    add_out(p, formats=["csv", "json"])
    p.set_defaults(func=cmd_normality)

    p = sub.add_parser(
        "complexity-scan", help="tail mass vs. the sample-complexity bound per dimension"
    )
    p.add_argument("--d", type=_positive_int, nargs="+", default=[2, 3, 4])
    p.add_argument("--c", type=_positive_float, help="copies budget; default calibrates the bound to 0.25")
    p.add_argument("--epsilon", type=_positive_float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    add_out(p, formats=["csv", "json"])
    p.set_defaults(func=cmd_complexity_scan)

    p = sub.add_parser("verify", help="run the library invariant suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen-state", help="write reproducible test states")
    p.add_argument("kind", choices=["random_mixed", "random_pure_depolarized", "diagonal"])
    p.add_argument("--d", type=_positive_int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--spectrum", help="comma-separated eigenvalues")
    p.add_argument("--p", type=float, help="depolarization weight in [0, 1]")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_state)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        sys.stderr.write(f"error: {exc.category}: {exc}\n")
        return 2
    except BrokenPipeError:
        return 0
    except OSError as exc:
        sys.stderr.write(f"error: io: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
