"""Batch command-line front end.

Subcommands:
    dims             block table for one (n, d): Young indices and dimensions
    divergence       relative entropy and varentropy of a state pair
    distribution     exact outcome table as CSV or JSON
    estimate         single-instance estimator report (JSON)
    tail             exact two-sided tail masses plus their optimized bounds
    normality        KS distance against the normal limit over a range of n
    complexity-scan  copies-versus-dimension tail check at calibrated budgets
    verify           check the paper's finite-size claims and the rerun contract
    gen-state        write reproducible test states to JSON files

Every command is a pure function of its argument list: floats serialize
via repr (the shortest form that round-trips to the same double), rows
come out sorted, and no timestamps or environment details are written,
so re-running a command reproduces its report byte for byte.  The four
table commands (dims, distribution, normality, complexity-scan) write the
same columns as CSV or as JSON objects, one per row; JSON writes a
non-finite cell as null.  Parse, validation, compute and io failures exit
with status 2 and one line on stderr, its category picked in main (a library
InputError is validation); verify exits with status 1 when a family fails.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict, astuple, fields

import numpy as np

from .estimator import estimate_report, normality_report, tail_report
from .distribution import check_size, distribution
from .partitions import enumerate_young, sn_dim, weyl_dim, young_count
from .scaling import (SCAN_MAX_D, ComplexityRow, calibrated_budget, complexity_row,
                      varentropy_scale_proxy)
from .states import (
    DensityMatrix,
    InputError,
    diagonal_state,
    divergence_moments,
    load_state,
    random_mixed,
    random_pure_depolarized,
    save_state,
    sigma_spectrum,
)

# every block dims prints has d parts, weyl_dim takes up to d^2 factors and
# sn_dim multiplies integers of up to n log10(d) digits, so the Young-index
# count times d^2 + ceil(n log10 d) must stay below this; the slowest sizes
# it admits, (5147, 2) and (51, 8), take 2-4 s on a 2-vCPU VM.  Every d above 2,000 has a cap of 0.
DIMS_MAX_WORK = 4_000_000


class CliError(Exception):
    """Structured failure: category decides the stderr prefix."""

    def __init__(self, category: str, message: str):
        super().__init__(message)
        self.category = category


# -------------------------------------------------------------- serialization


def _cell(value) -> str:
    if isinstance(value, tuple):
        return " ".join(map(str, value))
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def _emit_json(payload, out: str | None) -> None:
    _emit(json.dumps(payload, indent=2, allow_nan=False) + "\n", out)


def _emit_table(args, header, rows, key, **meta) -> None:
    """Write one table report as CSV (the header, then one line per row) or
    as JSON (`meta`, then the rows under `key` as objects keyed by the
    header, a non-finite float cell as null)."""
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)
        _emit(buf.getvalue(), args.out)
        return
    table = [
        {
            name: None if isinstance(v, float) and not math.isfinite(v) else v
            for name, v in zip(header, row)
        }
        for row in rows
    ]
    _emit_json({**meta, key: table}, args.out)


# ------------------------------------------------------------------ arguments


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}")
        return value

    return parse


_positive_int = _int_at_least(1)
_seed = _int_at_least(0)  # numpy's default_rng takes no negative seed


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError("must be finite and > 0")
    return value


def _parse_n_range(text: str) -> range:
    """A:B:step, inclusive ends; step defaults to 1 when omitted.

    The range stays lazy, so a huge one costs nothing until it is walked.
    """
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
    values = range(start, stop + 1, step)
    if not values:  # truth, not len(): len() overflows past sys.maxsize
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
    if sum(values) == math.inf:
        raise CliError("validation", "spectrum sum overflows a double")
    return values


def _load_density(path: str, label: str) -> DensityMatrix:
    try:
        return load_state(path)
    except FileNotFoundError:
        raise CliError("io", f"{label} file not found: {path}")
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise CliError("validation", f"{label} file {path}: {exc}")


def _load_pair(args) -> tuple[DensityMatrix, DensityMatrix]:
    return _load_density(args.rho, "rho"), _load_density(args.sigma, "sigma")


# ----------------------------------------------------------------- subcommands


def cmd_dims(args) -> int:
    # sn_dim < d^n has at most n log10(d) digits; past the interpreter's
    # int-to-str limit it could not be written out.  n is compared with a
    # float, which Python does exactly, so no n is too large to convert
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digit_limit and args.d > 1 and args.n > digit_limit / math.log10(args.d):
        raise CliError(
            "validation", f"dims limited to sn_dim below {digit_limit} digits; (n, d) = "
            f"({args.n}, {args.d}) may pass it"
        )
    if args.n >= 2**63:  # young_columns holds int64 parts
        raise CliError("validation", f"dims limited to n below 2^63, got n = {args.n}")
    charge = args.d * args.d + math.ceil(args.n * math.log10(args.d))
    cap = DIMS_MAX_WORK // charge
    if young_count(args.n, args.d, cap) > cap:
        raise CliError(
            "validation", f"dims limited to Young indices times (d^2 + n log10 d) <= "
            f"{DIMS_MAX_WORK}; (n, d) = ({args.n}, {args.d}) passes it"
        )
    blocks = [(y, weyl_dim(y), sn_dim(y)[0]) for y in enumerate_young(args.n, args.d)]
    total = sum(u for _, u, _ in blocks)
    _emit_table(
        args, ["young", "weyl_dim", "sn_dim"], blocks, "blocks", n=args.n, d=args.d,
        count=len(blocks), total_dim=total, log_total_dim=math.log(total),
    )
    return 0


def cmd_divergence(args) -> int:
    rho, sigma = _load_pair(args)
    div, varentropy = divergence_moments(rho, sigma)
    payload = {"d": rho.dim, "relative_entropy": div, "varentropy": varentropy}
    _emit_json(payload, args.out)
    return 0


def cmd_distribution(args) -> int:
    dist = distribution(*_load_pair(args), args.n)
    columns = (dist.p, np.exp(dist.log_q), dist.mult, dist.x, dist.x_star)
    rows = list(zip(dist.youngs, dist.weights, *(c.tolist() for c in columns)))
    _emit_table(
        args, ["lambda", "mu", "p", "q_unit", "multiplicity", "x", "x_star"], rows, "atoms",
        n=dist.n, d=dist.d, backend=dist.backend,
        sigma_spectrum=[float(v) for v in dist.sigma_values],
    )
    return 0


def cmd_estimate(args) -> int:
    report = estimate_report(*_load_pair(args), args.n)
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
    report = tail_report(rho, sigma, args.n, args.epsilon)
    _emit_json({"n": args.n, "d": rho.dim, **asdict(report)}, args.out)
    return 0


def cmd_normality(args) -> int:
    rho, sigma = _load_pair(args)
    div, varentropy = divergence_moments(rho, sigma)
    sigma_spectrum(sigma)  # a singular reference is reported before an oversized range
    if (args.n is None) == (args.n_range is None):
        raise CliError("parse", "normality needs exactly one of --n / --n-range")
    n_values = [args.n] if args.n is not None else _parse_n_range(args.n_range)
    if varentropy <= 0:
        raise CliError("validation", "varentropy is zero; no normal limit to compare to")
    for n in n_values:  # refuse an oversized range before computing any of it
        try:
            check_size(n, rho.dim)
        except ValueError as exc:
            raise CliError("compute", f"n={n}: {exc}")
    rows = []
    for n in n_values:
        try:
            dist = distribution(rho, sigma, n)
        except (ValueError, ArithmeticError) as exc:
            raise CliError("compute", f"n={n}: {exc}")
        rows.append((n, normality_report(dist, div, varentropy).ks))
    _emit_table(
        args, ["n", "ks"], rows, "rows", d=rho.dim, relative_entropy=div, varentropy=varentropy
    )
    return 0


def cmd_complexity_scan(args) -> int:
    # the budget and the bounds divide by epsilon^2
    if not 0 < args.epsilon * args.epsilon < math.inf:
        raise CliError("validation", f"epsilon = {args.epsilon!r} has a square outside the float range")
    rows = []
    for d in sorted(set(args.d)):
        if not 2 <= d <= SCAN_MAX_D:
            raise CliError("validation", f"complexity-scan supports d in [2, {SCAN_MAX_D}], got {d}")
        c0 = varentropy_scale_proxy(d, seeds=range(args.seed, args.seed + 8))
        c = args.c if args.c is not None else calibrated_budget(c0, epsilon=args.epsilon)
        if not math.isfinite(c):
            raise CliError("validation", f"epsilon = {args.epsilon!r} calibrates an infinite budget")
        try:
            row = complexity_row(d, c, c0, args.epsilon)
        except (ValueError, ArithmeticError) as exc:
            raise CliError("compute", f"d={d}: {exc}")
        rows.append(row)
    header = [f.name for f in fields(ComplexityRow)]
    _emit_table(args, header, list(map(astuple, rows)), "rows")
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
    if args.kind == "diagonal":
        if args.spectrum is None:
            raise CliError("parse", "diagonal states need --spectrum")
        raw = np.array(_parse_spectrum(args.spectrum), dtype=float)
        diagonal_state(raw / raw.sum())
        payload = {"spectrum": [float(v) for v in raw / raw.sum()]}
        with open(args.out, "w", newline="") as fh:
            json.dump(payload, fh)
            fh.write("\n")
        return 0
    if args.d is None:
        raise CliError("parse", f"{args.kind} needs --d")
    if args.kind == "random_mixed":
        spectrum = _parse_spectrum(args.spectrum) if args.spectrum else None
        state = random_mixed(args.d, args.seed, spectrum=spectrum)
    else:
        if args.p is None:
            raise CliError("parse", "random_pure_depolarized needs --p")
        state = random_pure_depolarized(args.d, args.seed, args.p)
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

    def add_out(p, formats=None):
        p.add_argument("--out", help="output file (default: stdout)")
        if formats:
            p.add_argument("--format", choices=formats, default=formats[0])

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
    p.add_argument("--seed", type=_seed, default=0)
    add_out(p, formats=["csv", "json"])
    p.set_defaults(func=cmd_complexity_scan)

    p = sub.add_parser("verify", help="check the paper's finite-size claims and the rerun contract")
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen-state", help="write reproducible test states")
    p.add_argument("kind", choices=["random_mixed", "random_pure_depolarized", "diagonal"])
    p.add_argument("--d", type=_positive_int)
    p.add_argument("--seed", type=_seed, default=0)
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
    except InputError as exc:
        sys.stderr.write(f"error: validation: {exc}\n")
        return 2
    except (ValueError, ArithmeticError) as exc:
        sys.stderr.write(f"error: compute: {exc}\n")
        return 2
    except BrokenPipeError:
        return 0
    except OSError as exc:
        sys.stderr.write(f"error: io: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
