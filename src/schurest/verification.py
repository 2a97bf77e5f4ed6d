"""The claims behind the `verify` subcommand.

Each family checks one of the paper's finite-size claims, or the CLI's
byte-identical rerun contract, against the library's own outputs on a
fixed seeded corpus: the SLD Fisher inner product Tr rho L^2 equals the
relative varentropy V (the Cramer-Rao-type constant), the exact MSE stays
below its bound, and the exact tail masses stay below their bounds.  A
family passes silently; any violation (or unexpected exception) is
reported with a one-line detail.  The corpus is small on purpose: verify
is the fast self-check a user can run after install.  The combinatorial
identities, divergence axioms and distribution properties, and every check
against an independent reference computation, live in the test tree.
"""

from __future__ import annotations

import json
import os
import tempfile
from functools import lru_cache

from .estimator import estimate_report, tail_report
from .states import DensityMatrix, random_mixed, relative_varentropy, sld_quantities


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


@lru_cache(maxsize=64)
def _pair(d: int, seed: int) -> tuple[DensityMatrix, DensityMatrix]:
    return (
        random_mixed(d, seed, floor=0.05),
        random_mixed(d, seed + 1000, floor=0.05),
    )


def _family_fisher_inner(seed: int) -> None:
    for d in (2, 3):
        for i in range(5):
            rho, sigma = _pair(d, seed + 11 * i)
            inner = sld_quantities(rho, sigma).inner
            varentropy = relative_varentropy(rho, sigma)
            _check(abs(inner - varentropy) <= 1e-10, f"inner != varentropy at d={d}, i={i}")


def _family_mse_bound(seed: int) -> None:
    for d, n in ((2, 5), (3, 4)):
        rho, sigma = _pair(d, seed + 41)
        report = estimate_report(rho, sigma, n)
        _check(
            report.mse <= report.mse_bound + 1e-9,
            f"MSE {report.mse!r} exceeds bound {report.mse_bound!r} at d={d}, n={n}",
        )


def _family_tail_dominance(seed: int) -> None:
    for s in (seed, seed + 1):
        rho, sigma = _pair(2, s + 47)
        for n in (4, 8):
            for eps in (0.5, 1.5):
                report = tail_report(rho, sigma, n, eps)
                _check(
                    report.delta_plus <= report.bound_plus + 1e-12,
                    f"upper tail exceeds its bound at n={n}, eps={eps}",
                )
                _check(
                    report.delta_minus <= report.bound_minus + 1e-12,
                    f"lower tail exceeds its bound at n={n}, eps={eps}",
                )


def _family_byte_identical_rerun(seed: int) -> None:
    from .cli import main

    with tempfile.TemporaryDirectory() as tmp:
        rho_path = os.path.join(tmp, "rho.json")
        sigma_path = os.path.join(tmp, "sigma.json")
        _check(
            main(["gen-state", "random_mixed", "--d", "2", "--seed", str(seed), "--out", rho_path]) == 0,
            "gen-state failed",
        )
        _check(
            main(["gen-state", "diagonal", "--spectrum", "0.7,0.3", "--out", sigma_path]) == 0,
            "gen-state (diagonal) failed",
        )
        # the two commands alternate, so each rerun rebuilds its outcome table
        # (distribution keeps only the last one) as a fresh process would
        outputs, csvs = [], []
        for run in (1, 2):
            out = os.path.join(tmp, f"report{run}.json")
            code = main(
                ["estimate", "--rho", rho_path, "--sigma", sigma_path, "--n", "4", "--out", out]
            )
            _check(code == 0, f"estimate run {run} exited {code}")
            with open(out, "rb") as fh:
                outputs.append(fh.read())
            out = os.path.join(tmp, f"table{run}.csv")
            code = main(
                ["distribution", "--rho", rho_path, "--sigma", sigma_path, "--n", "3", "--out", out]
            )
            _check(code == 0, f"distribution run {run} exited {code}")
            with open(out, "rb") as fh:
                csvs.append(fh.read())
        _check(outputs[0] == outputs[1], "estimate reruns differ byte-wise")
        _check(csvs[0] == csvs[1], "distribution reruns differ byte-wise")
        payload = json.loads(outputs[0].decode())
        _check(payload["n"] == 4 and payload["d"] == 2, "estimate report keys broken")


FAMILIES = [
    ("fisher inner product equals varentropy", _family_fisher_inner),
    ("MSE bound", _family_mse_bound),
    ("tail bounds dominate exact tails", _family_tail_dominance),
    ("byte-identical reruns", _family_byte_identical_rerun),
]


def run_verification(seed: int = 0) -> list[tuple[str, bool, str]]:
    """Run every family; returns (name, passed, detail) triples in order."""
    results = []
    for name, family in FAMILIES:
        try:
            family(seed)
            results.append((name, True, ""))
        except AssertionError as exc:
            results.append((name, False, str(exc) or "assertion failed"))
        except Exception as exc:  # an unexpected crash is also a failure
            results.append((name, False, f"{type(exc).__name__}: {exc}"))
    return results
