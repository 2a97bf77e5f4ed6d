"""End-to-end tests of the command-line front end.

Everything runs through cli.main with explicit argv, so exit codes,
stdout payloads, stderr error lines, and output files are all exercised
exactly as a shell user would see them.
"""

import contextlib
import csv
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schurest.cli import main
from schurest.distribution import distribution
from schurest.estimator import estimate_report, tail_report
from schurest.partitions import total_schur_dim
from schurest.states import MAX_DIM, load_state, relative_entropy, relative_varentropy
from schurest.verification import run_verification


@pytest.fixture()
def states(tmp_path):
    half = tmp_path / "half.json"
    rho = tmp_path / "rho.json"
    sigma = tmp_path / "sigma.json"
    assert main(["gen-state", "diagonal", "--spectrum", "0.5,0.5", "--out", str(half)]) == 0
    assert main(["gen-state", "random_mixed", "--d", "2", "--seed", "5", "--out", str(rho)]) == 0
    assert main(["gen-state", "random_mixed", "--d", "2", "--seed", "99", "--out", str(sigma)]) == 0
    return {"half": str(half), "rho": str(rho), "sigma": str(sigma)}


@pytest.fixture(scope="module")
def readme_pair(tmp_path_factory):
    # the qubit pair of the README walkthrough
    return write_pair(tmp_path_factory.mktemp("readme"), 2, seeds=(7, 1007))


def write_pair(folder, d, seeds=(1, 2)):
    paths = [str(folder / f"{role}{d}.json") for role in ("rho", "sigma")]
    for path, seed in zip(paths, seeds):
        assert main(["gen-state", "random_mixed", "--d", str(d), "--seed", str(seed),
                     "--out", path]) == 0
    return paths


def run_main(argv):
    """(exit code, stdout, stderr) of one in-process run; argparse's own exit
    (status 2, a usage line and one error line) counts as a run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestGenState:
    def test_diagonal_round_trips_to_maximally_mixed(self, states):
        state = load_state(states["half"])
        assert np.allclose(state.mat, np.eye(2) / 2, atol=1e-15)

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert main(["gen-state", "random_mixed", "--d", "3", "--seed", "7",
                         "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_depolarized_state_is_valid(self, tmp_path):
        out = tmp_path / "dep.json"
        assert main(["gen-state", "random_pure_depolarized", "--d", "3", "--seed", "1",
                     "--p", "0.3", "--out", str(out)]) == 0
        state = load_state(str(out))
        assert state.dim == 3

    def test_depolarized_needs_p(self, tmp_path, capsys):
        code = main(["gen-state", "random_pure_depolarized", "--d", "2",
                     "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: parse:")

    @pytest.mark.parametrize("argv", [
        ["diagonal", "--spectrum", "nan,1"],
        ["random_mixed", "--d", "2", "--spectrum", "inf,1"],
    ])
    def test_rejects_non_finite_spectrum(self, tmp_path, capsys, argv):
        out = tmp_path / "x.json"
        assert main(["gen-state", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: parse:")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["diagonal", "--spectrum", "1e308,1e308"],
        ["random_mixed", "--d", "2", "--spectrum", "1e308,1e308"],
    ])
    def test_refuses_spectrum_whose_sum_overflows(self, tmp_path, argv):
        out = tmp_path / "x.json"
        code, _, err = run_main(["gen-state", *argv, "--out", str(out)])
        assert code == 2
        assert err == "error: validation: spectrum sum overflows a double\n"
        assert not out.exists()

    def test_diagonal_spectrum_bytes(self, tmp_path):
        out = tmp_path / "d.json"
        assert main(["gen-state", "diagonal", "--spectrum", "0.7,0.3", "--out", str(out)]) == 0
        assert out.read_bytes() == b'{"spectrum": [0.7, 0.3]}\n'

    def test_diagonal_needs_spectrum(self, tmp_path, capsys):
        code = main(["gen-state", "diagonal", "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestEstimate:
    def test_trivial_point_report(self, states, capsys):
        assert main(["estimate", "--rho", states["half"], "--sigma", states["half"],
                     "--n", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        expected = math.log(2) ** 2
        assert payload["mse"] == pytest.approx(expected, abs=1e-12)
        assert payload["mse_bound"] == pytest.approx(expected, abs=1e-12)
        assert payload["ks"] is None
        assert list(payload) == ["n", "d", "D", "V", "mean_x", "mse", "bias",
                                 "mse_star", "bias_star", "mse_bound", "ks"]

    def test_matches_library_report(self, states, capsys):
        assert main(["estimate", "--rho", states["rho"], "--sigma", states["sigma"],
                     "--n", "4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        report = estimate_report(load_state(states["rho"]), load_state(states["sigma"]), 4)
        assert payload["D"] == pytest.approx(report.relative_entropy, abs=1e-15)
        assert payload["mse"] == pytest.approx(report.mse, abs=1e-15)
        assert payload["ks"] == pytest.approx(report.ks, abs=1e-15)

    def test_rerun_is_byte_identical(self, states, tmp_path):
        # a run at another n in between, so the rerun rebuilds its outcome
        # table (distribution keeps only the last one) as a new process would
        outputs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            assert main(["estimate", "--rho", states["rho"], "--sigma", states["sigma"],
                         "--n", "5", "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
            assert main(["estimate", "--rho", states["rho"], "--sigma", states["sigma"],
                         "--n", "4", "--out", str(tmp_path / "other.json")]) == 0
        assert outputs[0] == outputs[1]

    def test_five_levels(self, tmp_path, capsys):
        rho, sigma = write_pair(tmp_path, 5)
        assert main(["estimate", "--rho", rho, "--sigma", sigma, "--n", "8"]) == 0
        assert json.loads(capsys.readouterr().out)["d"] == 5


class TestDistribution:
    def test_csv_matches_library(self, states, capsys):
        assert main(["distribution", "--rho", states["rho"], "--sigma", states["sigma"],
                     "--n", "3"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "lambda,mu,p,q_unit,multiplicity,x,x_star"
        dist = distribution(load_state(states["rho"]), load_state(states["sigma"]), 3)
        assert len(lines) - 1 == len(dist)
        for line, p, log_q in zip(lines[1:], dist.p, dist.log_q):
            cells = line.split(",")
            assert float(cells[2]) == float(p)  # repr round-trips exactly
            assert float(cells[3]) == pytest.approx(math.exp(log_q), rel=1e-15)

    def test_json_variant_has_metadata(self, states, capsys):
        assert main(["distribution", "--rho", states["rho"], "--sigma", states["sigma"],
                     "--n", "2", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 2 and payload["d"] == 2
        assert payload["backend"] == "jacobi_trudi"
        assert len(payload["sigma_spectrum"]) == 2
        assert {"lambda", "mu", "p", "q_unit", "multiplicity", "x", "x_star"} == set(
            payload["atoms"][0]
        )

    def test_backend_flag(self, states):
        # one engine runs at every d; the option is gone
        with pytest.raises(SystemExit) as exc:
            main(["distribution", "--rho", states["rho"], "--sigma", states["sigma"],
                  "--n", "3", "--backend", "brute"])
        assert exc.value.code == 2

    def test_refuses_past_the_work_guard(self, tmp_path, capsys):
        rho, sigma = write_pair(tmp_path, 64)
        assert main(["distribution", "--rho", rho, "--sigma", sigma, "--n", "1"]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: compute:")
        assert captured.out == ""


class TestDims:
    def test_json_totals(self, capsys):
        assert main(["dims", "--n", "4", "--d", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        summary = total_schur_dim(4, 3)
        assert payload["count"] == summary.count
        assert payload["total_dim"] == summary.total
        assert len(payload["blocks"]) == summary.count
        assert sum(b["weyl_dim"] * b["sn_dim"] for b in payload["blocks"]) == 3**4

    def test_csv_rows(self, capsys):
        assert main(["dims", "--n", "5", "--d", "2", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "young,weyl_dim,sn_dim"
        assert len(lines) - 1 == total_schur_dim(5, 2).count

    @pytest.mark.parametrize("n,d", [("200", "9"), ("1000000000", "2")])
    def test_refuses_too_many_blocks(self, capsys, n, d):
        # (200, 9) has 405,047,836 Young indices; enumerating them runs out of memory
        assert main(["dims", "--n", n, "--d", d]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: validation:")
        assert captured.out == ""

    def test_refuses_blocks_past_the_digit_limit(self, capsys):
        # sn_dim((10000, 10000)) has 6,015 digits, past the default int-to-str
        # limit of 4,300, which is checked before the count guard
        start = time.perf_counter()
        assert main(["dims", "--n", "20000", "--d", "2"]) == 2
        assert time.perf_counter() - start < 5
        captured = capsys.readouterr()
        assert captured.err.startswith("error: validation:")
        assert captured.out == ""

    @pytest.mark.parametrize("n,d", [("14000", "2"), ("1000", "3")])
    def test_refuses_blocks_with_long_dimensions(self, n, d):
        # charged d^2 a block, (14000, 2) passed the guard and took 19 s, most
        # of it in math.comb on integers of up to 4,200 digits inside sn_dim
        start = time.perf_counter()
        code, out, err = run_main(["dims", "--n", n, "--d", d])
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err.startswith("error: validation:")

    def test_csv_text(self, capsys):
        assert main(["dims", "--n", "8", "--d", "3", "--format", "csv"]) == 0
        assert capsys.readouterr().out == (
            "young,weyl_dim,sn_dim\n0 0 8,45,1\n0 1 7,63,7\n0 2 6,60,20\n0 3 5,42,28\n"
            "0 4 4,15,14\n1 1 6,21,21\n1 2 5,24,64\n1 3 4,15,70\n2 2 4,6,56\n2 3 3,3,42\n"
        )

    @given(d=st.integers(-5, 10**25), n=st.integers(-5, 10**6))
    @example(d=100_000, n=3)
    @example(d=10**10, n=1)
    @example(d=99999999999999999999999, n=2)
    @example(d=1000, n=3)
    @example(d=1, n=2**63)  # past young_columns' int64 parts
    @example(d=1, n=10**400)
    @example(d=2, n=10**400)  # n log10(d) is past the float range
    @settings(max_examples=60, deadline=None)
    def test_any_dimension_fails_cleanly(self, d, n):
        # every block prints d parts: a huge d must be refused before enumerating
        for argv in (["dims", f"--n={n}", f"--d={d}"],
                     ["complexity-scan", f"--d={d}", "--c", "1"]):
            start = time.perf_counter()
            code, out, err = run_main(argv)
            assert time.perf_counter() - start < 30, argv
            assert code in (0, 2), argv
            if code == 2:
                assert sum("error:" in line for line in err.splitlines()) == 1, err
                assert out == ""

    def test_one_level_is_instant_for_any_n(self, capsys):
        start = time.perf_counter()
        assert main(["dims", "--n", "1000000000", "--d", "1"]) == 0
        assert time.perf_counter() - start < 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["blocks"] == [{"young": [10**9], "weyl_dim": 1, "sn_dim": 1}]


class TestDivergence:
    def test_matches_library(self, states, capsys):
        assert main(["divergence", "--rho", states["rho"], "--sigma", states["sigma"]]) == 0
        payload = json.loads(capsys.readouterr().out)
        rho, sigma = load_state(states["rho"]), load_state(states["sigma"])
        assert payload["relative_entropy"] == pytest.approx(relative_entropy(rho, sigma), abs=1e-15)
        assert payload["varentropy"] == pytest.approx(relative_varentropy(rho, sigma), abs=1e-15)


class TestTail:
    def test_matches_library(self, states, capsys):
        assert main(["tail", "--rho", states["rho"], "--sigma", states["sigma"],
                     "--n", "4", "--epsilon", "0.6"]) == 0
        payload = json.loads(capsys.readouterr().out)
        report = tail_report(load_state(states["rho"]), load_state(states["sigma"]), 4, 0.6)
        assert payload["delta_plus"] == pytest.approx(report.delta_plus, abs=1e-15)
        assert payload["delta_minus"] == pytest.approx(report.delta_minus, abs=1e-15)
        assert payload["bound_plus"] == pytest.approx(report.bound_plus, rel=1e-12)

    def test_epsilon_must_be_positive(self, states):
        with pytest.raises(SystemExit):
            main(["tail", "--rho", states["rho"], "--sigma", states["sigma"],
                  "--n", "4", "--epsilon", "-1"])

    @given(log_epsilon=st.floats(min_value=-6, max_value=6), n=st.integers(1, 8))
    @example(log_epsilon=3.0, n=4)  # both terms of the split bound underflow
    @settings(max_examples=40, deadline=None)
    def test_any_epsilon_and_n_give_valid_bounds(self, readme_pair, log_epsilon, n):
        rho, sigma = readme_pair
        code, out, err = run_main(["tail", "--rho", rho, "--sigma", sigma, "--n", str(n),
                                   "--epsilon", repr(10.0**log_epsilon)])
        assert code == 0, err
        payload = json.loads(out)
        assert payload["bound_plus"] >= payload["delta_plus"]
        assert payload["bound_minus"] >= payload["delta_minus"]


class TestNormality:
    def test_range_rows(self, states, capsys):
        assert main(["normality", "--rho", states["rho"], "--sigma", states["sigma"],
                     "--n-range", "2:6:2"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "n,ks"
        assert [int(line.split(",")[0]) for line in lines[1:]] == [2, 4, 6]
        for line in lines[1:]:
            assert 0 < float(line.split(",")[1]) <= 1

    def test_exactly_one_n_choice(self, states, capsys):
        assert main(["normality", "--rho", states["rho"], "--sigma", states["sigma"]]) == 2
        assert main(["normality", "--rho", states["rho"], "--sigma", states["sigma"],
                     "--n", "3", "--n-range", "2:4"]) == 2
        err = capsys.readouterr().err
        assert err.count("error: parse:") == 2

    def test_bad_range(self, states, capsys):
        assert main(["normality", "--rho", states["rho"], "--sigma", states["sigma"],
                     "--n-range", "5:4"]) == 2
        assert "empty" in capsys.readouterr().err

    def test_refuses_a_range_past_the_limits_before_computing(self, tmp_path, capsys):
        # n = 24 alone takes seconds at d = 4; n = 31 is past JT_MAX_N
        rho, sigma = write_pair(tmp_path, 4)
        start = time.perf_counter()
        code = main(["normality", "--rho", rho, "--sigma", sigma, "--n-range", "24:31:7"])
        assert time.perf_counter() - start < 1
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: compute: n=31: ")

    def test_huge_range_fails_cleanly_without_listing_it(self, states, capsys):
        # a list of 10^12 copy counts would exhaust memory before the size check
        start = time.perf_counter()
        code = main(["normality", "--rho", states["rho"], "--sigma", states["sigma"],
                     "--n-range", "1:1000000000000"])
        assert time.perf_counter() - start < 1
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: compute: ")


class TestComplexityScan:
    def test_small_budget_row(self, capsys):
        assert main(["complexity-scan", "--d", "2", "--c", "20"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        header = lines[0].split(",")
        assert header[:4] == ["d", "n", "tail_mass", "bound_simple"]
        cells = lines[1].split(",")
        assert cells[0] == "2" and cells[1] == "80"
        assert float(cells[2]) <= 1.0

    def test_json_format_and_determinism(self, tmp_path):
        outs = []
        for name in ("s1.json", "s2.json"):
            out = tmp_path / name
            assert main(["complexity-scan", "--d", "2", "--c", "12", "--format", "json",
                         "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        rows = json.loads(outs[0].decode())["rows"]
        assert rows[0]["d"] == 2 and rows[0]["n"] == 48
        log_dp = rows[0]["log_delta_plus"]
        assert log_dp is None or isinstance(log_dp, float)

    def test_rejects_large_dimension(self, capsys):
        assert main(["complexity-scan", "--d", "7", "--c", "1"]) == 2
        assert "error: validation:" in capsys.readouterr().err

    @pytest.mark.parametrize("d,c", [("4", "1000"), ("4", "1e300"), ("2", "1e6")])
    def test_refuses_an_oversized_budget_before_scanning(self, d, c):
        # (4, 1000) asks for n = 16,000, about 2.8e10 Young indices
        start = time.perf_counter()
        code, out, err = run_main(["complexity-scan", "--d", d, "--c", c])
        assert time.perf_counter() - start < 5
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: compute: d={d}: scan")

    @given(epsilon=st.floats(min_value=-300, max_value=300).map(lambda e: 10.0**e),
           budget=st.sampled_from([(), ("--c", "1")]))
    @example(epsilon=1e-300, budget=())
    @example(epsilon=1e-300, budget=("--c", "1"))
    @example(epsilon=1e300, budget=())
    @example(epsilon=1e300, budget=("--c", "1"))
    @example(epsilon=1e-160, budget=())  # the calibrated budget is inf
    @example(epsilon=1e-160, budget=("--c", "1"))
    @settings(max_examples=40, deadline=None)
    def test_any_epsilon_fails_cleanly(self, epsilon, budget):
        # the budget and the bounds divide by epsilon^2
        code, out, err = run_main(["complexity-scan", "--d", "2", "--epsilon", repr(epsilon),
                                   *budget])
        assert code in (0, 2), err
        if code == 2:
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:"), err
            assert out == ""


# argv (with {rho} and {sigma} for the state files) and the JSON key of each table report
TABLES = {
    "dims": (["dims", "--n", "6", "--d", "3"], "blocks"),
    "distribution": (["distribution", "--rho", "{rho}", "--sigma", "{sigma}", "--n", "4"], "atoms"),
    "normality": (["normality", "--rho", "{rho}", "--sigma", "{sigma}", "--n-range", "2:8:3"],
                  "rows"),
    # at c = 0.2 the upper tail set is empty, so log_delta_plus is -inf
    "complexity-scan": (["complexity-scan", "--d", "2", "--c", "0.2"], "rows"),
}


@pytest.mark.parametrize("command", sorted(TABLES))
def test_json_rows_are_the_csv_rows(states, command):
    template, key = TABLES[command]
    argv = [arg.format(**states) for arg in template]
    outputs = {}
    for fmt in ("csv", "json"):
        code, outputs[fmt], err = run_main(argv + ["--format", fmt])
        assert code == 0 and err == ""
    header, *lines = csv.reader(io.StringIO(outputs["csv"]))
    rows = json.loads(outputs["json"])[key]
    assert len(rows) == len(lines) > 0
    nulls = 0
    for line, row in zip(lines, rows):
        assert list(row) == header
        for cell, value in zip(line, row.values()):
            if value is None:
                nulls += 1
                assert not math.isfinite(float(cell))
            elif isinstance(value, list):
                assert cell == " ".join(map(str, value))
            else:
                assert cell == (repr(value) if isinstance(value, float) else str(value))
    assert (nulls > 0) == (command == "complexity-scan")


@pytest.mark.parametrize("argv", [
    ["complexity-scan", "--d", "2", "--seed", "-5"],
    ["verify", "--seed", "-3"],
    ["gen-state", "random_mixed", "--d", "2", "--seed", "-1", "--out", "{tmp}/rho.json"],
])
def test_negative_seed_is_a_parse_error(tmp_path, argv):
    # numpy's default_rng refuses it; unchecked, the scan raised and verify
    # reported failed invariant families
    code, out, err = run_main([arg.format(tmp=tmp_path) for arg in argv])
    assert code == 2 and out == ""
    assert err.endswith("error: argument --seed: must be >= 0\n")


# Any JSON value, with the keys a state file uses drawn often.
json_scalars = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5)
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(
        st.sampled_from(["spectrum", "re", "im", "dim"]) | st.text(max_size=3),
        children,
        max_size=4,
    ),
    max_leaves=20,
)


class TestErrors:
    def test_missing_file(self, tmp_path, capsys):
        code = main(["divergence", "--rho", str(tmp_path / "nope.json"),
                     "--sigma", str(tmp_path / "nope.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: io:")

    def test_invalid_state_payload(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"spectrum": [0.9, 0.4]}\n')  # trace far from one
        code = main(["divergence", "--rho", str(bad), "--sigma", str(bad)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: validation:")

    @pytest.mark.parametrize("payload", [
        '{"spectrum": 5}\n',
        '[[0.5, 0], [0, 0.5]]\n',
        '{"spectrum": [NaN, 0.5]}\n',
        '{"spectrum": [Infinity, 0.5]}\n',
        '{"dim": 1e400, "re": [[1.0]]}\n',
        '{"re": [[1e308, 1e308], [1e308, 1e308]]}\n',
        '{"re": [[0.5, 0], [0, 0.5]], "im": 0}\n',
        '{"re": [[0.5, 0], [0, 0.5]], "im": [[0.0]]}\n',
        '{"spectrum": "1"}\n',
        '{"spectrum": [0.5, 0.5], "re": [[0.5, 0], [0, 0.5]]}\n',
        '{"spectrum": [0.5, 0.5], "dim": 3}\n',
        '{"spectrum": [0.5, 0.5], "dim": 2.0}\n',
        '{"re": [[0.5, 0], [0, 0.5]], "dim": 2.0}\n',
        '{"re": [[1.0]], "dim": true}\n',
        '"state"\n',
        pytest.param("[" * 100_000 + "]" * 100_000 + "\n", id="nested-100000-deep"),
    ])
    def test_malformed_state_file(self, tmp_path, capsys, payload):
        bad = tmp_path / "bad.json"
        bad.write_text(payload)
        code = main(["divergence", "--rho", str(bad), "--sigma", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: validation:")
        assert len(err.splitlines()) == 1

    @given(payload=json_values)
    @settings(max_examples=150, deadline=None)
    def test_any_json_state_file_fails_cleanly(self, payload):
        with tempfile.TemporaryDirectory() as tmp:
            rho = Path(tmp) / "rho.json"
            sigma = Path(tmp) / "sigma.json"
            rho.write_text(json.dumps(payload))
            sigma.write_text('{"spectrum": [0.5, 0.5]}')
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["divergence", "--rho", str(rho), "--sigma", str(sigma)])
        assert code in (0, 2)
        if code == 2:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")
            assert out.getvalue() == ""

    @pytest.mark.parametrize("argv", [
        ["dims", "--n", "2", "--d", "2"],
        ["gen-state", "diagonal", "--spectrum", "1,1"],
    ])
    def test_unwritable_out(self, tmp_path, capsys, argv):
        code = main(argv + ["--out", str(tmp_path / "missing" / "out.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: io:")

    def test_dimension_mismatch(self, tmp_path, states, capsys):
        other = tmp_path / "qutrit.json"
        assert main(["gen-state", "random_mixed", "--d", "3", "--seed", "1",
                     "--out", str(other)]) == 0
        code = main(["divergence", "--rho", states["rho"], "--sigma", str(other)])
        assert code == 2
        assert "different dimensions" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["divergence"], ["normality", "--n", "4"], ["estimate", "--n", "4"],
        ["tail", "--n", "4", "--epsilon", "0.5"],
    ], ids=["divergence", "normality", "estimate", "tail"])
    def test_support_violation_is_one_validation_error(self, tmp_path, command):
        # rho = |0><0| lies outside the support of sigma = |1><1|
        pair = []
        for role, spectrum in (("rho", "1,0"), ("sigma", "0,1")):
            pair += [f"--{role}", str(tmp_path / f"{role}.json")]
            assert main(["gen-state", "diagonal", "--spectrum", spectrum, "--out", pair[-1]]) == 0
        code, out, err = run_main(command + pair)
        assert (code, out) == (2, "")
        assert err == "error: validation: relative entropy is infinite (support violation)\n"

    @pytest.mark.parametrize("command", [
        ["estimate", "--n", "3"], ["tail", "--n", "3", "--epsilon", "0.3"],
        ["distribution", "--n", "3"], ["normality", "--n", "3"], ["divergence"],
    ], ids=["estimate", "tail", "distribution", "normality", "divergence"])
    def test_singular_reference_is_one_validation_error(self, tmp_path, command):
        # rho lies inside the support of a rank-2 sigma: D is finite, but the
        # measurement needs a full-rank reference state
        pair = []
        for role, spectrum in (("rho", "0.7,0.3,0"), ("sigma", "0.5,0.5,0")):
            pair += [f"--{role}", str(tmp_path / f"{role}.json")]
            assert main(["gen-state", "diagonal", "--spectrum", spectrum, "--out", pair[-1]]) == 0
        code, out, err = run_main(command + pair)
        if command == ["divergence"]:
            assert (code, err) == (0, "")
            return
        assert (code, out) == (2, "")
        assert err == ("error: validation: reference state must be full rank "
                       "(min eigenvalue 0.000e+00)\n")

    @pytest.mark.parametrize("entry", ["divergence", "diagonal", "random_mixed"])
    def test_oversized_state_is_one_validation_error(self, tmp_path, entry):
        # one entry past MAX_DIM is refused before any d x d array is built
        d, path = MAX_DIM + 1, str(tmp_path / "state.json")
        if entry == "divergence":
            Path(path).write_text(json.dumps({"spectrum": [1 / d] * d}))
            argv = ["divergence", "--rho", path, "--sigma", path]
        elif entry == "diagonal":
            argv = ["gen-state", "diagonal", "--spectrum", ",".join(["1"] * d), "--out", path]
        else:
            argv = ["gen-state", "random_mixed", "--d", str(d), "--out", path]
        code, out, err = run_main(argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: validation: ") and len(err.splitlines()) == 1
        assert f"state dimension {d} is above the limit of {MAX_DIM}" in err

    @pytest.mark.parametrize("command,flag,value", [
        ("tail", "--epsilon", "inf"),
        ("tail", "--epsilon", "nan"),
        ("complexity-scan", "--c", "inf"),
    ])
    def test_rejects_non_finite_numbers(self, states, command, flag, value):
        argv = ["complexity-scan", "--d", "2"] if command == "complexity-scan" else [
            "tail", "--rho", states["rho"], "--sigma", states["sigma"], "--n", "4"]
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, value])
        assert exc.value.code == 2

    @given(
        choice=st.one_of(
            st.tuples(st.sampled_from(["estimate", "distribution", "normality"]),
                      st.integers(1, 40).map(lambda n: f"--n={n}")),
            st.tuples(st.just("normality"),
                      st.lists(st.integers(-2, 40), min_size=2, max_size=3)
                      .map(lambda fields: "--n-range=" + ":".join(map(str, fields)))),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_any_copy_count_fails_cleanly(self, readme_pair, choice):
        command, n_arg = choice
        rho, sigma = readme_pair
        code, out, err = run_main([command, "--rho", rho, "--sigma", sigma, n_arg])
        assert code in (0, 2)
        if code == 2:
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")
            assert out == ""

    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main([])


class TestVerify:
    def test_all_families_pass(self):
        results = run_verification(seed=0)
        failures = [(name, detail) for name, ok, detail in results if not ok]
        assert failures == []
        assert len(results) >= 20

    def test_cli_exit_and_report(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "[FAIL]" not in out
        assert out.strip().endswith("invariant families hold")


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "schurest.cli", "dims", "--n", "2", "--d", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["total_dim"] == 4

    def test_console_script_if_installed(self):
        exe = shutil.which("schurest")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run([exe, "dims", "--n", "2", "--d", "2"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
