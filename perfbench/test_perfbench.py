"""Smoke tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _run(workload, trace, cwd=ROOT, script=None):
    script = script or os.path.join(HERE, "run.py")
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0


@pytest.mark.parametrize("d", [2, 3, 4])
def test_block_count_oracle_matches_enumeration(d):
    from schurest.partitions import enumerate_young

    for n in range(0, 25):
        assert workloads.partition_count(n, d) == len(enumerate_young(n, d))


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", os.path.join(ROOT, "src"))
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    return str(tmp_path)


def test_corrupted_cli_output_counts_as_failure(workdir):
    wl = workloads.make("cli-cold", tiny=True)
    wl.setup(7, workdir)
    wl.capture_expected()
    wl.expected[0] = wl.expected[0].replace(b"0", b"1", 1)
    seg, _ = run.run_loop(wl, 0.0)
    assert seg.attempted == len(wl.argvs)
    assert seg.failed == 1
    assert "differs" in seg.problems[0]


def test_corrupted_block_count_counts_as_failure(workdir):
    wl = workloads.make("scan", tiny=True)
    wl.setup(7, workdir)
    wl.expected_blocks[1] += 1
    seg, _ = run.run_loop(wl, 0.0)
    assert seg.failed == seg.attempted == 1


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("exact-small", 0, cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_tail_percentile_keeps_ten_samples_beyond():
    summary = run.latency_summary([i / 1000 for i in range(1, 401)])
    assert summary["tail_percentile"] == 90.0 and summary["tail_beyond"] == 40
    assert run.latency_summary([0.001] * 99)["tail_percentile"] == 50.0
