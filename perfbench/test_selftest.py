"""Smoke-size self-test of the campaign benchmark.

    python3 -m pytest perfbench/test_selftest.py -q

Runs the command at ``--smoke`` size (one run per LET, one campaign) and
checks its output contract, that a tampered expected readout fails it,
and that it refuses to run without the simulator sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD = "paranoia-dense"


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOAD,
         "--smoke", *args],
        cwd=root, capture_output=True, text=True, timeout=600)


def _result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _checkout(tmp_path: Path, *, sources: bool) -> Path:
    """A copy of the benchmark's files, with or without ``src``."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if sources:
        (tmp_path / "src").symlink_to(ROOT / "src")
    return tmp_path


@pytest.mark.parametrize("trace, declared",
                         [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_prints_with_its_unit(trace, declared):
    proc = _run(ROOT, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    names = [metric["name"] for metric in SPEC[declared]]
    assert sorted(result["metrics"]) == sorted(names)
    for metric in SPEC[declared]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
        assert f" {metric['name']} " in proc.stdout
    assert " runs_failed " in proc.stdout
    assert "seed " in proc.stdout


def test_tampered_expected_readout_fails(tmp_path):
    root = _checkout(tmp_path, sources=True)
    path = root / "perfbench" / "expected" / f"{WORKLOAD}.json"
    record = json.loads(path.read_text())
    record["runs"] = {key: "0" * 32 for key in record["runs"]}
    path.write_text(json.dumps(record))
    proc = _run(root, "--trace", "0")
    assert proc.returncode != 0
    result = _result(proc)
    assert not result["correct"] and result["failed"] >= 1


def test_refuses_to_run_without_the_simulator(tmp_path):
    root = _checkout(tmp_path, sources=False)
    proc = _run(root, "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
