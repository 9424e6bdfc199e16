"""Checks of the benchmark itself; run with ``python3 -m pytest perfbench``.

The fingerprint test makes two full passes per workload, about two and a
half minutes on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.import_package()

import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_fingerprint(name, tmp_path):
    setup, run_pass = workloads.WORKLOADS[name]
    fingerprints = []
    for _ in range(2):
        bench = workloads.Bench(work_dir=tmp_path)
        run_pass(setup(7, tracing.NullTracer()), bench)
        assert bench.failed == 0, bench.failures
        fingerprints.append(bench.fingerprint())
    assert fingerprints[0] == fingerprints[1]


def test_fails_without_the_package(tmp_path):
    """With only BENCHMARK.json and the benchmark's files, the run must fail."""
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    command = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        command + ["--workload", "mixed10-verify", "--seed", "1", "--seconds", "1",
                   "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
