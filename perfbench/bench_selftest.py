"""Checks of the benchmark itself.

    python3 -m pytest perfbench/bench_selftest.py -q

The file name keeps the repository's test run from collecting it; the
count test runs every workload's traced pass twice (about a minute).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from critnum.groups import GroupType  # noqa: E402
from critnum.sumsets import GroupSubset  # noqa: E402
from critnum.witnesses import hfold_witness  # noqa: E402


def _traced_pass(workload: str, seed: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "passrun.py"), "--workload", workload, "--seed", str(seed),
         "--workers", str(run.WORKERS[workload]), "--trace", "1"],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(run.WORKERS))
def test_counts_repeat_between_traced_runs(workload):
    first, second = _traced_pass(workload, 7), _traced_pass(workload, 7)
    counts = [name for name, value in first["layers"].items() if isinstance(value, int)]
    for name in ("oracle.candidates", "oracle.generation_tests", "quotients.closure_bits.calls",
                 "sumsets.pairwise_bits.calls", "sumsets.translate_bits.calls"):
        assert name in counts
    assert {n: first["layers"][n] for n in counts} == {n: second["layers"][n] for n in counts}
    assert first["spans"] == second["spans"]


def test_refuses_workers_above_cpu_count(monkeypatch, capsys):
    def no_process(*args, **kwargs):
        raise AssertionError("a refused run must start no process")

    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(subprocess, "run", no_process)
    monkeypatch.setattr(subprocess, "Popen", no_process)
    code = run.main(["--workload", "verify_sweep", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert "refusing" in capsys.readouterr().err


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certificates_large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_item_tail_keeps_ten_samples_beyond():
    assert run.item_tail([5.0, 1.0, 3.0]) == 5.0
    samples = [float(i) for i in range(100)]
    assert run.item_tail(samples) == 89.0


def test_check_flags_wrong_answers():
    oracle_items = [("chi_h", 4, (20,)), ("cr_star", None, (19,))]
    attempted, failures = workloads.check("oracle_large", oracle_items, [11, 9])
    assert attempted == 2 and len(failures) == 1 and "cr_star" in failures[0]

    group = GroupType((12,))
    good = hfold_witness(group, 2)
    complete = GroupSubset(group, good.subset.bits | 1 << 11 | 1 << 10 | 1 << 9)
    forged = type(good)(group, "hfold", 2, complete, good.claimed_size, True, True, good.branch)
    items = [("hfold_witness", (12,), 2)] * 3
    attempted, failures = workloads.check("certificates_large", items, [good, forged, ValueError("x")])
    assert attempted == 3 and len(failures) == 2

    expected = (workloads.EXPECTED_DIR / "verify_cr.txt").read_text()
    attempted, failures = workloads.check("verify_sweep", ["cr", "cr"], [(0, expected, 3), (0, expected + " ", 4)])
    assert attempted == 7 and len(failures) == 4


def test_scaled_time_follows_sampled_speed():
    sampler = speed.SpeedSampler()
    ref = speed.REFERENCE_S
    # Calibrations at t = 0, 1, 2: at reference speed, half speed, reference speed.
    sampler.starts = [0.0, 1.0, 2.0]
    sampler.ends = [ref, 1.0 + 2 * ref, 2.0 + ref]
    # The stretch before the half-speed sample counts half; calibrations count nothing.
    assert sampler.scaled(0.5, 1.5) == pytest.approx((1.0 - 0.5) * 0.5 + (1.5 - 1.0 - 2 * ref))
    assert sampler.scaled(2.0 + ref, 3.0) == pytest.approx(1.0 - ref)
    assert speed.SpeedSampler().scaled(1.0, 3.5) == 2.5
