"""critnum benchmark: end-to-end metrics per workload, per-layer metrics traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a critnum checkout; critnum is imported from `src/`.
Workloads (see workloads.py): oracle_large, verify_sweep, certificates_large.

Each pass runs in a fresh interpreter (passrun.py), so `Layout` caches and
lazy set-up are paid as a `critnum` command pays them.  The run first
starts one untimed process that imports critnum (so byte-code compilation
is not counted), then SETUP_SAMPLES set-up-only processes, then passes
until the next one would end after S seconds (at least one).

--trace 0 reports the end-to-end metrics: the medians over the run's passes
of wall_s, cpu_s, item_p50_s, item_tail_s and peak_rss_mb, the median
set-up time, and ok_frac (the share of items answered correctly).  Set-up
times, and the times of one-process passes (oracle_large,
certificates_large), are scaled to a reference machine speed sampled while
they run (speed.py); the raw times are kept in the run record.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of the traced ones (counts from the first traced pass, times as
medians), the kernel probe, and trace.overhead_s, the traced minus the
untraced median wall time.

Every run writes its record (commit, Python, nproc, seed, load average
before and after), per-pass data and metrics to perfbench/out/, and the
traced passes' spans next to it.  The last line of standard output is the
JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# Pool size each workload passes to the oracle.
WORKERS = {"oracle_large": 1, "verify_sweep": 2, "certificates_large": 1}
SETUP_SAMPLES = 10
PASS_TIMEOUT_S = 150
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "item_p50_s": "s",
    "item_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _spawn(args: list[str]) -> dict:
    """Run passrun.py in a fresh interpreter; return its JSON and set-up time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    started = _now()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "passrun.py"), *args],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass {args} did not finish within {PASS_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"pass {args} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"pass {args} printed nothing:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["raw_setup_s"] = result["ready"] - started
    result["setup_s"] = result["raw_setup_s"] * result["setup_scale"]
    return result


def item_tail(times: list[float]) -> float:
    """Highest percentile with at least TAIL_BEYOND samples above it.

    With fewer than 2 * TAIL_BEYOND samples this is the slowest item.
    """
    ordered = sorted(times)
    if len(ordered) < 2 * TAIL_BEYOND:
        return ordered[-1]
    return ordered[-1 - TAIL_BEYOND]


def _commit() -> str:
    """The checked-out commit, read from .git when the checkout has one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _summarise(passes: list[dict]) -> dict:
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "item_p50_s": statistics.median(statistics.median(p["item_s"]) for p in passes),
        "item_tail_s": statistics.median(item_tail(p["item_s"]) for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "raw_wall_s": statistics.median(p["raw_wall_s"] for p in passes),
    }


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """Measure one run; return (result line, full record)."""
    workers = WORKERS[workload]
    cpus = os.cpu_count() or 1
    if workers > cpus:
        raise BenchError(f"{workload} needs {workers} workers but os.cpu_count() is {cpus}; refusing")
    if not (SRC / "critnum" / "__init__.py").is_file():
        raise BenchError(f"no critnum sources under {SRC}")
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "workers": workers,
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": cpus,
        "loadavg_before": list(os.getloadavg()),
    }
    _spawn(["--setup-only"])
    setups = [_spawn(["--setup-only"])["setup_s"] for _ in range(SETUP_SAMPLES)]
    base = ["--workload", workload, "--seed", str(seed), "--workers", str(workers)]
    plain: list[dict] = []
    traced: list[dict] = []
    start = _now()
    longest = 0.0
    while True:
        for use_trace in ((False, True) if trace else (False,)):
            args = list(base)
            if use_trace:
                spans = OUT_DIR / f"{tag}-pass{len(traced)}.spans.json"
                args += ["--trace", "1", "--spans", str(spans)]
            t0 = _now()
            result = _spawn(args)
            longest = max(longest, _now() - t0)
            (traced if use_trace else plain).append(result)
        step = longest * (2 if trace else 1)
        if _now() - start + step > seconds:
            break
    record["loadavg_after"] = list(os.getloadavg())
    all_passes = plain + traced
    attempted = sum(p["attempted"] for p in all_passes)
    failures = [f for p in all_passes for f in p["failures"]]
    summary = _summarise(plain)
    summary["setup_s"] = statistics.median(setups + [p["setup_s"] for p in all_passes])
    summary["ok_frac"] = 1 - len(failures) / attempted
    if trace:
        layers = dict(traced[0]["layers"])
        for name in layers:
            if not isinstance(layers[name], int):
                layers[name] = statistics.median(p["layers"][name] for p in traced)
        layers["trace.overhead_s"] = (
            statistics.median(p["raw_wall_s"] for p in traced) - statistics.median(p["raw_wall_s"] for p in plain)
        )
        metrics = {name: {"value": value, "unit": _layer_unit(name)} for name, value in layers.items()}
    else:
        metrics = {name: {"value": summary[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    line = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    record.update({
        "setup_samples_s": setups,
        "passes": [{k: v for k, v in p.items() if k not in ("layers",)} for p in plain],
        "traced_passes": [{k: v for k, v in p.items() if k not in ("item_s",)} for p in traced],
        "summary": summary,
        "failures": failures[:50],
        "result": line,
        "notes": "spans of the oracle's forked pool workers are not collected" if trace and workers > 1 else "",
    })
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    return line, record


def _layer_unit(name: str) -> str:
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def _report(record: dict, line: dict) -> None:
    print(f"critnum benchmark: {record['workload']} seed={record['seed']} trace={record['trace']}")
    print(f"commit={record['commit']} python={record['python']} nproc={record['nproc']} "
          f"workers={record['workers']} loadavg {record['loadavg_before'][0]:.2f} -> "
          f"{record['loadavg_after'][0]:.2f}")
    print(f"passes={len(record['passes'])} traced_passes={len(record['traced_passes'])} "
          f"setup_samples={len(record['setup_samples_s'])} items_attempted={line['attempted']} "
          f"failed={line['failed']} failed_frac={line['failed'] / line['attempted']:g}")
    for name, m in line["metrics"].items():
        print(f"  {name:48s} {m['value']:>14.6g} {m['unit']}")
    if record["passes"]:
        items = len(record["passes"][0]["item_s"])
        if items < 2 * TAIL_BEYOND:
            rule = "the slowest item"
        else:
            rule = f"p{100 * (items - TAIL_BEYOND) / items:.2f}, {TAIL_BEYOND} samples beyond it"
        print(f"item times: {items} items per pass; item_tail_s is {rule}; medians over passes")
        scaled = record["passes"][0]["speed_samples"] > 0
        print(f"times {'scaled to the reference speed (speed.py)' if scaled else 'not scaled'}; "
              f"raw wall_s median {record['summary']['raw_wall_s']:.6g} s")
    if record["notes"]:
        print(f"note: {record['notes']}")
    for failure in record["failures"][:10]:
        print(f"FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="critnum benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        line, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    _report(record, line)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
