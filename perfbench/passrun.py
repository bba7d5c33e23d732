"""One pass of one workload, in the fresh interpreter that run.py starts.

critnum is imported first, so the monotonic clock read right after the
import marks the end of set-up (interpreter start plus `import critnum`),
which run.py measures from the moment it started this process.  The pass
prints one JSON line with its timings, counts and check results.
"""

import time

import critnum  # noqa: F401

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--workers", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="file the traced pass writes its spans to")
    parser.add_argument("--setup-only", action="store_true", help="stop after set-up")
    args = parser.parse_args(argv)
    import speed

    # Machine speed right after set-up, to scale the set-up time.
    setup_scale = speed.current_factor()
    if args.setup_only:
        print(json.dumps({"ready": READY, "setup_scale": setup_scale}))
        return 0
    if args.workload is None or args.seed is None or args.workers is None:
        parser.error("a pass needs --workload, --seed and --workers")

    import probe
    import tracing
    import workloads

    items = workloads.build(args.workload, args.seed)
    kernels = probe.unwrapped_kernels()
    tracer = tracing.install() if args.trace else None
    # Traced passes keep raw times for their spans and the tracing overhead;
    # passes with pool workers are not scaled (see speed.py).
    sampler = speed.SpeedSampler() if args.workers == 1 and not args.trace else None
    cpu0 = _cpu_s()
    with sampler or contextlib.nullcontext():
        start = time.perf_counter()
        stamps, results = workloads.run(args.workload, items, args.workers, tracer)
        end = time.perf_counter()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # Reap the oracle's pool workers so their CPU time is counted.
    for child in multiprocessing.active_children():
        child.join()
    raw_cpu = _cpu_s() - cpu0
    raw_wall = end - start
    if sampler is not None:
        wall = sampler.scaled(start, end)
        times = [sampler.scaled(s, e) for s, e in stamps]
    else:
        wall = raw_wall
        times = [e - s for s, e in stamps]
    layers = None
    if tracer is not None:
        tracer.enabled = False
        layers = tracer.metrics()
        if args.spans:
            tracer.write_spans(args.spans)
        layers.update(probe.run(kernels))
    attempted, failures = workloads.check(args.workload, items, results)
    print(json.dumps({
        "ready": READY,
        "setup_scale": setup_scale,
        "wall_s": wall,
        "cpu_s": raw_cpu * wall / raw_wall,
        "raw_wall_s": raw_wall,
        "raw_cpu_s": raw_cpu,
        "speed_samples": len(sampler.starts) if sampler is not None else 0,
        "peak_rss_mb": rss_mb,
        "item_s": times,
        "attempted": attempted,
        "failures": failures,
        "layers": layers,
        "spans": len(tracer.spans) if tracer is not None else 0,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
