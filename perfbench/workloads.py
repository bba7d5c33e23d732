"""The benchmark's three workloads: seeded inputs, one timed pass, answer checks.

Every workload is a closed loop: one process runs a fixed item list back
to back, each item starting when the previous one returns.  The seed picks
the inputs; critnum receives only the generated groups and parameters.
Program calls go through module attributes (`critnum.oracle.brute_critical`,
not a name imported here), so the traced run sees them.

* oracle_large: literal-scan `brute_critical` certifications at orders
  19-20 with `workers=1`.  One item per expansion mode: a generating
  interval query (s=3), an h-fold query (h=4) and a subset-sum query on
  Z19.  The seed picks Z20 or Z2xZ10 for the first two, so that cyclic and
  non-cyclic types both occur, and the item order.  The two types cost
  within a few percent of each other on every kind used, so the seed moves
  the inputs without moving the amount of work.
* verify_sweep: `critnum verify` for every quantity at `--max-order 16`
  through `critnum.cli.main`, in a seeded quantity order.  An item is one
  verify row group (one `_quantity_rows` call: one row, or the cr*/cr
  pair).
* certificates_large: `hfold_witness` and `interval_witness` over the A3
  grid (every type of order <= 64, h <= 8), `best_interval_bound` over the
  A9 grid extended to order 64 (s <= 4), and a ladder of large groups
  (Z4096, Z2xZ2048, Z2xZ4096, Z16384) for all three builders at h = s = 2.
  The ladder's twelve items are the slowest, so item_tail_s (the eleventh
  slowest item) is a ladder certificate, not a grid item hit by a pause.
  Items come in one block per group, in a fixed order inside the block, so
  the item that pays a group's `Layout` build is the same for every seed;
  the seed orders the blocks.  The ladder's types are fixed because a
  seeded choice of cyclic or Z2 x cyclic per rung moved peak_rss_mb by 40%
  between seeds.
"""

from __future__ import annotations

import contextlib
import io
import random
import time
from pathlib import Path

import critnum.cli
import critnum.formulas
import critnum.groups
import critnum.oracle
import critnum.quotients
import critnum.sumsets
import critnum.witnesses
from critnum.errors import CritnumError
from critnum.formulas import CriticalKind
from critnum.groups import GroupType

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

ORACLE_BUDGET = 20
ORACLE_TYPES = ((20,), (2, 10))

VERIFY_MAX_ORDER = 16
# Every quantity of `critnum verify`, with the parameter range it sweeps.
VERIFY_QUANTITIES = {
    "chi_h": ["--h", "2..4"],
    "chi_interval": ["--s", "1..3"],
    "chi_hat_h": ["--h", "2..4"],
    "chi_hat_cyclic": ["--s", "1..4"],
    "chi_hat_2group": ["--s", "2..4"],
    "chi_hat_interval3": [],
    "cr": [],
    "sumfree": [],
    "prop_bound": ["--s", "1..3"],
}

LADDER = ((4096,), (2, 2048), (2, 4096), (16384,))
LADDER_PARAM = 2
BUILDERS = ("hfold_witness", "interval_witness", "best_interval_bound")


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def verify_argv(quantity: str, workers: int) -> list[str]:
    return [
        "verify", "--quantity", quantity, *VERIFY_QUANTITIES[quantity],
        "--max-order", str(VERIFY_MAX_ORDER), "--workers", str(workers),
    ]


def build(workload: str, seed: int) -> list:
    """The item list of one pass; the same seed gives the same list."""
    rng = _rng(workload, seed)
    if workload == "oracle_large":
        cyclic, mixed = ORACLE_TYPES
        interval_type, hfold_type = rng.choice([(cyclic, mixed), (mixed, cyclic), (mixed, mixed)])
        items = [
            ("chi_hat_interval", 3, interval_type),
            ("chi_h", 4, hfold_type),
            ("cr_star", None, (19,)),
        ]
    elif workload == "verify_sweep":
        items = list(VERIFY_QUANTITIES)
    elif workload == "certificates_large":
        blocks = []
        for n in range(2, 65):
            for g in critnum.groups.abelian_types(n):
                blocks.append(
                    [("hfold_witness", g.factors, h) for h in range(1, 9)]
                    + [("interval_witness", g.factors, h) for h in range(1, 9)]
                    + [("best_interval_bound", g.factors, s) for s in range(1, 5)]
                )
        for factors in LADDER:
            blocks.append([(builder, factors, LADDER_PARAM) for builder in BUILDERS])
        rng.shuffle(blocks)
        return [item for block in blocks for item in block]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(items)
    return items


def run(workload: str, items: list, workers: int, tracer=None) -> tuple[list[tuple[float, float]], list]:
    """Run one pass; return each item's perf_counter start and end, and the results.

    A result is the item's return value, or the exception it raised.
    """
    clock = time.perf_counter
    times: list[tuple[float, float]] = []
    results: list = []
    if workload == "verify_sweep":
        real_rows = critnum.cli._quantity_rows

        def timed_rows(*args, **kwargs):
            start = clock()
            try:
                return real_rows(*args, **kwargs)
            finally:
                times.append((start, clock()))

        critnum.cli._quantity_rows = timed_rows
        try:
            for quantity in items:
                before = len(times)
                out = io.StringIO()
                try:
                    with contextlib.redirect_stdout(out):
                        code = critnum.cli.main(verify_argv(quantity, workers))
                    results.append((code, out.getvalue(), len(times) - before))
                except Exception as exc:  # an item that raises counts as failed
                    results.append((exc, out.getvalue(), max(1, len(times) - before)))
        finally:
            critnum.cli._quantity_rows = real_rows
        return times, results
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.item = i
        start = clock()
        try:
            result = _call(workload, item, workers)
        except Exception as exc:  # an item that raises counts as failed
            result = exc
        times.append((start, clock()))
        results.append(result)
    return times, results


def _call(workload: str, item, workers: int):
    if workload == "oracle_large":
        tag, param, factors = item
        query = critnum.oracle.OracleQuery(GroupType(factors), CriticalKind(tag, param))
        return critnum.oracle.brute_critical(query, budget=ORACLE_BUDGET, workers=workers)
    builder, factors, param = item
    return getattr(critnum.witnesses, builder)(GroupType(factors), param)


def check(workload: str, items: list, results: list) -> tuple[int, list[str]]:
    """Items attempted and a description of each failed one.

    An item fails when it raised or when its answer is wrong.  Checks use
    only closed forms and kernels called from here, never the item's own
    verdict.
    """
    failures: list[str] = []
    if workload == "verify_sweep":
        attempted = 0
        for quantity, (code, stdout, rows) in zip(items, results):
            attempted += rows
            expected = (EXPECTED_DIR / f"verify_{quantity}.txt").read_text()
            if code != 0 or stdout != expected:
                failures.extend([f"verify {quantity}: exit {code!r}, output differs: {stdout != expected}"] * rows)
        return attempted, failures
    for item, result in zip(items, results):
        if isinstance(result, Exception):
            failures.append(f"{item}: raised {type(result).__name__}: {result}")
            continue
        try:
            problem = _wrong_answer(workload, item, result)
        except CritnumError as exc:
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            failures.append(f"{item}: {problem}")
    return len(items), failures


def _wrong_answer(workload: str, item, result) -> str | None:
    if workload == "oracle_large":
        tag, param, factors = item
        group = GroupType(factors)
        if tag == "chi_hat_interval":
            want = critnum.formulas.generating_interval_critical_s3(group)
        elif tag == "chi_h":
            want = critnum.formulas.critical_number(group.order, param)
        else:
            want = critnum.formulas.subset_sum_critical_pair(group)[0]
        return None if result == want else f"oracle {result} vs closed form {want}"
    builder, factors, param = item
    group = GroupType(factors)
    layout = critnum.sumsets.layout_for(group)
    full = layout.full
    if builder == "best_interval_bound":
        if result.witness is None:
            return None if result.bound == 1 else f"trivial certificate with bound {result.bound}"
        bits = result.witness.bits
        size_ok = bits.bit_count() == result.bound - 1
        generates = critnum.quotients.closure_bits(layout, bits) == full
        incomplete = critnum.sumsets.interval_bits(layout, bits, param) != full
        ok = size_ok and generates and incomplete
        return None if ok else f"size_ok={size_ok} generates={generates} incomplete={incomplete}"
    bits = result.subset.bits
    want = critnum.formulas.max_incomplete_size(group.order, param)
    size_ok = bits.bit_count() == want == result.claimed_size
    generates = critnum.quotients.closure_bits(layout, bits) == full
    if builder == "hfold_witness":
        incomplete = critnum.sumsets.hfold_bits(layout, bits, param) != full
        ok = size_ok and generates and incomplete and result.generates and result.incomplete
    else:
        incomplete = critnum.sumsets.interval_bits(layout, bits, param) != full
        ok = size_ok and incomplete and result.incomplete and result.generates == generates
    return None if ok else f"size_ok={size_ok} generates={generates} incomplete={incomplete}"
