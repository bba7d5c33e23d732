"""Opt-in timing of the exact search at its s = 3 frontier and at scale.

First times `critnum.oracle._anchor_representatives` alone on Z2^12,
Z2^14 and Z3^8, whose automorphisms are transitive on the nonzero
elements, so the anchors must be (0, 1).  Then runs `chi_h` and
`chi_hat_interval` at h = s = 2 on Z1024 and Z2xZ512, checked against
critical_number(1024, 2), and prints each query's anchor-build time (the
same function, wrapped as a module attribute) and total time.  Then runs
`search_critical_witness` on the `chi_hat_interval` queries of the
ROADMAP's stall table and on every non-exponent-2 type of order 48 at
s = 3 (the orders past acceptance tier A14).  Each value is checked
against its closed form: the exponent-2 rank formula for Z2^r, the s = 3
structure formula otherwise.  Prints value, time, the `translate_bits`
calls the search makes through `critnum.oracle` and its `_greedy_matching`
runs, per query and in total, and exits 1 on any mismatch.  Both counts
are deterministic measures of the search's work (the matching's own
translations are among the calls); the script counts them by wrapping
those module attributes (`Work`).

With --kind K [--param P] --seconds T it instead sweeps the frontier: it
certifies every type of every order with `search_critical_witness`,
upward from order 2, and prints per order the time, the `translate_bits`
calls and the matching runs for the order and cumulatively (so two runs
compare through any common order) and the slowest type.  It checks each
value against every closed form that covers it (`closed_forms`), as
acceptance tiers A12 and A15 do, and exits 1 on a mismatch.  It stops
once the cumulative time passes T (an interval timer ends the search
under way) and prints F, the last order it finished.  pytest does not
collect the script (no `test_` prefix).  Run from the repository root:

    PYTHONPATH=src python tests/s3_frontier.py
    PYTHONPATH=src python tests/s3_frontier.py --kind chi_h --param 3 --seconds 60
"""

import argparse
import itertools
import signal
import sys
import time

import critnum.oracle
from critnum import (
    CriticalKind,
    GroupType,
    OracleQuery,
    abelian_types,
    critical_number,
    generating_interval_critical_s3,
    generating_interval_critical_two_group,
    generating_interval_cyclic_divisors,
    search_critical_witness,
    subset_sum_critical_pair,
)

# (factors, s) for each single-query row of the stall table
STALL_ROWS = [
    ((2, 2, 2, 2, 2), 3),
    ((2, 2, 12), 3),
    ((4, 12), 3),
    ((6, 6), 3),
    ((2, 18), 3),
    ((2, 2, 2, 6), 3),
    ((3, 18), 3),
    ((62,), 3),
    ((2, 2, 2, 2, 2), 5),
]

# (factors, tag) for the h = s = 2 rows at order 1024
SCALE_ROWS = [((1024,), "chi_h"), ((1024,), "chi_hat_interval"), ((2, 512), "chi_h"), ((2, 512), "chi_hat_interval")]


def expected(group: GroupType, s: int) -> int:
    if group.is_elementary_two:
        return generating_interval_critical_two_group(group.rank, s)
    return generating_interval_critical_s3(group)


def closed_forms(group: GroupType, kind: CriticalKind) -> list[int]:
    """The value of every closed form proven for this group and kind."""
    n, tag, p = group.order, kind.tag, kind.param
    if tag in ("chi_h", "chi_interval", "chi_hat_h"):
        return [critical_number(n, p)]
    if tag in ("cr_star", "cr"):
        return [] if n < 10 else [subset_sum_critical_pair(group)[tag == "cr"]]
    values = []
    if group.is_elementary_two:
        if p >= 2:
            values.append(generating_interval_critical_two_group(group.rank, p))
    elif p == 3 and n >= 5:
        values.append(generating_interval_critical_s3(group))
    if group.is_cyclic:
        values.append(generating_interval_cyclic_divisors(n, p)[0])
    return values


# elementary abelian groups, whose anchors are 0 and one nonzero orbit
ANCHOR_ROWS = [(2,) * 12, (2,) * 14, (3,) * 8]


def anchor_rows() -> int:
    """Time the anchor build on ANCHOR_ROWS; returns the mismatches."""
    mismatches = 0
    for factors in ANCHOR_ROWS:
        start = time.perf_counter()
        got = critnum.oracle._anchor_representatives(factors)
        elapsed = time.perf_counter() - start
        mismatches += got != (0, 1)
        verdict = "ok" if got == (0, 1) else "MISMATCH"
        print(f"{str(GroupType(factors)):<16} anchors {got}  {elapsed * 1e3:8.2f} ms  {verdict}", flush=True)
    return mismatches


def scale_rows() -> int:
    """Run SCALE_ROWS, printing the anchor build apart; returns the mismatches."""
    build = critnum.oracle._anchor_representatives
    anchor_s = 0.0

    def timed(*args):
        nonlocal anchor_s
        start = time.perf_counter()
        try:
            return build(*args)
        finally:
            anchor_s += time.perf_counter() - start

    critnum.oracle._anchor_representatives = timed
    mismatches = 0
    try:
        for factors, tag in SCALE_ROWS:
            group = GroupType(factors)
            anchor_s = 0.0
            start = time.perf_counter()
            got, _ = search_critical_witness(OracleQuery(group, CriticalKind(tag, 2)), budget=group.order)
            elapsed = time.perf_counter() - start
            want = critical_number(group.order, 2)
            mismatches += got != want
            verdict = "ok" if got == want else "MISMATCH"
            print(f"{str(group):<16} {tag:<16} 2  search {got:>4}  formula {want:>4}  "
                  f"anchors {anchor_s * 1e3:8.2f} ms  total {elapsed:6.3f} s  {verdict}", flush=True)
    finally:
        critnum.oracle._anchor_representatives = build
    return mismatches


class Work:
    """While active, counts the search's `translate_bits` calls and
    `_greedy_matching` runs by wrapping those `critnum.oracle` attributes."""

    def __init__(self):
        self.translations = self.matchings = 0

    def __enter__(self):
        self.saved = translate, match = critnum.oracle.translate_bits, critnum.oracle._greedy_matching

        def counted_translate(*args):
            self.translations += 1
            return translate(*args)

        def counted_match(*args):
            self.matchings += 1
            return match(*args)

        critnum.oracle.translate_bits, critnum.oracle._greedy_matching = counted_translate, counted_match
        return self

    def __exit__(self, *exc):
        critnum.oracle.translate_bits, critnum.oracle._greedy_matching = self.saved


class TimeUp(Exception):
    """Raised by the interval timer when the sweep's time runs out."""


def frontier(tag: str, param: int | None, seconds: float) -> int:
    """Sweep every type of every order upward until `seconds` pass; prints F."""
    kind = CriticalKind(tag, param)

    def time_up(signum, frame):
        raise TimeUp

    signal.signal(signal.SIGALRM, time_up)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    finished = 1
    done = (0, 0)  # translations and matchings through the last finished order
    mismatches = checked = 0
    start = time.perf_counter()
    print(f"frontier of {tag} (param {param}) within {seconds:g} s", flush=True)
    try:
        with Work() as work:
            for n in itertools.count(2):
                order_start = time.perf_counter()
                slowest = (0.0, None)
                for group in abelian_types(n):
                    query_start = time.perf_counter()
                    got, _ = search_critical_witness(OracleQuery(group, kind), budget=n)
                    slowest = max(slowest, (time.perf_counter() - query_start, str(group)))
                    for want in closed_forms(group, kind):
                        checked += 1
                        if got != want:
                            mismatches += 1
                            print(f"MISMATCH {tag}({group}, {param}): search {got} vs formula {want}", flush=True)
                finished = n
                now = time.perf_counter()
                print(f"order {n:>4}  {now - order_start:8.3f} s  cumulative {now - start:8.3f} s  "
                      f"{work.translations - done[0]:>12,} translations  cumulative {work.translations:>14,}  "
                      f"{work.matchings - done[1]:>10,} matchings  cumulative {work.matchings:>12,}  "
                      f"slowest {slowest[1]} ({slowest[0]:.3f} s)", flush=True)
                done = (work.translations, work.matchings)
    except TimeUp:
        pass
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    print(f"F({tag}, {param}, {seconds:g} s) = {finished}: {done[0]:,} translations and {done[1]:,} matchings "
          f"through order {finished}, {checked} closed-form checks, {mismatches} mismatches")
    return 1 if mismatches else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", help="sweep the frontier of this kind instead of the fixed rows")
    parser.add_argument("--param", type=int, help="the kind's fold count or interval length")
    parser.add_argument("--seconds", type=float, default=60.0, help="the sweep's time (default 60)")
    args = parser.parse_args()
    if args.kind:
        return frontier(args.kind, args.param, args.seconds)
    scale_mismatches = anchor_rows() + scale_rows()
    rows = [(GroupType(factors), s) for factors, s in STALL_ROWS]
    rows += [(g, 3) for g in abelian_types(48) if not g.is_elementary_two and (g, 3) not in rows]
    mismatches = 0
    total = time.perf_counter()
    with Work() as work:
        for group, s in rows:
            before = (work.translations, work.matchings)
            start = time.perf_counter()
            query = OracleQuery(group, CriticalKind("chi_hat_interval", s))
            got, _ = search_critical_witness(query, budget=group.order)
            elapsed = time.perf_counter() - start
            want = expected(group, s)
            mismatches += got != want
            verdict = "ok" if got == want else "MISMATCH"
            print(f"{str(group):<16} s={s}  search {got:>3}  formula {want:>3}  {elapsed:7.2f} s  "
                  f"{work.translations - before[0]:>9,} translations  {work.matchings - before[1]:>8,} matchings  "
                  f"{verdict}", flush=True)
    print(f"{len(rows)} queries, {mismatches} mismatches, {time.perf_counter() - total:.1f} s, "
          f"{work.translations:,} translations, {work.matchings:,} matchings")
    return 1 if mismatches or scale_mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
