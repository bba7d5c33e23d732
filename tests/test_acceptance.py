"""Acceptance gate: oracle equivalence and certificate checks at desk scale.

A1-A10 hold at orders the literal scan also covers (tests/test_oracle.py
checks the search against the scan on those grids); A12 checks the search
alone against the closed forms at orders 17-24.  A13 builds and verifies
certificates at Z65536, where per-shift masks for the top coordinate
would need about 1 GiB.

Each criterion prints and records exactly one PASS/FAIL line (echoed in the
terminal summary by conftest).  Exact equality throughout; no tolerances.
No deviation is expected: where every generating subset is already complete
(orders n <= s+1, exponent-2 groups of rank <= s) the asserted value is 1
(see README, "Small-order boundary").
"""

import random
import time

import pytest
from conftest import record_acceptance

from critnum import (
    CriticalKind,
    CritnumError,
    GroupSubset,
    GroupType,
    OracleQuery,
    abelian_types,
    best_interval_bound,
    brute_critical,
    brute_max_sumfree,
    critical_number,
    cyclic,
    generating_interval_critical_s3,
    generating_interval_critical_two_group,
    generating_interval_cyclic_divisors,
    hfold_sumset,
    hfold_witness,
    interval3_piecewise_value,
    interval_sumset,
    is_complete,
    is_generating,
    max_incomplete_size,
    max_sumfree_size,
    pairwise_sumset,
    search_critical_witness,
    subset_sum_critical_pair,
)


def _finish(tag: str, scope: str, failures: list[str]) -> None:
    if failures:
        head = "; ".join(failures[:5])
        more = "" if len(failures) <= 5 else f" (+{len(failures) - 5} more)"
        record_acceptance(f"{tag} FAIL {scope}: {head}{more}")
        pytest.fail(f"{tag}: {len(failures)} deviation(s): {head}{more}")
    record_acceptance(f"{tag} PASS {scope}")


def _interval_value(group: GroupType, s: int) -> int:
    q = OracleQuery(group, CriticalKind("chi_hat_interval", s))
    return brute_critical(q)


def test_a01_hfold_critical_number():
    failures = []
    cases = 0
    for n in range(2, 17):
        for g in abelian_types(n):
            for h in range(1, 7):
                want = critical_number(n, h)
                got = brute_critical(OracleQuery(g, CriticalKind("chi_h", h)))
                cases += 1
                if got != want:
                    failures.append(f"chi({g}, h={h}): brute {got} vs formula {want}")
    _finish("A1", f"h-fold critical number on {cases} (group, h) cases", failures)


def test_a02_generating_restriction_changes_nothing():
    failures = []
    cases = 0
    for n in range(2, 17):
        for g in abelian_types(n):
            for h in range(1, 7):
                want = critical_number(n, h)
                got = brute_critical(OracleQuery(g, CriticalKind("chi_hat_h", h)))
                cases += 1
                if got != want:
                    failures.append(f"chi_hat({g}, h={h}): brute {got} vs formula {want}")
    _finish("A2", f"generating-restricted h-fold value on {cases} cases", failures)


def test_a03_hfold_witness_grid():
    failures = []
    cases = 0
    for n in range(2, 65):
        for g in abelian_types(n):
            for h in range(1, 9):
                cases += 1
                try:
                    cert = hfold_witness(g, h)
                except CritnumError as exc:
                    failures.append(f"witness({g}, h={h}) raised {type(exc).__name__}: {exc}")
                    continue
                if cert.claimed_size != max_incomplete_size(n, h):
                    failures.append(f"witness({g}, h={h}) size {cert.claimed_size}")
                elif not (cert.generates and cert.incomplete):
                    failures.append(f"witness({g}, h={h}) flags {cert.generates}/{cert.incomplete}")
    _finish("A3", f"extremal construction certificates on {cases} cases", failures)


def test_a04_cyclic_interval_formula():
    failures = []
    cases = 0
    for n in range(2, 17):
        for s in range(1, 6):
            want = generating_interval_cyclic_divisors(n, s)[0]
            got = _interval_value(cyclic(n), s)
            cases += 1
            if got != want:
                failures.append(f"cyclic n={n}, s={s}: brute {got} vs formula {want}")
    _finish("A4", f"cyclic interval value on {cases} cases incl. value-1 branch", failures)


def test_a05_two_group_interval_formula():
    failures = []
    cases = 0
    for r in range(1, 5):
        g = GroupType((2,) * r)
        for s in (2, 3, 4):
            want = generating_interval_critical_two_group(r, s)
            got = _interval_value(g, s)
            cases += 1
            if got != want:
                failures.append(f"rank {r}, s={s}: brute {got} vs formula {want}")
    _finish("A5", f"exponent-2 interval value on {cases} cases", failures)


def test_a06_interval3_structure_formula():
    failures = []
    cases = 0
    for n in range(5, 17):
        for g in abelian_types(n):
            if g.is_elementary_two:
                continue
            want = generating_interval_critical_s3(g)
            got = _interval_value(g, 3)
            cases += 1
            if got != want:
                failures.append(f"{g}: brute {got} vs formula {want}")
    # orders 3 and 4 sit outside the validated domain: report, do not assert
    for n in (3, 4):
        g = cyclic(n)
        got = _interval_value(g, 3)
        piecewise = interval3_piecewise_value(g)
        match = "true" if got == piecewise else "false"
        record_acceptance(f"A6 report: order {n} brute={got} piecewise={piecewise} match={match}")
    _finish("A6", f"interval-3 structure formula on {cases} in-domain cases", failures)


def test_a07_subset_sum_critical_pair():
    failures = []
    cases = 0
    for n in range(10, 15):
        for g in abelian_types(n):
            star, whole = subset_sum_critical_pair(g)
            got_star = brute_critical(OracleQuery(g, CriticalKind("cr_star")))
            got_whole = brute_critical(OracleQuery(g, CriticalKind("cr")))
            cases += 1
            if (got_star, got_whole) != (star, whole):
                failures.append(
                    f"{g}: brute ({got_star}, {got_whole}) vs formula ({star}, {whole})"
                )
    _finish("A7", f"subset-sum critical pair on {cases} groups", failures)


def test_a08_sumfree_bound():
    failures = []
    for n in range(2, 10001):
        if max_sumfree_size(n) != max_incomplete_size(n, 3):
            failures.append(f"n={n}: sum-free bound != 3-fold divisor bound")
    for n in range(2, 49):
        got = brute_max_sumfree(n, budget=n)
        want = max_sumfree_size(n)
        if got != want:
            failures.append(f"n={n}: search {got} vs formula {want}")
    _finish("A8", "sum-free maximum: identity to 10^4, search to 48", failures)


def test_a09_bound_certificates_are_sound():
    failures = []
    cases = 0
    for n in range(2, 17):
        for g in abelian_types(n):
            for s in range(1, 5):
                cases += 1
                cert = best_interval_bound(g, s)
                if cert.is_trivial:
                    if cert.bound != 1 or cert.witness is not None:
                        failures.append(f"{g}, s={s}: malformed trivial certificate")
                        continue
                else:
                    ok = (
                        cert.generates
                        and cert.incomplete
                        and cert.witness.size == cert.bound - 1
                    )
                    if not ok:
                        failures.append(f"{g}, s={s}: unverified witness")
                        continue
                brute = _interval_value(g, s)
                if brute < cert.bound:
                    failures.append(f"{g}, s={s}: brute {brute} below bound {cert.bound}")
    _finish("A9", f"coset lower-bound certificates on {cases} cases", failures)


def test_a10_small_interval_values():
    failures = []
    cases = 0
    for n in range(3, 17):
        for g in abelian_types(n):
            got = _interval_value(g, 1)
            cases += 1
            if got != n:
                failures.append(f"{g}, s=1: brute {got} vs n={n}")
    # Every generating subset is already [0,s]-complete, so the value is 1,
    # when n <= s+1 (Z2, Z3: any generator a gives {0, a, 2a} = G) or when G
    # has exponent 2 and rank <= s (Z2xZ2: a generating set holds a basis
    # {a, b}, and {0, a, b, a+b} = G already lies in [0,2]A).
    s = 2
    for n in range(2, 17):
        for g in abelian_types(n):
            got = _interval_value(g, s)
            if n <= s + 1 or (g.is_elementary_two and g.rank <= s):
                want, rule = 1, "1 (every generating set complete)"
            else:
                want = n // 2 + 1
                rule = f"floor(n/2)+1 = {want}"
            cases += 1
            if got != want:
                failures.append(f"{g}, s={s}: brute {got} vs {rule}")
    _finish("A10", f"easy interval cases on {cases} cases", failures)


def test_a11_property_suite():
    start = time.monotonic()
    failures = []
    checks = 0
    rng = random.Random(20260814)

    def random_subset(group, nonempty=True, with_zero=False):
        n = group.order
        bits = rng.getrandbits(n)
        if with_zero:
            bits |= 1
        if nonempty and bits == 0:
            bits = 1 << rng.randrange(n)
        return GroupSubset(group, bits)

    # monotonicity of all three expansions under A subset of B
    for _ in range(150):
        n = rng.randint(2, 64)
        types = abelian_types(n)
        g = types[rng.randrange(len(types))]
        a = random_subset(g)
        b = GroupSubset(g, a.bits | random_subset(g).bits)
        h = rng.randint(1, 4)
        s = rng.randint(0, 4)
        checks += 1
        if not hfold_sumset(a, h).issubset(hfold_sumset(b, h)):
            failures.append(f"h-fold monotonicity broke on {g}, h={h}")
        if not interval_sumset(a, s).issubset(interval_sumset(b, s)):
            failures.append(f"interval monotonicity broke on {g}, s={s}")

    # translation identities: every group to order 16, every translate
    for n in range(2, 17):
        for g in abelian_types(n):
            samples = [GroupSubset(g, 1 << i) for i in range(n)]
            samples += [random_subset(g) for _ in range(8)]
            for a in samples:
                for h in (1, 2, 3):
                    base = hfold_sumset(a, h)
                    for t in range(n):
                        el = g.decode(t)
                        left = hfold_sumset(a.translated(el), h)
                        right = base.translated(g.scalar(h, el))
                        checks += 1
                        if left.size != base.size or left.bits != right.bits:
                            failures.append(f"translate identity broke on {g}, h={h}")

    # zero absorption: exhaustive over subsets containing zero, orders <= 12
    for n in range(2, 13):
        for g in abelian_types(n):
            for mask in range(1, 1 << n, 2):
                a = GroupSubset(g, mask)
                for s in range(0, 5):
                    want = 1 if s == 0 else hfold_sumset(a, s).bits
                    checks += 1
                    if interval_sumset(a, s).bits != want:
                        failures.append(f"zero absorption broke on {g}, s={s}")

    # fold additivity: exhaustive over nonempty subsets, orders <= 12
    for n in range(2, 13):
        for g in abelian_types(n):
            for mask in range(1, 1 << n):
                a = GroupSubset(g, mask)
                folds = [None, a]
                for _ in range(5):
                    folds.append(pairwise_sumset(folds[-1], a))
                for h1 in (1, 2, 3):
                    for h2 in (1, 2, 3):
                        checks += 1
                        if pairwise_sumset(folds[h1], folds[h2]).bits != folds[h1 + h2].bits:
                            failures.append(f"fold additivity broke on {g}, {h1}+{h2}")

    elapsed = time.monotonic() - start
    if elapsed >= 60.0:
        failures.append(f"property suite took {elapsed:.1f}s, budget is one minute")
    _finish("A11", f"sumset property suite, {checks} checks in {elapsed:.1f}s", failures)


def test_a12_search_matches_closed_forms_past_the_scan():
    # Orders 17-24 are past the literal scan's default budget; the search
    # itself is checked against that scan in tests/test_oracle.py.
    start = time.monotonic()
    failures = []
    cases = 0

    def check(group, tag, param, want):
        nonlocal cases
        q = OracleQuery(group, CriticalKind(tag, param))
        got = search_critical_witness(q, budget=24)[0]
        cases += 1
        if got != want:
            failures.append(f"{tag}({group}, {param}): search {got} vs formula {want}")

    for n in range(17, 25):
        for g in abelian_types(n):
            for h in (2, 3, 4):
                check(g, "chi_h", h, critical_number(n, h))
            for s in (1, 2):
                check(g, "chi_interval", s, critical_number(n, s))
            if not g.is_elementary_two:
                check(g, "chi_hat_interval", 3, generating_interval_critical_s3(g))
            if g.is_cyclic:
                for s in (2, 4):
                    check(g, "chi_hat_interval", s, generating_interval_cyclic_divisors(n, s)[0])
            star, whole = subset_sum_critical_pair(g)
            check(g, "cr_star", None, star)
            check(g, "cr", None, whole)
    elapsed = time.monotonic() - start
    _finish("A12", f"search vs closed forms at orders 17-24 on {cases} cases in {elapsed:.1f}s", failures)


def test_a13_certificates_at_order_65536():
    start = time.monotonic()
    n, h = 65536, 2
    group = cyclic(n)
    failures = []
    cert = hfold_witness(group, h)
    want = max_incomplete_size(n, h)
    if not (cert.generates and cert.incomplete and cert.subset.size == cert.claimed_size == want):
        failures.append(f"h-fold witness: size {cert.subset.size} vs {want}, "
                        f"generates={cert.generates}, incomplete={cert.incomplete}")
    bound = best_interval_bound(group, h)
    want = generating_interval_cyclic_divisors(n, h)[0]
    if bound.is_trivial or not (bound.generates and bound.incomplete):
        failures.append("interval bound: no verified witness")
    elif bound.bound != want or bound.witness.size != want - 1:
        failures.append(f"interval bound: bound {bound.bound}, witness size {bound.witness.size}, formula {want}")
    elapsed = time.monotonic() - start
    _finish("A13", f"h-fold witness and interval bound at Z{n}, h = s = {h}, in {elapsed:.1f}s", failures)


def test_a14_search_past_the_unit_multiple_anchors():
    """The search equals the s = 3 generating interval formula, with a
    qualifying witness, on every non-exponent-2 type of order 25-47 (39
    groups).  Order 48 costs several seconds more (Z2xZ2xZ2xZ6 alone about
    2-3 s), so it is left to `tests/s3_frontier.py`."""
    start = time.monotonic()
    failures = []
    groups = [g for n in range(25, 48) for g in abelian_types(n) if not g.is_elementary_two]
    for g in groups:
        q = OracleQuery(g, CriticalKind("chi_hat_interval", 3))
        got, witness = search_critical_witness(q, budget=g.order)
        want = generating_interval_critical_s3(g)
        if got != want:
            failures.append(f"chi_hat_interval({g}, 3): search {got} vs formula {want}")
        elif witness.size != got - 1 or is_complete(interval_sumset(witness, 3)) or not is_generating(witness):
            failures.append(f"chi_hat_interval({g}, 3): witness {witness.to_hex()} does not qualify")
    elapsed = time.monotonic() - start
    scope = f"search vs s = 3 formula on {len(groups)} non-exponent-2 types of order 25-47"
    _finish("A14", f"{scope} in {elapsed:.1f}s", failures)


def test_a15_search_at_h_s_2_to_order_48():
    # Past A12's orders: at h = s = 2 the conflict-graph matching bound
    # proves the optimum at the root, so every type of order 25-48 is cheap.
    # chi_h at h = 3-5 and cr, which search only sets holding 0, are cheap
    # there too (cr and cr_star to order 40).
    start = time.monotonic()
    failures = []
    cases = 0
    for n in range(25, 49):
        for g in abelian_types(n):
            queries = [(CriticalKind(tag, 2), critical_number(n, 2)) for tag in ("chi_h", "chi_interval", "chi_hat_h")]
            queries += [(CriticalKind("chi_h", h), critical_number(n, h)) for h in range(3, 6)]
            if n <= 40:
                queries += zip((CriticalKind("cr_star"), CriticalKind("cr")), subset_sum_critical_pair(g))
            for kind, want in queries:
                got = search_critical_witness(OracleQuery(g, kind), budget=n)[0]
                cases += 1
                if got != want:
                    failures.append(f"{kind.tag}({g}, {kind.param}): search {got} vs formula {want}")
    elapsed = time.monotonic() - start
    scope = "search vs critical_number and subset_sum_critical_pair at orders 25-48"
    _finish("A15", f"{scope} on {cases} cases in {elapsed:.2f}s", failures)
