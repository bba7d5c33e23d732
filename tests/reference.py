"""Reference definitions the tests check the package against.

Index arithmetic and the quotient projection through `decode`/`encode`,
and the subgroup lattice with the quotient types read off it.
"""

from critnum import GroupSubset, GroupType, QuotientSpec, factorize
from critnum.quotients import closure_bits
from critnum.sumsets import layout_for


def add_indices(group: GroupType, i: int, j: int) -> int:
    return group.encode(group.add(group.decode(i), group.decode(j)))


def neg_index(group: GroupType, i: int) -> int:
    return group.encode(group.neg(group.decode(i)))


def scalar_index(group: GroupType, k: int, i: int) -> int:
    return group.encode(group.scalar(k, group.decode(i)))


def project(spec: QuotientSpec, element) -> tuple[int, ...]:
    """Image of a parent element under the quotient map."""
    coords = spec.parent.check_element(element)
    return tuple(c % e for c, e in zip(coords, spec.divisor_vector) if e > 1)


def project_index(spec: QuotientSpec, index: int) -> int:
    return spec.quotient.encode(project(spec, spec.parent.decode(index)))


def project_subset(spec: QuotientSpec, subset: GroupSubset) -> GroupSubset:
    """Support of the image of a parent subset in the quotient."""
    return GroupSubset.from_indices(spec.quotient, (project_index(spec, i) for i in subset.indices()))


def enumerate_subgroups(group: GroupType) -> list[GroupSubset]:
    """All subgroups as bit-vector subsets, smallest first.

    Breadth-first over the subgroup lattice: grow each known subgroup by
    one outside generator and close; stop when nothing new appears.
    """
    layout = layout_for(group)
    seen = {1}
    frontier = [1]
    while frontier:
        fresh = []
        for mask in frontier:
            x = layout.full ^ mask
            while x:
                low = x & -x
                x ^= low
                grown = closure_bits(layout, mask | low)
                if grown not in seen:
                    seen.add(grown)
                    fresh.append(grown)
        frontier = fresh
    masks = sorted(seen, key=lambda m: (m.bit_count(), m))
    return [GroupSubset(group, m) for m in masks]


def brute_quotient_types(group: GroupType) -> set[GroupType]:
    """Isomorphism types of all nontrivial quotients, from first principles.

    For each subgroup H, the quotient's p-primary structure is read off by
    counting solutions of p^k * x in H: consecutive count ratios are p to
    the number of cyclic p-power factors of exponent at least k, and the
    conjugate of that profile gives the elementary divisors.
    """
    n = group.order
    types: set[GroupType] = set()
    for sub in enumerate_subgroups(group):
        q = n // sub.size
        if q == 1:
            continue
        entries: list[int] = []
        for p in factorize(q):
            profile = []
            prev = sub.size
            k = 1
            while True:
                cnt = sum(1 for i in range(n) if sub.contains_index(scalar_index(group, p**k, i)))
                ratio, m_k = cnt // prev, 0
                while ratio > 1:
                    if ratio % p:
                        raise RuntimeError(f"count ratio {cnt}/{prev} is not a power of {p}")
                    ratio //= p
                    m_k += 1
                if m_k == 0:
                    break
                profile.append(m_k)
                prev = cnt
                k += 1
            for j in range(1, profile[0] + 1 if profile else 1):
                entries.append(p ** sum(1 for mk in profile if mk >= j))
        types.add(GroupType(tuple(entries)))
    return types
