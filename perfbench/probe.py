"""Kernel probe: untraced time per call of each bit-mask kernel.

Each kernel runs on the same fixed, seeded masks for the ROADMAP groups
Z16, Z20, Z24, Z2xZ10, Z4xZ4 and Z2^4, so its speed can be compared
across commits apart from the oracle's candidate mix.  The masks do not
depend on the workload seed.
"""

from __future__ import annotations

import random
import statistics
import time

import critnum.quotients
import critnum.sumsets
from critnum.groups import GroupType

GROUPS = ((16,), (20,), (24,), (2, 10), (4, 4), (2, 2, 2, 2))
KERNELS = ("translate_bits", "pairwise_bits", "hfold_bits", "interval_bits", "subset_sums_bits", "closure_bits")
MASKS = 200
REPEATS = 5
MASK_SEED = 20161122


def group_label(factors: tuple[int, ...]) -> str:
    return "x".join(f"Z{f}" for f in factors)


def metric_names() -> list[str]:
    return [f"probe.{k}.{group_label(g)}.us_per_call" for k in KERNELS for g in GROUPS]


def run(kernels: dict) -> dict[str, float]:
    """Median over repeats of the mean time per call, in microseconds.

    `kernels` maps each kernel name to the unwrapped function to time.
    """
    out = {}
    for factors in GROUPS:
        layout = critnum.sumsets.layout_for(GroupType(factors))
        n = layout.order
        rng = random.Random(f"{MASK_SEED}:{factors}")
        masks = []
        while len(masks) < MASKS:
            bits = sum(1 << i for i in range(n) if rng.random() < 0.3)
            if bits:
                masks.append(bits)
        partners = masks[1:] + masks[:1]
        shifts = [rng.randrange(n) for _ in masks]
        calls = {
            "translate_bits": [(layout, a, g) for a, g in zip(masks, shifts)],
            "pairwise_bits": [(layout, a, b) for a, b in zip(masks, partners)],
            "hfold_bits": [(layout, a, 3) for a in masks],
            "interval_bits": [(layout, a, 3) for a in masks],
            "subset_sums_bits": [(layout, a) for a in masks],
            "closure_bits": [(layout, a) for a in masks],
        }
        for name in KERNELS:
            fn = kernels[name]
            args = calls[name]
            samples = []
            for _ in range(REPEATS):
                start = time.perf_counter()
                for a in args:
                    fn(*a)
                samples.append((time.perf_counter() - start) / len(args) * 1e6)
            out[f"probe.{name}.{group_label(factors)}.us_per_call"] = statistics.median(samples)
    return out


def unwrapped_kernels() -> dict:
    """The kernel functions as the program defines them; call before tracing."""
    found = {name: getattr(critnum.sumsets, name) for name in KERNELS if name != "closure_bits"}
    found["closure_bits"] = critnum.quotients.closure_bits
    return found
