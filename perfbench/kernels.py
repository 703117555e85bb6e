"""Scalar kernels: cyclotomic multiply and inverse per field order.

Each order gets its own seeded random elements with small rational
coefficients.  The kernel reports microseconds per operation as the median
of several timed rounds, and checks a * a^-1 = 1 and a * b = b * a on its
inputs.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

ORDERS = (2, 3, 4, 5, 7)
ROUNDS = 7
MUL_PAIRS = 300
INVERSES = 60


def _elements(hf, order, rng, count):
    degree = hf.cyclotomic.field_degree(order)
    out = []
    while len(out) < count:
        x = hf.CyclotomicNumber(
            order, [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(degree)]
        )
        if not x.is_zero():
            out.append(x)
    return out


def _per_op_us(fn, items, rounds=ROUNDS):
    clock = time.perf_counter
    samples = []
    for _ in range(rounds):
        start = clock()
        for item in items:
            fn(item)
        samples.append((clock() - start) / len(items) * 1e6)
    return statistics.median(samples)


def run(hf, seed):
    """({metric: microseconds per op}, [check failures])."""
    metrics, wrong = {}, []
    for order in ORDERS:
        rng = random.Random(f"{seed}:{order}")
        pairs = list(zip(_elements(hf, order, rng, MUL_PAIRS), _elements(hf, order, rng, MUL_PAIRS)))
        singles = _elements(hf, order, rng, INVERSES)
        one = hf.CyclotomicNumber.one(order)
        if any(a * b != b * a for a, b in pairs[:20]):
            wrong.append(f"order {order}: multiplication not commutative")
        if any(a * a.inverse() != one for a in singles):
            wrong.append(f"order {order}: a * a^-1 != 1")
        metrics[f"cyclotomic.mul_us.o{order}"] = _per_op_us(lambda p: p[0] * p[1], pairs)
        metrics[f"cyclotomic.inverse_us.o{order}"] = _per_op_us(lambda a: a.inverse(), singles)
    return metrics, wrong
