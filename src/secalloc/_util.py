"""Internal helpers: bitmask sets, exact integerization, derived RNG streams."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np


def mask_of(items: Iterable[int]) -> int:
    m = 0
    for j in items:
        m |= 1 << j
    return m


def bits_of(mask: int) -> list[int]:
    out = []
    b = 0
    while mask:
        if mask & 1:
            out.append(b)
        mask >>= 1
        b += 1
    return out


def set_of(mask: int) -> frozenset[int]:
    return frozenset(bits_of(mask))


def _ratio(v) -> tuple[int, int]:
    # A Fraction keeps a NumPy integer's fixed-width type as its numerator.
    f = Fraction(v)
    return int(f.numerator), int(f.denominator)


def integerize(values: Sequence) -> tuple[list[int], int]:
    """Scale numbers to exact integers over their least common denominator.

    Every value's exact ratio comes from ``as_integer_ratio``: floats are
    dyadic rationals, so their ratios are exact and their denominators are
    powers of two; ints and Fractions have the method too.  Values without
    it, such as NumPy integer scalars, go through ``Fraction``.  Each
    returned int is exactly ``v * denom``, with no rounding at all.
    """
    try:
        ratios = [v.as_integer_ratio() for v in values]
    except AttributeError:
        ratios = [_ratio(v) for v in values]
    denom = math.lcm(*[d for _, d in ratios])
    return [n * (denom // d) for n, d in ratios], denom


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Per-trial generator, independent of how trials are scheduled."""
    return np.random.default_rng(np.random.SeedSequence((seed, trial)))
