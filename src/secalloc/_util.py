"""Internal helpers: bitmask sets, the left sum, exact integerization, derived RNG streams."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError


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


def left_sum(values: Iterable):
    """``values`` added left to right from the int 0, as ``sum`` did through
    Python 3.11 (from 3.12 ``sum`` compensates float rounding).  Every sum
    in the library goes through here, so its float bits do not depend on
    the interpreter; an empty input gives the int 0."""
    total = 0
    for v in values:
        total += v
    return total


def float_in_range(value, what: str) -> float:
    """``float(value)``; a :class:`ValidationError` saying that ``what`` is
    beyond the float range where that conversion overflows."""
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{what} is beyond the float range") from None


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

    A float64 ``ndarray`` (of any shape, read in C order) takes a
    vectorized path with the same result.  ``np.frexp`` splits each value
    into a 53-bit integer mantissa M and an exponent e, so its reduced
    denominator is 2**(53 - e - tz), tz being M's trailing zero bits, and
    ``denom`` is the largest of these over the nonzero values (at least
    1).  When every ``v * denom`` is below 2**63 it is an exact int64
    (``np.ldexp``); otherwise, as with subnormals next to large values,
    each int is M shifted in Python.  ``inf`` and ``nan`` raise what
    ``as_integer_ratio`` raises on the first of them.
    """
    if isinstance(values, np.ndarray) and values.dtype == np.float64:
        return _integerize_floats(values.ravel())
    try:
        ratios = [v.as_integer_ratio() for v in values]
    except AttributeError:
        ratios = [_ratio(v) for v in values]
    denom = math.lcm(*[d for _, d in ratios])
    return [n * (denom // d) for n, d in ratios], denom


def _integerize_floats(a: np.ndarray) -> tuple[list[int], int]:
    finite = np.isfinite(a)
    if not finite.all():
        float(a[np.argmin(finite)]).as_integer_ratio()  # OverflowError or ValueError
    frac, exp = np.frexp(a)
    mant = np.ldexp(frac, 53).astype(np.int64)  # exact: |frac| < 1 holds 53 bits
    nonzero = mant != 0
    if not nonzero.any():
        return [0] * a.size, 1
    m, e = mant[nonzero], exp[nonzero]
    tz = np.frexp((m & -m).astype(np.float64))[1] - 1  # the lowest set bit is 2**tz
    scale = max(0, int((53 - e - tz).max()))  # denom = 2**scale
    if int(e.max()) + scale <= 63:
        return np.ldexp(a, scale).astype(np.int64).tolist(), 1 << scale
    # v * denom = M * 2**(e - 53 + scale); a negative power drops only zero bits.
    return [
        v << s if s >= 0 else v >> -s
        for v, s in zip(mant.tolist(), (exp - 53 + scale).tolist())
    ], 1 << scale


def check_seed(seed: int) -> None:
    """A seed for numpy's ``SeedSequence`` must be a nonnegative integer."""
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Per-trial generator, independent of how trials are scheduled."""
    return np.random.default_rng(np.random.SeedSequence((seed, trial)))
