"""Interdependent valuation functions over bundles of items.

Every agent holds a single nonnegative signal; a valuation maps a
(bundle, signal profile) pair to a nonnegative value.  The constructive
family here builds bundle values out of :class:`SignalWeight` atoms —
capped affine functions of the signal profile with nonnegative
coefficients.  Uncapped weights are linear in the signals (hence XOS over
signals); capped weights stay subadditive over signals.

Three spec families are provided:

* :class:`XOSValuation` — max over additive clauses of per-item weights.
* :class:`UnitDemandValuation` — best single item in the bundle.
* :class:`SeparableValuation` — unit-demand with per-item weight split
  into an own-signal part and an others'-signals part (the structure the
  truthful matching mechanism requires).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from numbers import Real
from typing import Callable, Iterable, Mapping, Sequence, Union

import numpy as np

from ._util import integerize, left_sum, mask_of
from .errors import CapabilityError, ValidationError

# Largest bundle table (2^m entries) bundle_value_table builds: m <= 16.
# The subset DP's own t * 3^m budget already stops at m = 14.
TABLE_BUDGET = 1 << 16

__all__ = [
    "SignalProfile",
    "SignalWeight",
    "ValuationSpec",
    "XOSValuation",
    "UnitDemandValuation",
    "SeparableValuation",
    "Instance",
    "mask_signals",
    "eval_valuation",
    "bundle_value_table",
]


def _check_nonneg(x, what: str):
    # NaN fails the comparison; comparing with math.inf (not math.isinf)
    # keeps huge Fractions valid.
    if not (0 <= x < math.inf):
        raise ValidationError(f"{what} must be finite and nonnegative, got {x!r}")


def _unchecked(cls, **fields):
    """A frozen ``cls`` holding fields that are already validated.

    Masked or Fraction-lifted values equal values that passed
    :func:`_check_nonneg`, and the instance loader runs that check once
    on every number it reads, so none is checked again.
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True)
class SignalProfile:
    """The vector of agent signals; entry i is agent i's signal.

    Values may be floats or Fractions; exact-arithmetic paths rely on the
    latter flowing through untouched.
    """

    values: tuple

    def __init__(self, values: Iterable):
        vals = tuple(values)
        for i, v in enumerate(vals):
            _check_nonneg(v, f"signal {i}")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int):
        return self.values[i]


def mask_signals(profile: SignalProfile, agents: Iterable[int]) -> SignalProfile:
    """Zero out the signals of every agent outside ``agents``."""
    keep = set(agents)
    n = len(profile)
    bad = [i for i in keep if not (0 <= i < n)]
    if bad:
        raise ValidationError(f"agent ids {sorted(bad)} out of range for n={n}")
    zero = 0 * profile.values[0] if n else 0
    vals = tuple(v if i in keep else zero for i, v in enumerate(profile.values))
    return _unchecked(SignalProfile, values=vals)


def _exact_profile(signals):
    """``integerize`` of a profile whose values are all Fractions, else None."""
    if isinstance(signals, SignalProfile):
        signals = signals.values
    for v in signals:
        if type(v) is not Fraction:
            return None
    return integerize(signals)


@dataclass(frozen=True)
class SignalWeight:
    """Capped affine function of the signal profile.

    w(s) = min(cap, const + sum_k coeffs[k] * s[k]); no clamping when cap
    is None.  Coefficients and the constant must be nonnegative, which
    makes every weight monotone in the signals.

    The dot product is a :func:`~secalloc._util.left_sum` in signal
    order.  When the parameters and the signals are all
    Fractions, the weight is evaluated in integers over (weight
    denominator x profile denominator) and returns the Fraction that
    Fraction arithmetic would; other operand types use Python arithmetic.
    """

    coeffs: tuple
    const: Real = 0.0
    cap: Union[Real, None] = None

    def __init__(self, coeffs: Iterable, const=0.0, cap=None):
        cs = tuple(coeffs)
        for k, c in enumerate(cs):
            _check_nonneg(c, f"coeffs[{k}]")
        _check_nonneg(const, "const")
        if cap is not None:
            _check_nonneg(cap, "cap")
        object.__setattr__(self, "coeffs", cs)
        object.__setattr__(self, "const", const)
        object.__setattr__(self, "cap", cap)

    @cached_property
    def _ints(self):
        """``(coeff numerators, const numerator, cap numerator or None,
        denominator)`` when every parameter is a Fraction, else None."""
        caps = () if self.cap is None else (self.cap,)
        params = (*self.coeffs, self.const, *caps)
        if not all(type(p) is Fraction for p in params):
            return None
        den = math.lcm(*(p.denominator for p in params))
        nums = [p.numerator * (den // p.denominator) for p in params]
        k = len(self.coeffs)
        return tuple(nums[:k]), nums[k], None if self.cap is None else nums[k + 1], den

    def __call__(self, signals: Sequence):
        if self._ints is not None:
            prof = _exact_profile(signals)
            if prof is not None:
                return self._exact(prof)
        total = self.const + left_sum(map(operator.mul, self.coeffs, signals))
        if self.cap is not None and total > self.cap:
            return self.cap
        return total

    def _numerator(self, prof) -> int:
        """The value times (weight denominator x profile denominator), for
        an exact weight at ``prof = _exact_profile(signals)``."""
        coeffs, const, cap, _ = self._ints
        nums, den = prof
        total = const * den + left_sum(map(operator.mul, coeffs, nums))
        if cap is not None and total > cap * den:
            return cap * den
        return total

    def _exact(self, prof) -> Fraction:
        return Fraction(self._numerator(prof), self._ints[3] * prof[1])

    def exact(self) -> "SignalWeight":
        """Lift all parameters to Fractions (float mixing would demote them)."""
        return _unchecked(
            SignalWeight,
            coeffs=tuple(map(Fraction, self.coeffs)),
            const=Fraction(self.const),
            cap=None if self.cap is None else Fraction(self.cap),
        )


class ValuationSpec:
    """Base for the constructive valuation families.

    Subclasses expose ``num_agents``/``num_items``, per-bundle evaluation
    via :meth:`value`, and a per-item scalar hook used by the table
    builders.
    """

    num_agents: int
    num_items: int

    def value(self, bundle: Iterable[int], signals: Sequence):
        raise NotImplementedError

    def _validate_bundle(self, bundle: Iterable[int]) -> frozenset:
        b = frozenset(bundle)
        bad = [j for j in b if not (0 <= j < self.num_items)]
        if bad:
            raise ValidationError(
                f"item ids {sorted(bad)} out of range for m={self.num_items}"
            )
        return b

    def _validate_signals(self, signals: Sequence):
        if len(signals) != self.num_agents:
            raise ValidationError(
                f"signal profile has length {len(signals)}, expected {self.num_agents}"
            )


def _as_clause(clause: Mapping[int, SignalWeight]) -> tuple:
    items = sorted(clause)
    return tuple((j, clause[j]) for j in items)


@dataclass(frozen=True)
class XOSValuation(ValuationSpec):
    """Max over additive clauses; each clause maps items to SignalWeights."""

    clauses: tuple
    num_items: int = 0
    num_agents: int = field(default=0)

    def __init__(self, clauses: Iterable[Mapping[int, SignalWeight]], num_items: int):
        cls = tuple(_as_clause(c) for c in clauses)
        if not cls:
            raise ValidationError("an XOS valuation needs at least one clause")
        n = None
        for clause in cls:
            for j, w in clause:
                if not (0 <= j < num_items):
                    raise ValidationError(f"clause references item {j} >= m={num_items}")
                if n is None:
                    n = len(w.coeffs)
                elif len(w.coeffs) != n:
                    raise ValidationError("all clause weights must share the agent count")
        object.__setattr__(self, "clauses", cls)
        object.__setattr__(self, "num_items", num_items)
        object.__setattr__(self, "num_agents", 0 if n is None else n)

    def value(self, bundle, signals):
        b = self._validate_bundle(bundle)
        self._validate_signals(signals)
        best = 0
        for clause in self.clauses:
            tot = left_sum(w(signals) for j, w in clause if j in b)
            if tot > best:
                best = tot
        return best

    def item_scalars(self, signals) -> list[list]:
        """Per-clause, per-item weight values at a fixed profile."""
        prof = _exact_profile(signals)
        out = []
        for clause in self.clauses:
            row = [0] * self.num_items
            for j, w in clause:
                row[j] = w(signals) if prof is None or w._ints is None else w._exact(prof)
            out.append(row)
        return out

    @cached_property
    def _floats(self):
        """``(coeffs, consts, caps)`` as float64 arrays of shapes (K, m, n),
        (K, m) and (K, m) for K clauses, when every weight parameter is a
        float, else None.  An item a clause omits has zero coefficients,
        constant 0.0 and cap inf, so it is worth 0.0 there; ``cap=None``
        is the cap inf too."""
        k, m, n = len(self.clauses), self.num_items, self.num_agents
        coeffs, consts, caps = np.zeros((k, m, n)), np.zeros((k, m)), np.full((k, m), np.inf)
        for c, clause in enumerate(self.clauses):
            for j, w in clause:
                params = (*w.coeffs, w.const) + (() if w.cap is None else (w.cap,))
                if not all(type(p) is float for p in params):
                    return None
                coeffs[c, j] = w.coeffs
                consts[c, j] = w.const
                if w.cap is not None:
                    caps[c, j] = w.cap
        return coeffs, consts, caps

    def _exact_table(self, prof) -> Union[list, None]:
        """The bundle table at ``prof``, when every weight is exact: one
        integer additive table per clause over a common denominator, their
        elementwise max, and one conversion per entry."""
        weights = [w for clause in self.clauses for _, w in clause]
        if any(w._ints is None for w in weights):
            return None
        den = math.lcm(*(w._ints[3] for w in weights))
        tab = None
        for clause in self.clauses:
            row = [0] * self.num_items
            for j, w in clause:
                row[j] = w._numerator(prof) * (den // w._ints[3])
            ctab = _additive_table(row)
            tab = ctab if tab is None else list(map(max, tab, ctab))
        den *= prof[1]
        # In the Fraction tables an entry is the int 0 only where every
        # clause sums to 0 and the last clause, which wins ties, holds none
        # of the bundle's items.
        last = mask_of(j for j, _ in self.clauses[-1])
        return [Fraction(v, den) if v or mask & last else 0 for mask, v in enumerate(tab)]

    def exact(self) -> "XOSValuation":
        return XOSValuation(
            ({j: w.exact() for j, w in clause} for clause in self.clauses),
            num_items=self.num_items,
        )


class _UnitDemand(ValuationSpec):
    """Unit-demand families: a bundle is worth its best item, so every
    matching path reads such an agent only through :meth:`item_weights`."""

    def item_weights(self, signals) -> tuple:
        """Every item's weight at one signal profile, in item order."""
        if isinstance(signals, SignalProfile):
            signals = signals.values
        prof = _exact_profile(signals)
        return tuple(self._item_value(j, signals, prof) for j in range(self.num_items))

    def item_weight(self, j: int, signals):
        # Subclasses define _item_value(j, signals, prof); taking
        # prof = _exact_profile(signals) lets item_weights convert the
        # profile once for all items.
        return self._item_value(j, signals, _exact_profile(signals))

    def value(self, bundle, signals):
        b = self._validate_bundle(bundle)
        self._validate_signals(signals)
        if not b:
            return 0
        prof = _exact_profile(signals)
        return max(self._item_value(j, signals, prof) for j in b)


@dataclass(frozen=True)
class UnitDemandValuation(_UnitDemand):
    """Value of a bundle is the best single item's weight."""

    weights: tuple
    num_agents: int = field(default=0)

    def __init__(self, weights: Iterable[SignalWeight]):
        ws = tuple(weights)
        if not ws:
            raise ValidationError("a unit-demand valuation needs per-item weights")
        n = len(ws[0].coeffs)
        if any(len(w.coeffs) != n for w in ws):
            raise ValidationError("all item weights must share the agent count")
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "num_agents", n)

    @property
    def num_items(self) -> int:
        return len(self.weights)

    def _item_value(self, j: int, signals, prof):
        w = self.weights[j]
        return w(signals) if prof is None or w._ints is None else w._exact(prof)

    def exact(self) -> "UnitDemandValuation":
        return UnitDemandValuation(w.exact() for w in self.weights)


@dataclass(frozen=True)
class SeparableValuation(_UnitDemand):
    """Unit-demand valuation whose per-item weight splits by signal source.

    Item j is worth own[j](s) + others[j](s), where own[j] may only read
    the owner's signal (and a constant, no cap) and others[j] has a zero
    coefficient on the owner.  On bundles of at most one item this is
    exactly the additive own-part/others-part decomposition the payment
    rule differences; on larger bundles the best single item wins, which
    keeps the valuation unit-demand for every signal profile.
    """

    agent: int
    own: tuple
    others: tuple
    num_agents: int = field(default=0)

    def __init__(self, agent: int, own: Iterable[SignalWeight], others: Iterable[SignalWeight]):
        own_t, others_t = tuple(own), tuple(others)
        if len(own_t) != len(others_t) or not own_t:
            raise ValidationError("own/others must be equal-length, nonempty item lists")
        n = len(own_t[0].coeffs)
        if not (0 <= agent < n):
            raise ValidationError(f"agent {agent} out of range for n={n}")
        for j, w in enumerate(own_t):
            if len(w.coeffs) != n:
                raise ValidationError("all weights must share the agent count")
            if any(c != 0 for k, c in enumerate(w.coeffs) if k != agent):
                raise ValidationError(f"own[{j}] may only use the owner's coefficient")
            if w.cap is not None:
                raise ValidationError(f"own[{j}] must be uncapped (affine in s_i)")
        for j, w in enumerate(others_t):
            if len(w.coeffs) != n:
                raise ValidationError("all weights must share the agent count")
            if w.coeffs[agent] != 0:
                raise ValidationError(f"others[{j}] must not read the owner's signal")
        object.__setattr__(self, "agent", agent)
        object.__setattr__(self, "own", own_t)
        object.__setattr__(self, "others", others_t)
        object.__setattr__(self, "num_agents", n)

    @property
    def num_items(self) -> int:
        return len(self.own)

    def _item_value(self, j: int, signals, prof):
        own, others = self.own[j], self.others[j]
        if prof is None or own._ints is None or others._ints is None:
            return own(signals) + others(signals)
        a, b = own._ints[3], others._ints[3]
        return Fraction(own._numerator(prof) * b + others._numerator(prof) * a, a * b * prof[1])

    def others_value(self, bundle: Iterable[int], signals):
        """Others'-signals part on a bundle of at most one item."""
        b = self._validate_bundle(bundle)
        if not b:
            return 0
        if len(b) > 1:
            raise ValidationError("others_value is defined for bundles of size <= 1")
        (j,) = b
        return self.others[j](signals)

    def exact(self) -> "SeparableValuation":
        return SeparableValuation(
            self.agent,
            (w.exact() for w in self.own),
            (w.exact() for w in self.others),
        )


SetFunction = Callable[[frozenset, Sequence], Real]
SpecLike = Union[ValuationSpec, SetFunction]


def eval_valuation(spec: SpecLike, bundle: Iterable[int], signals: Sequence):
    """Evaluate a valuation (spec or raw callable) on a bundle and profile."""
    if isinstance(spec, ValuationSpec):
        return spec.value(bundle, signals)
    sigs = signals.values if isinstance(signals, SignalProfile) else signals
    return spec(frozenset(bundle), sigs)


def _additive_table(scalars: Sequence) -> list:
    m = len(scalars)
    tab = [0] * (1 << m)
    for mask in range(1, 1 << m):
        low = mask & -mask
        tab[mask] = tab[mask ^ low] + scalars[low.bit_length() - 1]
    return tab


def _max_table(scalars: Sequence) -> list:
    m = len(scalars)
    tab = [0] * (1 << m)
    for mask in range(1, 1 << m):
        low = mask & -mask
        prev = tab[mask ^ low]
        cur = scalars[low.bit_length() - 1]
        tab[mask] = cur if cur > prev else prev
    return tab


def _check_table_budget(num_items: int) -> None:
    size = 1 << num_items
    if size > TABLE_BUDGET:
        raise CapabilityError(
            f"a bundle table over m={num_items} items has {size} entries, "
            f"over the table budget {TABLE_BUDGET}"
        )


def _float_xos_tables(specs: Sequence, profiles: Sequence):
    """``bundle_value_table(specs[r], profiles[r])`` for every r, as the
    rows of one (t, 2^m) float64 array built in a single numpy pass.

    Returns None unless every spec is an :class:`XOSValuation` over the
    same m with float parameters (``XOSValuation._floats``) and every
    profile value is a float.  Each entry has the bits of the Python
    table's entry (an int 0 there is 0.0 here):

    * a weight is a fold from +0.0 over ascending signal indices, then
      ``const + total``, then the cap where ``total > cap``; a signal
      that is zero in every profile is skipped, since x + (+-0.0) == x
      for every x >= +0.0 the fold can hold;
    * a clause's entry adds its items from the highest bit down, which
      the doubling over descending bits below reproduces;
    * clauses are maxed by ``np.maximum``: no entry is nan or -0.0, so
      equal entries have equal bits and the clause order cannot matter.

    Overflow to inf stays silent, as in Python arithmetic.  Raises
    :class:`CapabilityError` before allocating when 2^m exceeds
    :data:`TABLE_BUDGET`.
    """
    if not specs:
        return None
    m = specs[0].num_items
    forms, rows = [], []
    for spec, prof in zip(specs, profiles):
        form = spec._floats if isinstance(spec, XOSValuation) and spec.num_items == m else None
        vals = prof.values if isinstance(prof, SignalProfile) else prof
        if form is None or len(vals) != spec.num_agents or any(type(v) is not float for v in vals):
            return None
        forms.append(form)
        rows.append(vals)
    _check_table_budget(m)
    coeffs, consts, caps = (np.concatenate(part) for part in zip(*forms))
    clauses = [len(form[1]) for form in forms]
    sig = np.array(rows, dtype=np.float64).repeat(clauses, axis=0)  # one row per clause
    with np.errstate(all="ignore"):
        total = np.zeros(consts.shape)
        for k in np.flatnonzero(sig.any(axis=0)):
            total += coeffs[:, :, k] * sig[:, k, None]
        total = consts + total
        scalars = np.where(total > caps, caps, total)
        tab = np.zeros((len(scalars), 1))
        for b in range(m - 1, -1, -1):
            # Bit b becomes the lowest bit of the index, and is added last.
            tab = np.stack((tab, tab + scalars[:, b, None]), axis=-1).reshape(len(tab), -1)
        starts = np.cumsum([0] + clauses[:-1])
        return np.maximum.reduceat(tab, starts, axis=0)


def bundle_value_table(spec: SpecLike, signals: Sequence) -> list:
    """Values of every bundle, indexed by item bitmask (length 2^m).

    The offline optima read these tables; float XOS step optima build
    theirs in one batch with the same bits (:func:`_float_xos_tables`).
    Tables are exact in whatever numeric domain the signals live in
    (float or Fraction).  On an all-Fraction profile and all-Fraction
    weights, an XOS table is built in integers and each entry converted
    once; every entry is the Fraction (or, where the Fraction sums would
    leave it, the int 0) that the additive and max tables over
    :meth:`XOSValuation.item_scalars` hold.  Raises
    :class:`CapabilityError` before allocating when 2^m exceeds
    :data:`TABLE_BUDGET`.
    """
    if not isinstance(spec, ValuationSpec):
        raise ValidationError("bundle_value_table requires a constructive spec")
    _check_table_budget(spec.num_items)
    if isinstance(signals, SignalProfile):
        signals = signals.values
    if isinstance(spec, XOSValuation):
        prof = _exact_profile(signals)
        tab = None if prof is None else spec._exact_table(prof)
        if tab is not None:
            return tab
        per_clause = [_additive_table(row) for row in spec.item_scalars(signals)]
        tab = per_clause[0]
        for other in per_clause[1:]:
            tab = [a if a > b else b for a, b in zip(tab, other)]
        return tab
    if isinstance(spec, _UnitDemand):
        return _max_table(spec.item_weights(signals))
    raise ValidationError(f"unsupported spec type {type(spec).__name__}")


@dataclass(frozen=True)
class Instance:
    """A full problem input: agents, items, valuations, true signals."""

    n: int
    m: int
    specs: tuple
    signals: SignalProfile
    family: Union[str, None] = None

    def __init__(self, specs: Iterable[ValuationSpec], signals, family=None):
        specs_t = tuple(specs)
        sig = signals if isinstance(signals, SignalProfile) else SignalProfile(signals)
        n = len(specs_t)
        if len(sig) != n:
            raise ValidationError(f"{len(sig)} signals for {n} agents")
        ms = {s.num_items for s in specs_t}
        if len(ms) != 1:
            raise ValidationError(f"specs disagree on item count: {sorted(ms)}")
        for i, s in enumerate(specs_t):
            if s.num_agents != n:
                raise ValidationError(
                    f"spec {i} is built for {s.num_agents} agents, instance has {n}"
                )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", ms.pop())
        object.__setattr__(self, "specs", specs_t)
        object.__setattr__(self, "signals", sig)
        object.__setattr__(self, "family", family)

    def exact(self) -> "Instance":
        """Same instance with signals and weight parameters as exact Fractions."""
        return Instance(
            (spec.exact() for spec in self.specs),
            _unchecked(SignalProfile, values=tuple(map(Fraction, self.signals.values))),
            family=self.family,
        )
