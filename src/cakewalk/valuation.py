"""Exact piecewise-constant valuations on the unit interval.

All positions and values are `fractions.Fraction`; every query below is
exact, so envy-freeness checks can assert equality rather than closeness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DomainError

ZERO = Fraction(0)
ONE = Fraction(1)

Interval = tuple[Fraction, Fraction]


def frac(value, den=None) -> Fraction:
    """Coerce ints, strings ("2/3" or "2") and Fractions to Fraction."""
    if den is not None:
        return Fraction(value, den)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise DomainError(f"cannot interpret {value!r} as an exact rational")


def format_frac(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _check_unit_range(a: Fraction, b: Fraction) -> None:
    if not (ZERO <= a <= b <= ONE):
        raise DomainError(f"need 0 <= a <= b <= 1, got a={a}, b={b}")


@dataclass(frozen=True)
class Valuation:
    """A normalized additive measure with piecewise-constant density.

    ``breakpoints`` is strictly increasing from 0 to 1; ``densities`` holds
    one non-negative density per consecutive segment, integrating to 1.
    """

    breakpoints: tuple[Fraction, ...]
    densities: tuple[Fraction, ...]

    def __post_init__(self):
        bps, ds = self.breakpoints, self.densities
        if len(bps) < 2 or len(ds) != len(bps) - 1:
            raise DomainError("need n+1 breakpoints for n densities")
        if bps[0] != ZERO or bps[-1] != ONE:
            raise DomainError("breakpoints must start at 0 and end at 1")
        if any(bps[i] >= bps[i + 1] for i in range(len(bps) - 1)):
            raise DomainError("breakpoints must be strictly increasing")
        if any(d < 0 for d in ds):
            raise DomainError("densities must be non-negative")
        total = sum((ds[i] * (bps[i + 1] - bps[i]) for i in range(len(ds))), ZERO)
        if total != ONE:
            raise DomainError(f"total mass must be exactly 1, got {total}")

    def value(self, a, b) -> Fraction:
        """Exact measure of [a, b]; additive over abutting intervals."""
        a, b = frac(a), frac(b)
        _check_unit_range(a, b)
        total = ZERO
        bps, ds = self.breakpoints, self.densities
        for i, d in enumerate(ds):
            lo = max(bps[i], a)
            hi = min(bps[i + 1], b)
            if lo < hi and d:
                total += d * (hi - lo)
        return total

    def value_of(self, intervals: Sequence[Interval]) -> Fraction:
        """Total value of a piece of cake (a list of intervals)."""
        return sum((self.value(lo, hi) for lo, hi in intervals), ZERO)

    def mark(self, a, b, t) -> Fraction:
        """Leftmost c in [a, b] with value(a, c) == t * value(a, b).

        Zero-density plateaus make c non-unique; the leftmost point is the
        stable convention (mark(a, b, 0) == a).
        """
        a, b, t = frac(a), frac(b), frac(t)
        _check_unit_range(a, b)
        if not (ZERO <= t <= ONE):
            raise DomainError(f"need 0 <= t <= 1, got {t}")
        target = t * self.value(a, b)
        if target == 0:
            return a
        acc = ZERO
        bps, ds = self.breakpoints, self.densities
        for i, d in enumerate(ds):
            lo = max(bps[i], a)
            hi = min(bps[i + 1], b)
            if lo >= hi:
                continue
            seg = d * (hi - lo)
            if d and acc + seg >= target:
                return lo + (target - acc) / d
            acc += seg
        return b

    def to_json(self) -> dict:
        return {
            "breakpoints": [format_frac(x) for x in self.breakpoints],
            "densities": [format_frac(x) for x in self.densities],
        }

    @staticmethod
    def from_json(obj: dict) -> "Valuation":
        try:
            bps = tuple(frac(x) for x in obj["breakpoints"])
            ds = tuple(frac(x) for x in obj["densities"])
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"malformed valuation object: {exc}") from exc
        return Valuation(bps, ds)


def uniform() -> Valuation:
    return Valuation((ZERO, ONE), (ONE,))


def random_valuation(seed: int, segments: int) -> Valuation:
    """Deterministic pseudo-random valuation with bounded denominators.

    Breakpoints sit on the 1/(2*segments) grid and segment masses are small
    integer ratios, which keeps every denominator at or below 10_000 for
    segments <= 40.
    """
    if segments < 1:
        raise DomainError("segments must be >= 1")
    if segments > 40:
        raise DomainError("segments > 40 would break the denominator bound")
    rng = random.Random(f"{seed}/{segments}")
    if segments == 1:
        return uniform()
    grid = 2 * segments
    interior = sorted(rng.sample(range(1, grid), segments - 1))
    bps = (ZERO,) + tuple(Fraction(k, grid) for k in interior) + (ONE,)
    while True:
        weights = [rng.randint(0, 3) for _ in range(segments)]
        if any(weights):
            break
    total = sum(weights)
    ds = tuple(
        Fraction(weights[i], total) / (bps[i + 1] - bps[i]) for i in range(segments)
    )
    return Valuation(bps, ds)


def check_allocation(pieces: Sequence[Sequence[Interval]], end=ONE,
                     show=str) -> None:
    """Raise DomainError unless pieces form a partition of [0, 1].

    Interiors must be pairwise disjoint, the union must cover the whole
    cake, and each agent's intervals must be sorted.  Empty intervals
    [x, x] are allowed anywhere.  Positions are ``Fraction``s from 0 to
    ``end`` (1); any ordered positions from 0 will do, such as grid indices
    with ``show`` mapping each to the position printed in errors.
    """
    covering = []
    for who, intervals in enumerate(pieces):
        prev = None
        for lo, hi in intervals:
            if not (0 <= lo <= hi <= end):
                raise DomainError(
                    f"agent {who + 1} holds a bad interval [{show(lo)}, {show(hi)}]")
            if prev is not None and lo < prev:
                raise DomainError(f"agent {who + 1} intervals out of order")
            prev = hi
            if lo < hi:
                covering.append((lo, hi))
    covering.sort()
    cursor = 0
    for lo, hi in covering:
        if lo < cursor:
            raise DomainError(f"overlapping allocation near {show(lo)}")
        if lo > cursor:
            raise DomainError(f"unallocated cake in [{show(cursor)}, {show(lo)}]")
        cursor = hi
    if cursor != end:
        raise DomainError(f"unallocated cake in [{show(cursor)}, {show(end)}]")


@dataclass(frozen=True)
class Allocation:
    """One piece of cake (a tuple of intervals) per agent, covering [0, 1]."""

    pieces: tuple[tuple[Interval, ...], ...]

    def __post_init__(self):
        check_allocation(self.pieces)

    @property
    def agents(self) -> int:
        return len(self.pieces)

    def to_json(self) -> list:
        return [
            [[format_frac(lo), format_frac(hi)] for lo, hi in intervals]
            for intervals in self.pieces
        ]

    @staticmethod
    def from_json(obj) -> "Allocation":
        return Allocation(
            tuple(tuple((frac(lo), frac(hi)) for lo, hi in ivs) for ivs in obj)
        )


def envy_matrix(alloc: Allocation, vals: Sequence[Valuation]) -> tuple[tuple[Fraction, ...], ...]:
    """entry(i, j) = max(V_i(X_j) - V_i(X_i), 0), computed exactly."""
    if len(vals) != alloc.agents:
        raise DomainError(
            f"allocation has {alloc.agents} agents but {len(vals)} valuations given"
        )
    rows = []
    for i, v in enumerate(vals):
        own = v.value_of(alloc.pieces[i])
        rows.append(
            tuple(
                max(v.value_of(alloc.pieces[j]) - own, ZERO) if j != i else ZERO
                for j in range(alloc.agents)
            )
        )
    return tuple(rows)
