"""Weighted point sets with ultrametric distances.

A ground set of n points carries a weight per point and an exact rational
distance per unordered pair of distinct points; a full triple also carries
self-distances.  Everything downstream (perimeters, greedy selection, the
perimeter greedoid) is built on the two perimeter functions and the
projection operator defined here.

All numbers are `fractions.Fraction`.  The maximum-perimeter theory depends
on exact ties between perimeters, so floats are rejected at the door.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from typing import Iterable, NamedTuple, Sequence

Rational = Fraction


def rational(value: int | str | Fraction) -> Fraction:
    """Coerce an int, Fraction, or string like '3/4' to an exact rational.

    Floats are rejected: binary rounding would corrupt the exact tie
    detection that the greedy/greedoid machinery relies on.
    """
    if isinstance(value, bool) or isinstance(value, float):
        raise TypeError(f"expected an exact rational, got {value!r}")
    return Fraction(value)


def _freeze_rationals(values: Iterable[int | str | Fraction]) -> tuple[Fraction, ...]:
    # exact Fractions (e.g. from a parsed file) are immutable: keep them as they are
    return tuple(v if type(v) is Fraction else rational(v) for v in values)


@dataclass(frozen=True)
class UltraTriple:
    """A finite point set with weights and pairwise distances.

    Points are the dense indices 0..n-1; `labels` is display-only.  `dist`
    is strictly lower-triangular: row i holds d(i, j) for j < i (row 0 is
    empty), so symmetry holds by construction rather than by checking.
    The ultrametric inequality is NOT enforced here; see `validate`.
    """

    labels: tuple[str, ...]
    weights: tuple[Fraction, ...]
    dist: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        labels = tuple(str(x) for x in self.labels)
        weights = _freeze_rationals(self.weights)
        dist = tuple(_freeze_rationals(row) for row in self.dist)
        n = len(labels)
        if len(set(labels)) != n:
            raise ValueError("labels must be pairwise distinct")
        if len(weights) != n:
            raise ValueError(f"expected {n} weights, got {len(weights)}")
        if len(dist) != n or any(len(row) != i for i, row in enumerate(dist)):
            raise ValueError("dist must be lower-triangular: row i needs i entries")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "dist", dist)

    @property
    def n(self) -> int:
        return len(self.labels)

    def points(self) -> range:
        return range(self.n)

    def _check_point(self, a: int) -> None:
        if not isinstance(a, int) or isinstance(a, bool) or not 0 <= a < self.n:
            raise IndexError(f"point {a!r} out of range for {self.n} points")

    def w(self, a: int) -> Fraction:
        self._check_point(a)
        return self.weights[a]

    def d(self, a: int, b: int) -> Fraction:
        self._check_point(a)
        self._check_point(b)
        if a == b:
            raise ValueError("self-distance is undefined; use a full triple")
        if a < b:
            a, b = b, a
        return self.dist[a][b]

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown point label {label!r}") from None


@dataclass(frozen=True)
class FullUltraTriple(UltraTriple):
    """An ultra triple whose distance is also defined on the diagonal."""

    selfdist: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        super().__post_init__()
        selfdist = _freeze_rationals(self.selfdist)
        if len(selfdist) != self.n:
            raise ValueError(f"expected {self.n} self-distances, got {len(selfdist)}")
        object.__setattr__(self, "selfdist", selfdist)

    def d(self, a: int, b: int) -> Fraction:
        if a == b:
            self._check_point(a)
            return self.selfdist[a]
        return super().d(a, b)

    def without_selfdist(self) -> UltraTriple:
        """The plain triple obtained by forgetting the diagonal."""
        return UltraTriple(self.labels, self.weights, self.dist)


def _subset(t: UltraTriple, C: Iterable[int]) -> list[int]:
    """The candidate set C as sorted distinct points, each checked against t."""
    pts = sorted(set(C))
    for a in pts:
        t._check_point(a)
    return pts


class Violation(NamedTuple):
    """One failed instance of d(p,q) <= max(d(p,r), d(q,r)).

    `points` is (p, q, r): the pair on the left-hand side comes first.
    """

    points: tuple[int, int, int]
    lhs: Fraction
    rhs: Fraction


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]

    def __post_init__(self) -> None:
        # ok is determined by the violation list; reject inconsistent reports
        if self.ok != (len(self.violations) == 0):
            raise ValueError("ok must equal 'violations is empty'")


def validate(t: UltraTriple) -> ValidationReport:
    """Check the ultrametric inequality on every triple of points.

    Plain triples are checked over distinct points only; full triples over
    all (possibly equal) points.  Never raises on bad geometry: every
    violated inequality is reported once, with its two sides.
    """
    full = isinstance(t, FullUltraTriple)
    if full:
        candidates = combinations_with_replacement(t.points(), 3)
    else:
        candidates = combinations(t.points(), 3)
    violations: list[Violation] = []
    for x, y, z in candidates:
        # each unordered choice of the left-hand pair, deduplicated when
        # the three points are not distinct
        for p, q, r in sorted({(x, y, z), (x, z, y), (y, z, x)}):
            lhs = t.d(p, q)
            rhs = max(t.d(p, r), t.d(q, r))
            if lhs > rhs:
                violations.append(Violation((p, q, r), lhs, rhs))
    return ValidationReport(ok=not violations, violations=tuple(violations))


def perimeter_set(t: UltraTriple, A: Iterable[int]) -> Fraction:
    """Sum of weights of A plus all pairwise distances within A."""
    return perimeter_tuple(t, sorted(set(A)))


def perimeter_tuple(t: UltraTriple, entries: Sequence[int]) -> Fraction:
    """Perimeter of a tuple, repeats allowed.

    Every ordered pair of positions i < j contributes d(entries[i],
    entries[j]), so repeated points pull in self-distances and the input
    must be a full triple unless its entries are distinct.  Invariant under
    permutation of the tuple; equal to `perimeter_set` on distinct entries.
    """
    total = Fraction(0)
    for a in entries:
        total += t.w(a)
    for i, j in combinations(range(len(entries)), 2):
        total += t.d(entries[i], entries[j])
    return total


def projections(t: UltraTriple, C: Iterable[int], v: int) -> set[int]:
    """All points of C nearest to v, or {v} itself when v lies in C."""
    pts = sorted(set(C))
    if not pts:
        raise ValueError("projections onto an empty set are undefined")
    t._check_point(v)
    if v in pts:
        return {v}
    best = min(t.d(v, c) for c in pts)
    return {c for c in pts if t.d(v, c) == best}
