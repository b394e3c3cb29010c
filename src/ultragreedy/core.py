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

from collections import namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import combinations

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


class _Record:
    """A frozen record: slotted fields, set once in `__init__` by `_set`.

    Equality compares instances of one class only, field by field; hash,
    repr, pickling and copying follow `_fields` too.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, *values: object) -> None:
        """Set the leading fields, in order."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()


class UltraTriple(_Record):
    """A finite point set with weights and pairwise distances.

    Points are the dense indices 0..n-1; `labels` is display-only.  `dist`
    is strictly lower-triangular: row i holds d(i, j) for j < i (row 0 is
    empty), so symmetry holds by construction rather than by checking.
    The ultrametric inequality is NOT enforced here; see `validate`.
    """

    __slots__ = _fields = ("labels", "weights", "dist")
    labels: tuple[str, ...]
    weights: tuple[Fraction, ...]
    dist: tuple[tuple[Fraction, ...], ...]

    def __init__(self, labels: Iterable, weights: Iterable, dist: Iterable[Iterable]) -> None:
        labels = tuple(str(x) for x in labels)
        weights = _freeze_rationals(weights)
        dist = tuple(_freeze_rationals(row) for row in dist)
        n = len(labels)
        if len(set(labels)) != n:
            raise ValueError("labels must be pairwise distinct")
        if len(weights) != n:
            raise ValueError(f"expected {n} weights, got {len(weights)}")
        if len(dist) != n or any(len(row) != i for i, row in enumerate(dist)):
            raise ValueError("dist must be lower-triangular: row i needs i entries")
        self._set(labels, weights, dist)

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


class FullUltraTriple(UltraTriple):
    """An ultra triple whose distance is also defined on the diagonal."""

    __slots__ = ("selfdist",)
    _fields = UltraTriple._fields + __slots__
    selfdist: tuple[Fraction, ...]

    def __init__(
        self, labels: Iterable, weights: Iterable, dist: Iterable[Iterable], selfdist: Iterable
    ) -> None:
        super().__init__(labels, weights, dist)
        selfdist = _freeze_rationals(selfdist)
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


Violation = namedtuple("Violation", ("points", "lhs", "rhs"))
Violation.__doc__ = """One failed instance of d(p,q) <= max(d(p,r), d(q,r)).

`points` is (p, q, r): the pair on the left-hand side comes first; `lhs` and
`rhs` are the two sides as Fractions.
"""


class ValidationReport(_Record):
    __slots__ = _fields = ("ok", "violations")
    ok: bool
    violations: tuple[Violation, ...]

    def __init__(self, ok: bool, violations: tuple[Violation, ...]) -> None:
        # ok is determined by the violation list; reject inconsistent reports
        if ok != (len(violations) == 0):
            raise ValueError("ok must equal 'violations is empty'")
        self._set(ok, violations)


def _rows(t: UltraTriple) -> list[list]:
    """Symmetric distance rows; the diagonal holds None (plain) or selfdist (full)."""
    dist, n = t.dist, t.n
    diag = t.selfdist if isinstance(t, FullUltraTriple) else (None,) * n
    rows = [[*row, diag[i]] for i, row in enumerate(dist)]
    for j in range(n):
        for i, x in enumerate(dist[j]):
            rows[i].append(x)
    return rows


def _mst_edges(rows: list[list]) -> list[tuple]:
    """Prim's algorithm on the dense table: n - 1 tree edges (weight, a, b)."""
    n = len(rows)
    if n < 2:
        return []
    best, link = list(rows[0]), [0] * n
    rest = list(range(1, n))
    edges = []
    while rest:
        v = min(rest, key=best.__getitem__)
        rest.remove(v)
        edges.append((best[v], link[v], v))
        row = rows[v]
        for x in rest:
            if row[x] < best[x]:
                best[x], link[x] = row[x], v
    return edges


def _bad_pairs(rows: list[list]) -> list[tuple[int, int]]:
    """Every pair (p, q), p < q, with d(p, q) above its subdominant distance.

    Merging clusters along the tree edges in increasing order (single
    linkage) joins each pair exactly once, at u(p, q), the largest edge on
    its tree path: O(n**2) in total.
    """
    n = len(rows)
    members, root = [[i] for i in range(n)], list(range(n))
    bad = []
    for w, a, b in sorted(_mst_edges(rows)):
        ra, rb = root[a], root[b]
        if len(members[ra]) < len(members[rb]):
            ra, rb = rb, ra
        for p in members[ra]:
            row = rows[p]
            for q in members[rb]:
                if row[q] > w:
                    bad.append((p, q) if p < q else (q, p))
        for q in members[rb]:
            root[q] = ra
        members[ra] += members[rb]
    return bad


def validate(t: UltraTriple) -> ValidationReport:
    """Check the ultrametric inequality on every triple of points.

    Plain triples are checked over distinct points only; full triples over
    all (possibly equal) points.  Never raises on bad geometry: every
    violated inequality is reported once, with its two sides, in the order
    of the literal O(n**3) scan `oracle.brute_validate`: by sorted point
    triple, then by (p, q, r).

    Cost O(n**2 + b*n) for b bad pairs.  The subdominant ultrametric u(p, q),
    the largest edge on the p-q path of a minimum spanning tree, is the
    largest ultrametric below d.  A violation therefore has
    d(p, q) > max(d(p, r), d(q, r)) >= max(u(p, r), u(q, r)) >= u(p, q),
    so only a bad pair, d(p, q) > u(p, q), can be its left-hand side, and
    only bad pairs are scanned against every third point.  With repeated
    points only (p, p, r) can fail, when selfdist(p) > d(p, r).
    """
    rows = _rows(t)
    found: list[Violation] = []
    for p, q in _bad_pairs(rows):
        P, Q = rows[p], rows[q]
        lhs = P[q]
        for r in range(t.n):
            if r != p and r != q and lhs > P[r] and lhs > Q[r]:
                found.append(Violation((p, q, r), lhs, max(P[r], Q[r])))
    if isinstance(t, FullUltraTriple):
        for p, row in enumerate(rows):
            s = row[p]  # at r = p, x is s itself and cannot exceed it
            for r, x in enumerate(row):
                if s > x:
                    found.append(Violation((p, p, r), s, x))
    found.sort(key=lambda v: (sorted(v.points), v.points))
    return ValidationReport(ok=not found, violations=tuple(found))


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
