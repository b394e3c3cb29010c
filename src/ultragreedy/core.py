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

import re
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from itertools import combinations
from operator import itemgetter

Rational = Fraction
_RATIONAL_FORM = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")  # ASCII: \d matches any Unicode digit


def rational(value: int | str | Fraction) -> Fraction:
    """Coerce an int, Fraction, or string like '-3/4' to an exact rational.

    A string is an integer or "p/q", trimmed: ASCII digits, a minus sign only
    in front, an unsigned denominator.  Floats are rejected: binary rounding
    would corrupt the exact tie detection that greedy/greedoid relies on.
    """
    if isinstance(value, bool) or isinstance(value, float):
        raise TypeError(f"expected an exact rational, got {value!r}")
    if not isinstance(value, str):
        return Fraction(value)
    if (match := _RATIONAL_FORM.fullmatch(value.strip())) is None:
        raise ValueError(f"{value!r} is not p/q or integer")
    return Fraction(int(match[1]), int(match[2] or 1))


def _freeze_rationals(values: Iterable[int | str | Fraction]) -> tuple[Fraction, ...]:
    # exact Fractions (e.g. from a parsed file) are immutable: keep them as
    # they are, and a tuple of nothing else as it is, checked at C speed
    values = tuple(values)
    if set(map(type, values)) <= {Fraction}:
        return values
    return tuple(v if type(v) is Fraction else rational(v) for v in values)


def _is_int(value: object) -> bool:
    """An int that is not a bool: every count, ground, point and mask is one."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_count(m: object) -> None:
    """A count is an int, never a bool: True would count one."""
    if not _is_int(m):
        raise TypeError(f"count {m!r}: {type(m).__name__!r} object cannot be interpreted as an integer")


def _shown(value: object) -> str:
    """repr(value), or the bit length of an int over 64 bits, whose digits could pass the int/str limit."""
    if isinstance(value, int) and value.bit_length() > 64:
        return f"<{value.bit_length()}-bit integer>"
    return repr(value)


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
        if not _is_int(a) or not 0 <= a < self.n:
            raise IndexError(f"point {_shown(a)} out of range for {self.n} points")

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
    dist = t.dist
    diag = t.selfdist if isinstance(t, FullUltraTriple) else (None,) * t.n
    return [[*row, diag[i], *map(itemgetter(i), dist[i + 1 :])] for i, row in enumerate(dist)]


def _merges(rows: list[list]) -> Iterator[tuple]:
    """The single-linkage merges of the table, in increasing order.

    Prim's algorithm finds a minimum spanning tree; its edges, sorted, merge
    the clusters.  Yields (w, A, B, bad): the edge weight, the member lists
    of the larger and the smaller cluster it joins, after which A absorbs B
    (so A[0] names the cluster for good), and the cross pairs (p, q), p < q,
    with d(p, q) > w.  Each pair of points meets in exactly one step, at
    u(p, q), the largest edge on its tree path, so an ultrametric has no bad
    pair: O(n**2) in total.  The diagonal is never read.
    """
    n = len(rows)
    best, link = list(rows[0]) if n else [], [0] * n
    rest, edges = list(range(1, n)), []
    while rest:
        v = min(rest, key=best.__getitem__)
        rest.remove(v)
        edges.append((best[v], link[v], v))
        row = rows[v]
        for x in rest:
            if row[x] < best[x]:
                best[x], link[x] = row[x], v
    members, root = [[i] for i in range(n)], list(range(n))
    for w, a, b in sorted(edges):
        A, B = members[root[a]], members[root[b]]
        if len(A) < len(B):
            A, B = B, A
        yield w, A, B, [(p, q) if p < q else (q, p) for p in A for q in B if rows[p][q] > w]
        for q in B:
            root[q] = A[0]
        A += B


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
    so only a bad pair of `_merges`, d(p, q) > u(p, q), can be its left-hand
    side, and only bad pairs are scanned against every third point.  With
    repeated points only (p, p, r) can fail, when selfdist(p) > d(p, r) for
    some r, that is when selfdist(p) exceeds p's nearest-neighbour distance.
    Every minimum spanning tree holds a lightest edge at each point, so p is
    a singleton side exactly once, at that distance: there (p, p) joins the
    merge's bad pairs, and the same scan reports its (p, p, r).
    """
    rows, found = _rows(t), []
    full = isinstance(t, FullUltraTriple)
    for w, A, B, bad in _merges(rows):
        if full:
            bad += [(p, p) for S in (A, B) if len(S) == 1 for p in S if rows[p][p] > w]
        for p, q in bad:
            P, Q = rows[p], rows[q]
            lhs = P[q]
            for r in range(t.n):
                if r != p and r != q and lhs > P[r] and lhs > Q[r]:
                    found.append(Violation((p, q, r), lhs, max(P[r], Q[r])))
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
