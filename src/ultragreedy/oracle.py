"""Brute-force reference implementations.

Everything here enumerates candidates outright and scores them with the
core perimeter functions or raw distances only; none of the incremental
bookkeeping of the greedy module, nor the spanning tree behind
`core.validate`, is shared, so agreement between the two is evidence, not
tautology.  Caps are hard errors, never silent truncation.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product
from typing import Iterable

from .constructions import EquivHierarchy, eqrel_triple
from .core import (
    FullUltraTriple,
    UltraTriple,
    ValidationReport,
    Violation,
    _Record,
    _subset,
    perimeter_set,
    perimeter_tuple,
)


class MaxResult(_Record):
    """An exact maximum plus every candidate attaining it."""

    __slots__ = _fields = ("value", "argmax")
    value: Fraction
    argmax: tuple

    def __init__(self, value: Fraction, argmax: tuple) -> None:
        self._set(value, argmax)


def brute_validate(t: UltraTriple) -> ValidationReport:
    """Check the ultrametric inequality on every triple of points, literally.

    Plain triples are checked over distinct points only; full triples over
    all (possibly equal) points.  O(n**3); `core.validate` must return the
    same report.
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


def brute_max_perimeter(t: UltraTriple, C: Iterable[int], k: int, cap: int = 20) -> MaxResult:
    """Maximum perimeter over all k-subsets of C, with all attaining subsets."""
    pts = _subset(t, C)
    if len(pts) > cap:
        raise ValueError(f"|C|={len(pts)} exceeds cap {cap}")
    if not 0 <= k <= len(pts):
        raise ValueError(f"k={k} must be between 0 and |C|={len(pts)}")
    best = None
    argmax: list[frozenset[int]] = []
    for combo in combinations(pts, k):
        per = perimeter_set(t, combo)
        if best is None or per > best:
            best = per
            argmax = [frozenset(combo)]
        elif per == best:
            argmax.append(frozenset(combo))
    assert best is not None
    return MaxResult(best, tuple(argmax))


def brute_max_tuple_perimeter(
    t: FullUltraTriple, C: Iterable[int], k: int, cap: int = 10**6
) -> MaxResult:
    """Maximum perimeter over all |C|**k tuples, argmax reported as multisets."""
    pts = _subset(t, C)
    if k < 0:
        raise ValueError("k must be nonnegative")
    if len(pts) ** k > cap:
        raise ValueError(f"|C|**k = {len(pts) ** k} exceeds cap {cap}")
    if k > 0 and not pts:
        raise ValueError("C must be nonempty for k > 0")
    best = None
    argmax: set[tuple[int, ...]] = set()
    for tup in product(pts, repeat=k):
        per = perimeter_tuple(t, tup)
        if best is None or per > best:
            best = per
            argmax = {tuple(sorted(tup))}
        elif per == best:
            argmax.add(tuple(sorted(tup)))
    assert best is not None
    return MaxResult(best, tuple(sorted(argmax)))


def brute_all_greedy(
    t: UltraTriple, C: Iterable[int], m: int, cap: int = 10**6
) -> tuple[tuple[int, ...], ...]:
    """All greedy m-permutations, found by filtering every arrangement.

    The step condition is evaluated from raw set perimeters, exactly as
    defined, with none of the incremental shortcuts under test.
    """
    pts = _subset(t, C)
    count = 1
    for i in range(m):
        count *= len(pts) - i
    if count > cap:
        raise ValueError(f"{count} arrangements exceed cap {cap}")
    accepted: list[tuple[int, ...]] = []
    for arrangement in permutations(pts, m):
        ok = True
        for i in range(1, m + 1):
            prefix = arrangement[:i]
            mine = perimeter_set(t, prefix)
            rest = [x for x in pts if x not in prefix[: i - 1]]
            if any(perimeter_set(t, prefix[: i - 1] + (x,)) > mine for x in rest):
                ok = False
                break
        if ok:
            accepted.append(arrangement)
    return tuple(sorted(accepted))


def random_ultra_triple(seed: int, n: int, depth: int = 3) -> UltraTriple:
    """A random valid triple, deterministic in the seed.

    Draws a random refinement chain of partitions with weakly decreasing
    per-level distances; validity is then automatic.  Small value ranges
    keep ties frequent, which the tie-sensitive greedy properties need.
    """
    if not 1 <= n <= 16:
        raise ValueError(f"n={n} must be between 1 and 16")
    if depth < 1:
        raise ValueError("depth must be at least 1")
    rng = random.Random(seed)
    levels: list[list[list[int]]] = [[list(range(n))]]
    for _ in range(depth - 1):
        prev = levels[-1]
        nxt: list[list[int]] = []
        for block in prev:
            if len(block) == 1:
                nxt.append(block)
                continue
            parts = rng.randint(1, len(block))
            buckets: dict[int, list[int]] = {}
            for e in block:
                buckets.setdefault(rng.randrange(parts), []).append(e)
            nxt.extend(sorted(buckets.values(), key=lambda b: b[0]))
        levels.append(nxt)
    levels.append([[e] for e in range(n)])  # force separation of every pair
    c: list[Fraction] = []
    value = Fraction(rng.randint(-2, 8), rng.choice((1, 1, 2)))
    for _ in range(max(1, len(levels) - 1)):
        c.append(value)
        value -= Fraction(rng.choice((0, 0, 1, 2)), rng.choice((1, 2)))
    weights = tuple(Fraction(rng.randint(-8, 8), rng.choice((1, 1, 2))) for _ in range(n))
    h = EquivHierarchy(tuple(tuple(map(frozenset, lv)) for lv in levels), tuple(c))
    return eqrel_triple(h, weights)
