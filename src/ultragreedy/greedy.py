"""Greedy maximum-perimeter selection.

Two regimes share one engine: permutations pick distinct points of a subset
C, each step maximizing the perimeter of the growing set; subsequences
sample with replacement, so every point of C competes at every step and
self-distances matter (full triples only).  The k-th perimeter increment of
a greedy trace is independent of how ties were broken, which makes the
`nu_bar`/`nu` invariants well-defined.  Every increment this module returns
is computed by the engine; `extend_greedy` recomputes its prefix's too.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .core import FullUltraTriple, UltraTriple, _Record, _subset


class GreedyTrace(_Record):
    """An ordered greedy selection with its per-step perimeter increments.

    Increment j is w(c_j) plus the distances from c_j to all earlier picks,
    so the prefix sums of `increments` are the perimeters of the prefixes.
    """

    __slots__ = _fields = ("points", "increments", "mode")
    points: tuple[int, ...]
    increments: tuple[Fraction, ...]
    mode: str  # "permutation" or "subsequence"

    def __init__(self, points: Sequence[int], increments: Sequence[Fraction], mode: str) -> None:
        if mode not in ("permutation", "subsequence"):
            raise ValueError(f"unknown trace mode {mode!r}")
        if len(points) != len(increments):
            raise ValueError("one increment per selected point")
        if mode == "permutation" and len(set(points)) != len(points):
            raise ValueError("permutation trace has repeated points")
        self._set(tuple(points), tuple(increments), mode)

    def __len__(self) -> int:
        return len(self.points)

    def prefix_perimeters(self) -> tuple[Fraction, ...]:
        out: list[Fraction] = []
        total = Fraction(0)
        for inc in self.increments:
            total += inc
            out.append(total)
        return tuple(out)


def _step(t: UltraTriple, gains: dict[int, Fraction], c: int, keep: bool) -> dict[int, Fraction]:
    """The gains after picking c: every candidate x gains d(c, x).

    c itself leaves the candidates unless `keep` (subsequences, where its
    gain grows by the self-distance).  The distances are read straight from
    the tables: every candidate was checked once, by `_subset`.
    """
    dist = t.dist
    row = dist[c]
    out = {}
    for x, g in gains.items():
        if x < c:
            out[x] = g + row[x]
        elif x > c:
            out[x] = g + dist[x][c]
        elif keep:
            out[x] = g + t.selfdist[c]
    return out


def _walk(
    t: UltraTriple, pts: list[int], seq: Sequence[int], m: int, keep: bool
) -> tuple[tuple[int, ...], tuple[Fraction, ...]] | None:
    """m greedy steps over pts, following seq while it lasts.

    Past seq each step takes the lowest-index point of maximum gain.  Returns
    the picks and their gains, or None as soon as an entry of seq has less
    than the maximum gain.  An entry outside pts, an entry that is not an
    int (True, 0.0 and "0" included), a repeat in a permutation and a step
    past the last candidate have no gain at all, so they too give None.
    Each step costs O(|pts|): one pass for the maximum and one distance row
    added to the gain vector.
    """
    gains = {x: t.weights[x] for x in pts}
    chosen: list[int] = []
    increments: list[Fraction] = []
    for i in range(m):
        if not gains:
            return None
        top = max(gains, key=gains.__getitem__)
        c = seq[i] if i < len(seq) else top
        if type(c) is not int or gains.get(c) != gains[top]:
            return None
        chosen.append(c)
        increments.append(gains[c])
        gains = _step(t, gains, c, keep)
    return tuple(chosen), tuple(increments)


def greedy_permutation(t: UltraTriple, C: Iterable[int], m: int) -> GreedyTrace:
    """Pick m distinct points of C, each maximizing the set perimeter.

    Ties go to the lowest point index, so the result is deterministic.
    """
    pts = _subset(t, C)
    if not 0 <= m <= len(pts):
        raise ValueError(f"m={m} must be between 0 and |C|={len(pts)}")
    return GreedyTrace(*_walk(t, pts, (), m, False), "permutation")


def is_greedy_permutation(t: UltraTriple, C: Iterable[int], seq: Sequence[int]) -> bool:
    """Whether seq is distinct, inside C, and step-by-step unbeatable.

    Step i compares the perimeter of the first i entries against swapping
    the i-th entry for any other point of C not used before step i.
    """
    return _walk(t, _subset(t, C), seq, len(seq), False) is not None


def extend_greedy(t: UltraTriple, C: Iterable[int], prefix: GreedyTrace, m: int) -> GreedyTrace:
    """Extend a greedy trace to m points, staying greedy (lowest-index ties).

    Only the prefix's points are used: the walk recomputes every increment,
    the prefix's own included.
    """
    pts = _subset(t, C)
    if prefix.mode != "permutation":
        raise ValueError("only permutation traces can be extended here")
    if not is_greedy_permutation(t, pts, prefix.points):
        raise ValueError("prefix is not a greedy permutation of C")
    if not len(prefix) <= m <= len(pts):
        raise ValueError(f"need |prefix|={len(prefix)} <= m={m} <= |C|={len(pts)}")
    return GreedyTrace(*_walk(t, pts, prefix.points, m, False), "permutation")


def all_greedy_traces(t: UltraTriple, C: Iterable[int], m: int, cap: int = 10**6) -> tuple[GreedyTrace, ...]:
    """Every greedy m-permutation of C with its increments, in lexicographic order.

    Depth-first over every maximizing choice at each step, on an explicit
    stack rather than the call stack, so no depth hits the recursion limit.
    An entry is (chosen, increments, gains): the gains are the parent's,
    over the points remaining there, and the last pick's distance row is
    added only when the entry is popped, so leaves cost nothing.  `cap`
    bounds the number of emitted sequences and exceeding it is an error,
    never a truncation.
    """
    pts = _subset(t, C)
    if not 0 <= m <= len(pts):
        raise ValueError(f"m={m} must be between 0 and |C|={len(pts)}")
    results: list[GreedyTrace] = []
    stack = [((), (), {x: t.weights[x] for x in pts})]
    while stack:
        chosen, increments, gains = stack.pop()
        if len(chosen) == m:
            if len(results) >= cap:
                raise ValueError(f"more than cap={cap} greedy permutations")
            results.append(GreedyTrace(chosen, increments, "permutation"))
            continue
        if chosen:
            gains = _step(t, gains, chosen[-1], False)
        best = max(gains.values())
        # pushed highest index first, so the lowest is popped first
        for x in reversed([x for x, g in gains.items() if g == best]):
            stack.append((chosen + (x,), increments + (best,), gains))
    return tuple(results)


def all_greedy_permutations(
    t: UltraTriple, C: Iterable[int], m: int, cap: int = 10**6
) -> tuple[tuple[int, ...], ...]:
    """Every greedy m-permutation of C, in lexicographic order (see `all_greedy_traces`)."""
    return tuple(tr.points for tr in all_greedy_traces(t, C, m, cap))


def nu_bar(t: UltraTriple, C: Iterable[int], k: int) -> Fraction:
    """The k-th perimeter increment of any greedy permutation of C.

    Equal to max-perimeter(k) - max-perimeter(k-1); the greedy prefixes
    realize both maxima, so one greedy run suffices.
    """
    pts = _subset(t, C)
    if not 1 <= k <= len(pts):
        raise ValueError(f"k={k} out of range 1..{len(pts)}")
    return greedy_permutation(t, pts, k).increments[k - 1]


def greedy_subsequence(t: FullUltraTriple, C: Iterable[int], m: int) -> GreedyTrace:
    """Pick m points of C with replacement, each maximizing tuple perimeter.

    Every point of C competes at every step, the current pick included, so
    repeats appear whenever a point keeps winning; that is why the triple
    must carry self-distances.
    """
    if not isinstance(t, FullUltraTriple):
        raise TypeError("greedy subsequences need a full triple (self-distances)")
    pts = _subset(t, C)
    if not pts:
        raise ValueError("C must be nonempty")
    if m < 0:
        raise ValueError("m must be nonnegative")
    return GreedyTrace(*_walk(t, pts, (), m, True), "subsequence")


def is_greedy_subsequence(t: FullUltraTriple, C: Iterable[int], seq: Sequence[int]) -> bool:
    """Like is_greedy_permutation, but with repeats and all of C competing."""
    if not isinstance(t, FullUltraTriple):
        raise TypeError("greedy subsequences need a full triple (self-distances)")
    return _walk(t, _subset(t, C), seq, len(seq), True) is not None


def nu(t: FullUltraTriple, C: Iterable[int], k: int) -> Fraction:
    """The k-th perimeter increment of any greedy subsequence of C."""
    pts = _subset(t, C)
    if not pts:
        raise ValueError("C must be nonempty")
    if k < 1:
        raise ValueError(f"k={k} must be at least 1")
    return greedy_subsequence(t, pts, k).increments[k - 1]


def clone_triple(t: FullUltraTriple, N: int) -> FullUltraTriple:
    """Replace each point by N interchangeable copies.

    Copy i of point e sits at index e*N + (i-1) with label "<label>#i";
    weights and all distances, self-distances included, ignore the copy
    index.  Greedy m-subsequences of a subset correspond to greedy
    m-permutations over its copies whenever N >= m.
    """
    if not isinstance(N, int) or isinstance(N, bool) or N < 1:
        raise ValueError("N must be a positive integer")
    labels: list[str] = []
    weights: list[Fraction] = []
    selfdist: list[Fraction] = []
    for e in t.points():
        for i in range(1, N + 1):
            labels.append(f"{t.labels[e]}#{i}")
            weights.append(t.weights[e])
            selfdist.append(t.selfdist[e])
    dist: list[tuple[Fraction, ...]] = []
    for a in range(t.n * N):
        row = tuple(t.d(a // N, b // N) for b in range(a))
        dist.append(row)
    return FullUltraTriple(tuple(labels), tuple(weights), tuple(dist), tuple(selfdist))


def nu_bar_inequality_check(
    t: UltraTriple, C: Iterable[int], trace: GreedyTrace, k: int, j: int
) -> bool:
    """Check the j-th entry bound on the k-th increment of a greedy trace.

    For a greedy trace c_1..c_m the invariant nu_bar_k(C) (or nu_k in
    subsequence mode) is bounded by w(c_j) plus the distances from c_j to
    the other entries among the first k.  The trace is assumed greedy, so
    its own k-th increment realizes the invariant.
    """
    _subset(t, C)  # C is only checked: the trace is assumed greedy on it
    if not 1 <= j <= k <= len(trace):
        raise ValueError(f"need 1 <= j={j} <= k={k} <= {len(trace)}")
    cj = trace.points[j - 1]
    rhs = t.w(cj)
    for i in range(1, k + 1):
        if i != j:
            rhs += t.d(trace.points[i - 1], cj)
    return trace.increments[k - 1] <= rhs
