"""Greedy maximum-perimeter selection.

Two regimes share one engine: permutations pick distinct points of a subset
C, each step maximizing the perimeter of the growing set; subsequences
sample with replacement, so every point of C competes at every step and
self-distances matter (full triples only).  Greedy m-subsequences
correspond to greedy m-permutations over N >= m copies of each point, built
by `constructions.clone_triple`.  The k-th perimeter increment of a greedy
trace is independent of how ties were broken, which makes the
`nu_bar`/`nu` invariants well-defined.  Every answer is one engine run:
`extend_greedy`'s one walk checks its prefix as it recomputes it.
The engine keeps its gains as integers over a common denominator (see
`_scaled`); Fractions are made only for the values it returns.
Tie enumeration and counting run the engine once per distinct set of picks,
on the set DAG of `_set_dag`.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction

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


def _scaled(L: int, gains: dict[int, int], adds: dict[int, Fraction]) -> tuple[int, dict[int, int]]:
    """The gain vector (L, gains) plus `adds`, on the keys of `adds`.

    A gain vector (L, {x: g}) holds the gain g/L of each candidate x, with
    L the lcm of every denominator the vector has read, so comparing and
    adding gains is exact integer work.  A new denominator in `adds` grows
    L to M, and the old gains are scaled by M // L as they are added to.
    """
    M = math.lcm(L, *{v.denominator for v in adds.values()})
    s = M // L
    return M, {x: gains[x] * s + v.numerator * (M // v.denominator) for x, v in adds.items()}


def _start(t: UltraTriple, pts: list[int]) -> tuple[int, dict[int, int]]:
    """The gain vector before any pick: each candidate's weight."""
    return _scaled(1, dict.fromkeys(pts, 0), {x: t.weights[x] for x in pts})


def _step(t: UltraTriple, vec: tuple[int, dict[int, int]], c: int, keep: bool) -> tuple[int, dict[int, int]]:
    """The gain vector after picking c: every candidate x gains d(c, x).

    c itself leaves the candidates unless `keep` (subsequences, where its
    gain grows by the self-distance).  The distances are read straight from
    the tables: every candidate was checked once, by `_subset`.
    """
    L, gains = vec
    dist = t.dist
    row = dist[c]
    adds = {}
    for x in gains:
        if x < c:
            adds[x] = row[x]
        elif x > c:
            adds[x] = dist[x][c]
        elif keep:
            adds[x] = t.selfdist[c]
    return _scaled(L, gains, adds)


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
    L, gains = vec = _start(t, pts)
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
        increments.append(Fraction(gains[c], L))
        L, gains = vec = _step(t, vec, c, keep)
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

    One walk follows the prefix, which checks it, and extends it; only the
    prefix's points are used, and every increment is recomputed.
    """
    pts = _subset(t, C)
    if prefix.mode != "permutation":
        raise ValueError("only permutation traces can be extended here")
    if not len(prefix) <= m <= len(pts):
        raise ValueError(f"need |prefix|={len(prefix)} <= m={m} <= |C|={len(pts)}")
    walk = _walk(t, pts, prefix.points, m, False)
    if walk is None:
        raise ValueError("prefix is not a greedy permutation of C")
    return GreedyTrace(*walk, "permutation")


def _set_dag(t: UltraTriple, C: Iterable[int], m: int, cap: float = math.inf) -> tuple[list[dict], int]:
    """Levels 0..m-1 of the greedy set DAG over C, and its number of paths.

    A candidate's gain is w(x) plus its distances to the picks so far, so it
    depends on the set picked, not on the order: the greedy m-permutations
    of C are the paths of a DAG whose level-k nodes are the sets (bitmasks)
    that greedy runs reach after k picks.  Level k maps each of its sets to
    (best, winners): the set's maximum gain, one Fraction object per value
    within the level, and the points attaining it, lowest index first.
    Each set's gain vector is built once, by `_step` from the first set that
    reaches it; only two levels of them are alive, and level m's are never
    built.  Paths into each set are counted on the way.  Every set below
    level m has a winner, so no path stops short of level m, and a count
    past `cap` at any level is an error at once, before the next level.
    """
    pts = _subset(t, C)
    if not 0 <= m <= len(pts):
        raise ValueError(f"m={m} must be between 0 and |C|={len(pts)}")
    levels: list[dict] = []
    level = {0: _start(t, pts)}  # each set -> its gain vector
    paths = {0: 1}  # each set -> the greedy runs that reach it
    while True:
        total = sum(paths.values())
        if total > cap:
            raise ValueError(f"more than cap={cap} greedy permutations")
        if len(levels) == m:
            return levels, total
        grow = len(levels) + 1 < m
        nodes, nxt, into, share = {}, {}, {}, {}  # share: each increment value of the level -> its one object
        for A, vec in level.items():
            L, gains = vec
            top = max(gains.values())
            winners = [x for x, g in gains.items() if g == top]
            nodes[A] = share.setdefault(best := Fraction(top, L), best), winners
            runs = paths[A]
            for x in winners:
                B = A | 1 << x
                if B in into:
                    into[B] += runs
                else:
                    into[B] = runs
                    if grow:
                        nxt[B] = _step(t, vec, x, False)
        levels.append(nodes)
        level, paths = nxt, into


def _paths(
    levels: list[dict],
) -> Iterator[tuple[tuple[int, ...], tuple[Fraction, ...], list[int] | tuple[()]]]:
    """The greedy paths through the levels, one group per visit of a
    last-level set, in lexicographic order.

    A group (picks, increments, winners) holds the m - 1 picks that reach
    the set, the m increments shared by every path through it, and the
    set's winners, lowest index first: its paths are picks + (x,) for each
    winner x.  Only m = 0 gives a group with no winners, the one empty path.
    Depth-first on an explicit stack rather than the call stack, so no
    depth hits the recursion limit.  A level's equal increments are one
    object, which is all that the trace writer's reuse test looks at.
    """
    if not levels:
        yield (), (), ()
        return
    last = len(levels) - 1
    stack = [((), (), 0)]  # (points, increments before the next pick, set)
    while stack:
        chosen, increments, A = stack.pop()
        k = len(chosen)
        best, winners = levels[k][A]
        increments += (best,)
        if k == last:
            yield chosen, increments, winners
        else:
            # pushed highest index first, so the lowest is popped first
            for x in reversed(winners):
                stack.append((chosen + (x,), increments, A | 1 << x))


def _expand(levels: list[dict]) -> Iterator[tuple[tuple[int, ...], tuple[Fraction, ...]]]:
    """(points, increments) of every path of `_paths`, in its order."""
    for chosen, increments, winners in _paths(levels):
        if not winners:
            yield chosen, increments
        for x in winners:
            yield chosen + (x,), increments


def all_greedy_traces(t: UltraTriple, C: Iterable[int], m: int, cap: int = 10**6) -> tuple[GreedyTrace, ...]:
    """Every greedy m-permutation of C with its increments, in lexicographic order.

    The permutations are the paths of the set DAG (`_set_dag`): one gain
    vector per distinct set that greedy runs reach, not per prefix.  The
    paths are counted before any trace is built, and `cap` bounds that
    count: exceeding it is an error, never a truncation.
    """
    return tuple(GreedyTrace(points, increments, "permutation") for points, increments in _expand(_set_dag(t, C, m, cap)[0]))


def all_greedy_permutations(
    t: UltraTriple, C: Iterable[int], m: int, cap: int = 10**6
) -> tuple[tuple[int, ...], ...]:
    """Every greedy m-permutation of C, in lexicographic order (see `all_greedy_traces`)."""
    return tuple(points for points, _ in _expand(_set_dag(t, C, m, cap)[0]))


def count_greedy_permutations(t: UltraTriple, C: Iterable[int], m: int) -> int:
    """The number of greedy m-permutations of C, counted on the set DAG
    without building any of them: the work follows the distinct sets that
    greedy runs reach, not the permutations."""
    return _set_dag(t, C, m)[1]


def nu_bar(t: UltraTriple, C: Iterable[int], k: int) -> Fraction:
    """The k-th perimeter increment of any greedy permutation of C.

    Equal to max-perimeter(k) - max-perimeter(k-1); the greedy prefixes
    realize both maxima, so one greedy run suffices.
    """
    pts = _subset(t, C)
    if not 1 <= k <= len(pts):
        raise ValueError(f"k={k} out of range 1..{len(pts)}")
    return _walk(t, pts, (), k, False)[1][k - 1]


def greedy_subsequence(t: FullUltraTriple, C: Iterable[int], m: int) -> GreedyTrace:
    """Pick m points of C with replacement, each maximizing tuple perimeter.

    Every point of C competes at every step, the current pick included, so
    repeats appear whenever a point keeps winning; that is why the triple
    must carry self-distances.
    """
    if not isinstance(t, FullUltraTriple):
        raise TypeError("greedy subsequences need a full triple (self-distances)")
    pts = _subset(t, C)
    if not pts and m > 0:
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
    if k < 1:
        raise ValueError(f"k={k} must be at least 1")
    return greedy_subsequence(t, C, k).increments[k - 1]


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
