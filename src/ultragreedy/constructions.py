"""Builders for standard families of (full) ultra triples, random ones
included: every triple builder of the package lives here.

Each constructor guarantees the ultrametric inequality by the shape of its
formula, so `validate` passes on every output (property-tested, not
re-checked at build time); each family constructor takes `weights`.  Also
provides the tree-to-triple bridge, the two transforms between plain and
full triples, and the N-clone transform of the tuple analogue.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import chain, count, repeat

from .bhargava import _check_prime, _pool
from .core import FullUltraTriple, UltraTriple, _Record, rational


def _weights(n: int, weights: Iterable[int | str | Fraction] | None) -> Iterable:
    # coerced and counted by UltraTriple
    return (Fraction(0),) * n if weights is None else weights


def _int_points(points: Iterable[int]) -> list[int]:
    pts = list(points)
    if len(_pool(pts)) != len(pts):  # _pool checks each point is an int
        raise ValueError("points must be distinct")
    return pts


def _triple_from_blocks(pts: Sequence[int], c0, levels, weights) -> UltraTriple:
    """The triple on pts whose pairs sit at distance c0 unless a deeper block holds them.

    `levels` yields, level by level from level 1 on, one distance value and
    the blocks (increasing index lists) that still hold two or more points;
    each block overwrites the pairs it holds, so a pair ends at the value of
    the last level keeping it together, and all such pairs share that object.
    """
    rows = [[c0] * a for a in range(len(pts))]
    for value, blocks in levels:
        for block in blocks:
            for k in range(1, len(block)):
                row = rows[block[k]]
                for j in block[:k]:
                    row[j] = value
    for a, row in enumerate(rows):  # in place: never a second full table in memory
        rows[a] = tuple(row)
    return UltraTriple(tuple(map(str, pts)), _weights(len(pts), weights), rows)


def _classes(pts: list[int], block: Iterable[int], q: int) -> list[list[int]]:
    """The classes of block's points mod q (equal points for q = 0) that hold two or more of them."""
    classes: dict[int, list[int]] = {}
    for i in block:
        classes.setdefault(pts[i] % q if q else pts[i], []).append(i)
    return [c for c in classes.values() if len(c) > 1]


def _chain_blocks(pts: list[int], moduli: Iterable[int]):
    """Per modulus in turn, the blocks so far split into their classes mod it
    that hold two or more points (increasing index lists), until none is left;
    along a divisibility chain a pair stays together exactly through the
    deepest modulus dividing its difference."""
    blocks: list = [range(len(pts))]
    for q in moduli:
        blocks = [c for block in blocks for c in _classes(pts, block, q)]
        if not blocks:
            return
        yield blocks


def constant_triple(n: int, weights: Iterable | None = None) -> UltraTriple:
    """n points, all pairwise distances equal to 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _triple_from_blocks(range(n), Fraction(1), (), weights)


def mod_triple(
    points: Iterable[int],
    m: int,
    eps: int | str | Fraction,
    alpha: int | str | Fraction,
    weights: Iterable | None = None,
) -> UltraTriple:
    """Distance eps between points congruent mod m, alpha otherwise.

    Needs eps <= alpha: two residue-mates must never be farther apart than
    a mixed pair, or the ultrametric inequality breaks.
    """
    eps = rational(eps)
    alpha = rational(alpha)
    if eps > alpha:
        raise ValueError(f"eps={eps} must not exceed alpha={alpha}")
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise ValueError("m must be a positive integer")
    pts = _int_points(points)
    return _triple_from_blocks(pts, alpha, zip([eps], _chain_blocks(pts, [m])), weights)


def padic_triple(points: Iterable[int], p: int, weights: Iterable | None = None) -> UltraTriple:
    """Distance p**(-v_p(a-b)) between distinct integers a and b."""
    _check_prime(p)
    pts = _int_points(points)
    chain = enumerate(_chain_blocks(pts, (p**v for v in count(1))), 1)
    levels = ((Fraction(1, p**v), blocks) for v, blocks in chain)
    return _triple_from_blocks(pts, Fraction(1), levels, weights)


def padic_log_triple(points: Iterable[int], p: int, weights: Iterable | None = None) -> UltraTriple:
    """Distance -v_p(a-b): the integer-valued logarithmic variant."""
    _check_prime(p)
    pts = _int_points(points)
    chain = enumerate(_chain_blocks(pts, (p**v for v in count(1))), 1)
    levels = ((Fraction(-v), blocks) for v, blocks in chain)
    return _triple_from_blocks(pts, Fraction(0), levels, weights)


def _divides(a: int, b: int) -> bool:
    # divisibility by 0 means "equals 0"
    if a == 0:
        return b == 0
    return b % a == 0


def rseq_triple(
    points: Iterable[int],
    r: Sequence[int],
    c: Sequence[int | str | Fraction],
    weights: Iterable | None = None,
) -> UltraTriple:
    """Distance c[v] where v is the deepest r-entry dividing the difference.

    r must be a divisibility chain r0 | r1 | r2 | ...; zeros may appear
    once the chain reaches 0 and divide nothing but 0.  c must be weakly
    decreasing and long enough for every pairwise difference.  Rows come from
    the classes mod r0, r1, ...; a bad pair raises at its place in row order.
    """
    rs = [x for x in r]
    if not rs:
        raise ValueError("r must be nonempty")
    for x in rs:
        if not isinstance(x, int) or isinstance(x, bool):
            raise TypeError(f"r entries must be integers, got {x!r}")
    for i in range(len(rs) - 1):
        if not _divides(rs[i], rs[i + 1]):
            raise ValueError(f"divisibility chain broken: {rs[i]} does not divide {rs[i + 1]}")
    cs = [rational(x) for x in c]
    for i in range(len(cs) - 1):
        if cs[i] < cs[i + 1]:
            raise ValueError("c must be weakly decreasing")
    pts = _int_points(points)
    n, L = len(pts), len(cs)
    chain = list(_chain_blocks(pts, rs[: L + 1]))  # the blocks mod r0, ..., r_L
    # the first bad pair in row order: (i0, 0), or (i, j), the first two points of a block mod r_L
    i0 = next((i for i in range(1, n) if not _divides(rs[0], pts[i] - pts[0])), n)
    j, i = min(chain[L], key=lambda block: block[1])[:2] if len(chain) > L else (0, n)
    if i0 < n and i0 <= i:
        raise ValueError(f"no r entry divides {pts[i0] - pts[0]}; the valuation is undefined")
    if i < n:
        v = L + sum(1 for _ in _chain_blocks([pts[j], pts[i]], rs[L + 1:]))
        raise ValueError(f"c has {L} entries but the valuation reaches {v}")
    return _triple_from_blocks(pts, cs[0] if cs else None, zip(cs[1:], chain[1:]), weights)


class EquivHierarchy(_Record):
    """A refinement chain of partitions of {0..n-1}, with per-level distances.

    Level 0 lumps everything together; every later level refines the one
    before it; the last level separates every pair.  c[i] is the distance
    assigned to pairs that part ways after level i, so c must be weakly
    decreasing for the ultrametric inequality to hold.
    """

    __slots__ = _fields = ("levels", "c")
    levels: tuple[tuple[frozenset[int], ...], ...]
    c: tuple[Fraction, ...]

    def __init__(self, levels: Iterable[Iterable[Iterable[int]]], c: Iterable) -> None:
        levels = tuple(
            tuple(sorted((frozenset(block) for block in level), key=min))
            for level in levels
        )
        cs = tuple(rational(x) for x in c)
        if not levels:
            raise ValueError("need at least the trivial level")
        ground = frozenset().union(*levels[0]) if levels[0] else frozenset()
        n = len(ground)
        if ground != frozenset(range(n)) or n < 1:
            raise ValueError("level 0 must cover points 0..n-1 for some n >= 1")
        if len(levels[0]) != 1:
            raise ValueError("level 0 must be a single block")
        for level in levels:
            seen: set[int] = set()
            for block in level:
                if not block or (seen & block):
                    raise ValueError("levels must be partitions: disjoint nonempty blocks")
                seen |= block
            if seen != set(ground):
                raise ValueError("every level must partition the same ground set")
        for prev, cur in zip(levels, levels[1:]):
            ids = {}
            for bid, block in enumerate(prev):
                for e in block:
                    ids[e] = bid
            for block in cur:
                if len({ids[e] for e in block}) != 1:
                    raise ValueError("each level must refine the previous one")
        if any(len(block) > 1 for block in levels[-1]):
            raise ValueError("the last level must separate every pair of points")
        needed = 0
        for i, level in enumerate(levels):
            if any(len(block) > 1 for block in level):
                needed = i + 1
        if len(cs) < needed:
            raise ValueError(f"c needs at least {needed} entries, got {len(cs)}")
        for i in range(len(cs) - 1):
            if cs[i] < cs[i + 1]:
                raise ValueError("c must be weakly decreasing")
        self._set(levels, cs)

    @property
    def n(self) -> int:
        return sum(len(block) for block in self.levels[0])


def eqrel_triple(h: EquivHierarchy, weights: Iterable | None = None) -> UltraTriple:
    """Distance c[i] where i is the last level keeping the two points together."""
    n = h.n
    # c may stop at the last level with a block of two points; a single
    # point has no pairs and c may be empty
    levels = (
        (h.c[i], blocks)
        for i, level in enumerate(h.levels[1:], 1)
        if (blocks := [sorted(b) for b in level if len(b) > 1])
    )
    return _triple_from_blocks(range(n), h.c[0] if n > 1 else None, levels, weights)


def random_ultra_triple(seed: int, n: int, depth: int = 3, weights: Iterable | None = None) -> UltraTriple:
    """A random valid triple, deterministic in the seed.

    Draws a random refinement chain of partitions with weakly decreasing
    per-level distances; validity is then automatic.  Small value ranges
    keep ties frequent, which the tie-sensitive greedy properties need.
    The weights are drawn last, so given weights replace them and leave the
    distances of the seed as they are.
    """
    import random  # here: no other builder loads it

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
    if weights is None:
        weights = tuple(Fraction(rng.randint(-8, 8), rng.choice((1, 1, 2))) for _ in range(n))
    h = EquivHierarchy(tuple(tuple(map(frozenset, lv)) for lv in levels), tuple(c))
    return eqrel_triple(h, weights)


class WeightedTree(_Record):
    """An undirected tree with nonnegative edge weights, a root, and a
    designated point set (the leafset, degree-<=1 vertices by default)."""

    __slots__ = _fields = ("vertices", "edges", "root", "leafset")
    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, Fraction], ...]
    root: str
    leafset: tuple[str, ...]

    def __init__(
        self, vertices: Iterable, edges: Iterable[tuple], root: str, leafset: Iterable | None = None
    ) -> None:
        vertices = tuple(str(v) for v in vertices)
        if len(set(vertices)) != len(vertices):
            raise ValueError("vertices must be distinct")
        known = set(vertices)
        checked = []
        for u, v, wt in edges:
            u, v = str(u), str(v)
            wt = rational(wt)
            if u not in known or v not in known:
                raise ValueError(f"edge ({u}, {v}) references an unknown vertex")
            if u == v:
                raise ValueError(f"self-loop at {u}: the graph is not a tree")
            if wt < 0:
                raise ValueError(f"edge ({u}, {v}) has negative weight {wt}")
            checked.append((u, v, wt))
        root = str(root)
        if root not in known:
            raise ValueError(f"root {root!r} is not a vertex")
        # union-find: an edge inside one component closes a cycle
        parent = {v: v for v in vertices}

        def find(x: str) -> str:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v, _ in checked:
            ru, rv = find(u), find(v)
            if ru == rv:
                raise ValueError(f"edge ({u}, {v}) closes a cycle")
            parent[ru] = rv
        if len({find(v) for v in vertices}) != 1:
            raise ValueError("the graph is disconnected")
        if leafset is None:
            degree = {v: 0 for v in vertices}
            for u, v, _ in checked:
                degree[u] += 1
                degree[v] += 1
            leafset = tuple(v for v in vertices if degree[v] <= 1)
        else:
            leafset = tuple(str(v) for v in leafset)
            if len(set(leafset)) != len(leafset):
                raise ValueError("leafset entries must be distinct")
            if not set(leafset) <= known:
                raise ValueError("leafset must be a subset of the vertices")
        self._set(vertices, tuple(checked), root, leafset)


def tree_triple(t: WeightedTree) -> UltraTriple:
    """The triple on the leafset: w(x) is the path weight to the root, and
    d(x,y), the x-y path weight minus both root paths, is -2 times the root
    path of the vertex where x and y meet.  One walk, O(V + L**2), writes each
    pair once, at that vertex, and the pairs meeting there share one value."""
    adj: dict[str, list[tuple[str, Fraction]]] = {v: [] for v in t.vertices}
    for u, v, wt in t.edges:
        adj[u].append((v, wt))
        adj[v].append((u, wt))
    depth, kids, order = {t.root: Fraction(0)}, {}, [t.root]
    for x in order:  # grows as it goes: each vertex after its parent
        kids[x] = {y: depth[x] + wt for y, wt in adj[x] if y not in depth}
        depth.update(kids[x])
        order += kids[x]
    dist: list[list] = [[None] * i for i in range(len(t.leafset))]
    below = {x: [i] for i, x in enumerate(t.leafset)}  # the points at or under each vertex
    for x in reversed(order):  # each vertex after its children
        A, meet = below.get(x, []), -2 * depth[x]
        for y in kids[x]:
            B = below.pop(y)
            for b in B:
                for a in A:
                    dist[max(a, b)][min(a, b)] = meet
            if len(A) < len(B):  # the smaller list moves, each copy paid for by a pair
                A, B = B, A
            A += B
        below[x] = A
    for a, row in enumerate(dist):  # in place: never a second full table in memory
        dist[a] = tuple(row)
    return UltraTriple(t.leafset, tuple(depth[x] for x in t.leafset), dist)


def extend_to_full(t: UltraTriple, N: int | str | Fraction) -> FullUltraTriple:
    """Give every point the same self-distance N.

    N must not exceed any pairwise distance; at that boundary the full
    ultrametric inequality still holds with equality.
    """
    N = rational(N)
    # each row's minimum over its distinct objects: few, as rows share them
    low = min((min(dict(zip(map(id, row), row)).values()) for row in t.dist if row), default=None)
    if low is not None and N > low:
        raise ValueError(f"self-distance {N} exceeds the minimum pairwise distance {low}")
    return FullUltraTriple(t.labels, t.weights, t.dist, (N,) * t.n)


def shift_distances(t: FullUltraTriple, R: int | str | Fraction) -> FullUltraTriple:
    """Add R to every off-diagonal distance, keeping self-distances.

    Never raises: for R < 0 the result can violate the full-triple
    inequality, which `validate` will report.
    """
    R = rational(R)
    dist = tuple(tuple(x + R for x in row) for row in t.dist)
    return FullUltraTriple(t.labels, t.weights, dist, t.selfdist)


def clone_triple(t: FullUltraTriple, N: int) -> FullUltraTriple:
    """Replace each point by N interchangeable copies.

    Copy i of point e sits at index e*N + (i-1) with label "<label>#i";
    weights and all distances, self-distances included, ignore the copy
    index: its row repeats d(e, f) for the N copies of each f < e, then
    selfdist(e) for the i - 1 copies of e before it.  Greedy m-subsequences
    of a subset correspond to greedy m-permutations over its copies whenever
    N >= m.
    """
    if not isinstance(N, int) or isinstance(N, bool) or N < 1:
        raise ValueError("N must be a positive integer")

    def copies(xs: Iterable[Fraction]) -> tuple[Fraction, ...]:
        return tuple(chain.from_iterable(map(repeat, xs, repeat(N))))  # each entry N times over, in order

    labels = [f"{x}#{i}" for x in t.labels for i in range(1, N + 1)]
    dist = [row + (s,) * i for row, s in zip(map(copies, t.dist), t.selfdist) for i in range(N)]
    return FullUltraTriple(labels, copies(t.weights), dist, copies(t.selfdist))
