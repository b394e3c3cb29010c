"""Builders for standard families of (full) ultra triples.

Each constructor guarantees the ultrametric inequality by the shape of its
formula, so `validate` passes on every output (property-tested, not
re-checked at build time).  Also provides the tree-to-triple bridge and the
two transforms between plain and full triples.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction

from .bhargava import _check_prime
from .core import FullUltraTriple, UltraTriple, _Record, rational


def _weights(n: int, weights: Iterable[int | str | Fraction] | None) -> Iterable:
    # coerced and counted by UltraTriple
    return (Fraction(0),) * n if weights is None else weights


def _int_points(points: Iterable[int]) -> list[int]:
    pts = list(points)
    for x in pts:
        if not isinstance(x, int) or isinstance(x, bool):
            raise TypeError(f"points must be integers, got {x!r}")
    if len(set(pts)) != len(pts):
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
    """The classes of block's points mod q that hold two or more of them."""
    classes: dict[int, list[int]] = {}
    for i in block:
        classes.setdefault(pts[i] % q, []).append(i)
    return [c for c in classes.values() if len(c) > 1]


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
    return _triple_from_blocks(pts, alpha, [(eps, _classes(pts, range(len(pts)), m))], weights)


def _residue_blocks(pts: list[int], p: int):
    """(v, blocks) for v = 1, 2, ...: the classes of pts mod p**v that hold
    two or more points, as increasing index lists, until every class is a
    singleton.  A pair stays together exactly through level v_p(a - b)."""
    q, v = p, 1
    blocks = _classes(pts, range(len(pts)), q)
    while blocks:
        yield v, blocks
        q, v = q * p, v + 1
        blocks = [c for block in blocks for c in _classes(pts, block, q)]


def padic_triple(points: Iterable[int], p: int, weights: Iterable | None = None) -> UltraTriple:
    """Distance p**(-v_p(a-b)) between distinct integers a and b."""
    _check_prime(p)
    pts = _int_points(points)
    levels = ((Fraction(1, p**v), blocks) for v, blocks in _residue_blocks(pts, p))
    return _triple_from_blocks(pts, Fraction(1), levels, weights)


def padic_log_triple(points: Iterable[int], p: int, weights: Iterable | None = None) -> UltraTriple:
    """Distance -v_p(a-b): the integer-valued logarithmic variant."""
    _check_prime(p)
    pts = _int_points(points)
    levels = ((Fraction(-v), blocks) for v, blocks in _residue_blocks(pts, p))
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
    decreasing and long enough for every pairwise difference.
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

    def pair_dist(a: int, b: int) -> Fraction:
        diff = a - b
        hits = [i for i, ri in enumerate(rs) if _divides(ri, diff)]
        if not hits:
            raise ValueError(f"no r entry divides {diff}; the valuation is undefined")
        v = max(hits)
        if v >= len(cs):
            raise ValueError(f"c has {len(cs)} entries but the valuation reaches {v}")
        return cs[v]

    dist = tuple(
        tuple(pair_dist(pts[i], pts[j]) for j in range(i)) for i in range(len(pts))
    )
    return UltraTriple(tuple(str(x) for x in pts), _weights(len(pts), weights), dist)


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


class WeightedTree(_Record):
    """An undirected tree with nonnegative edge weights, a root, and a
    designated point set (the leafset, degree-<=1 vertices by default)."""

    __slots__ = _fields = ("vertices", "edges", "root", "leafset")
    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, Fraction], ...]
    root: str
    leafset: tuple[str, ...] | None

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


def _path_weights(t: WeightedTree, source: str) -> dict[str, Fraction]:
    adj: dict[str, list[tuple[str, Fraction]]] = {v: [] for v in t.vertices}
    for u, v, wt in t.edges:
        adj[u].append((v, wt))
        adj[v].append((u, wt))
    dist = {source: Fraction(0)}
    stack = [source]
    while stack:
        x = stack.pop()
        for y, wt in adj[x]:
            if y not in dist:
                dist[y] = dist[x] + wt
                stack.append(y)
    return dist


def tree_triple(t: WeightedTree) -> UltraTriple:
    """The triple on the leafset: w(x) is the path weight to the root and
    d(x,y) is the path weight between x and y minus both root paths."""
    assert t.leafset is not None
    from_root = _path_weights(t, t.root)
    from_leaf = {x: _path_weights(t, x) for x in t.leafset}
    labels = t.leafset
    weights = tuple(from_root[x] for x in labels)
    dist = tuple(
        tuple(
            from_leaf[labels[i]][labels[j]] - from_root[labels[i]] - from_root[labels[j]]
            for j in range(i)
        )
        for i in range(len(labels))
    )
    return UltraTriple(labels, weights, dist)


def extend_to_full(t: UltraTriple, N: int | str | Fraction) -> FullUltraTriple:
    """Give every point the same self-distance N.

    N must not exceed any pairwise distance; at that boundary the full
    ultrametric inequality still holds with equality.
    """
    N = rational(N)
    pair_dists = [t.d(a, b) for a in t.points() for b in range(a)]
    if pair_dists and N > min(pair_dists):
        raise ValueError(f"self-distance {N} exceeds the minimum pairwise distance {min(pair_dists)}")
    return FullUltraTriple(t.labels, t.weights, t.dist, (N,) * t.n)


def shift_distances(t: FullUltraTriple, R: int | str | Fraction) -> FullUltraTriple:
    """Add R to every off-diagonal distance, keeping self-distances.

    Never raises: for R < 0 the result can violate the full-triple
    inequality, which `validate` will report.
    """
    R = rational(R)
    dist = tuple(tuple(x + R for x in row) for row in t.dist)
    return FullUltraTriple(t.labels, t.weights, dist, t.selfdist)
