"""The maximum-perimeter set system and its axiom checkers.

For a valid triple, the sets that maximize perimeter within their own
cardinality form a strong greedoid, and each cardinality level is the base
collection of a matroid.  `bhargava_greedoid` reads it off the cluster
tree, in one merge walk `core._merges`, and asks the brute-force oracle
when pairwise distances are not ultrametric.  The checkers here take
arbitrary set systems, so hand-built counterexamples can be analyzed
with the same tooling; every failed axiom comes with a re-checkable witness.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import chain

from . import oracle
from .core import UltraTriple, _check_count, _is_int, _merges, _Record, _rows, _shown, perimeter_set, projections

AXIOMS = ("i", "ii", "iii", "iv", "matroid-exchange")


def mask_from_points(pts: Iterable[int]) -> int:
    mask = 0
    for a in pts:
        if not _is_int(a) or a < 0:
            raise ValueError(f"point {_shown(a)} is not a nonnegative integer")
        mask |= 1 << a
    return mask


def points_from_mask(mask: int) -> tuple[int, ...]:
    # one step per member point (lowest set bit first), not per bit position
    if not _is_int(mask):
        raise ValueError(f"mask {_shown(mask)} is not an integer")
    if mask < 0:
        raise ValueError(f"mask {_shown(mask)} is negative")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _check_ground(ground: object) -> None:
    if not _is_int(ground):
        raise ValueError(f"ground must be an integer, got {_shown(ground)}")
    if ground < 0:
        raise ValueError("ground size must be nonnegative")


class SetSystem(_Record):
    """A family of subsets of {0..ground-1}, each stored as a bitmask."""

    __slots__ = _fields = ("ground", "sets")
    ground: int
    sets: frozenset[int]

    def __init__(self, ground: int, sets: Iterable[int]) -> None:
        _check_ground(ground)
        sets = frozenset(sets)
        for mask in sets:
            if not _is_int(mask) or mask < 0 or mask >> ground:
                raise ValueError(f"mask {_shown(mask)} does not fit in ground size {_shown(ground)}")
        self._set(ground, sets)

    @classmethod
    def from_point_sets(cls, ground: int, families: Iterable[Iterable[int]]) -> "SetSystem":
        _check_ground(ground)
        families = [tuple(f) for f in families]
        for a in chain.from_iterable(families):
            # checked before shifting: a huge point would build a huge mask
            if not _is_int(a):
                raise ValueError(f"point {_shown(a)} is not an integer")
            if not 0 <= a < ground:
                raise ValueError(f"point {_shown(a)} does not fit in ground size {_shown(ground)}")
        return cls(ground, frozenset(mask_from_points(s) for s in families))

    def levels(self) -> dict[int, list[int]]:
        """{k: the members of cardinality k, sorted numerically}, in ascending k."""
        levels: dict[int, list[int]] = {}
        for m in sorted(self.sets):
            levels.setdefault(m.bit_count(), []).append(m)
        return dict(sorted(levels.items()))

    def members(self) -> list[int]:
        """Masks sorted by cardinality, then numerically: a stable ordering."""
        return list(chain.from_iterable(self.levels().values()))

    def member_points(self) -> list[tuple[int, ...]]:
        return [points_from_mask(m) for m in self.members()]

    def __contains__(self, mask: int) -> bool:
        return mask in self.sets

    def __len__(self) -> int:
        return len(self.sets)


class AxiomReport(_Record):
    """Verdict for one axiom, with a structured counterexample on failure."""

    __slots__ = _fields = ("axiom", "holds", "witness")
    axiom: str
    holds: bool
    witness: dict | None

    def __init__(self, axiom: str, holds: bool, witness: dict | None = None) -> None:
        if axiom not in AXIOMS:
            raise ValueError(f"unknown axiom {axiom!r}")
        if not holds and witness is None:
            raise ValueError("a failed axiom needs a witness")
        self._set(axiom, holds, witness)


def bhargava_greedoid(t: UltraTriple, cap: int = 16) -> SetSystem:
    """All subsets of maximum perimeter within their cardinality.

    The levels are read off the cluster tree: across a merge at height D
    every cross distance of an ultrametric is D, so a set with i points in
    cluster A and j in B scores at most f(i) + g(j) + D*i*j, f and g being
    the clusters' maximum perimeters by size.  Each cluster keeps {size:
    (maximum perimeter, members)}, and a merge keeps every union over the
    splits of each size that attain the maximum.  At a merge with a bad
    pair, a cross distance above D (self-distances are not read), the
    brute-force oracle takes over, level by level.  `cap` bounds both.
    """
    n = t.n
    if n > cap:
        raise ValueError(f"ground size {n} exceeds cap {cap}")
    best = {x: {0: (0, [0]), 1: (w, [1 << x])} for x, w in enumerate(t.weights)}
    for D, A, B, bad in _merges(_rows(t)):
        if bad:
            levels = (oracle.brute_max_perimeter(t, range(n), k, cap).argmax for k in range(n + 1))
            return SetSystem.from_point_sets(n, chain.from_iterable(levels))
        f, g, h = best[A[0]], best.pop(B[0]), {}
        for i, (fi, As) in f.items():
            for j, (gj, Bs) in g.items():
                per, top = fi + gj + D * i * j, h.get(i + j)
                if top is None or per > top[0]:
                    h[i + j] = top = per, []
                if per == top[0]:
                    top[1].extend(a | b for a in As for b in Bs)
        best[A[0]] = h
    tree = best.popitem()[1] if n else {0: (0, [0])}
    return SetSystem(n, chain.from_iterable(members for _, members in tree.values()))


def check_axiom_i(s: SetSystem) -> AxiomReport:
    """The empty set must belong to the system."""
    if 0 in s.sets:
        return AxiomReport("i", True)
    return AxiomReport("i", False, {"missing": ()})


def _extensions(s: SetSystem) -> dict[int, int]:
    """One pass over the members: `ext[D]` holds every y with D + y a member,
    for each D one element short of a member.  Each axiom below then costs a
    few ANDs per pair of members instead of a membership scan per point."""
    ext: dict[int, int] = {}
    for B in s.sets:
        for x in points_from_mask(B):
            D = B ^ 1 << x
            ext[D] = ext.get(D, 0) | 1 << x
    return ext


def _deletions(s: SetSystem, B: int) -> int:
    """The mask of the x in the member B with B - x a member."""
    return sum(1 << x for x in points_from_mask(B) if B ^ 1 << x in s.sets)


def check_axiom_ii(s: SetSystem) -> AxiomReport:
    """Every nonempty member must stay in the system after deleting some element."""
    for B in s.members():
        if B and not _deletions(s, B):
            return AxiomReport("ii", False, {"B": points_from_mask(B)})
    return AxiomReport("ii", True)


def _check_pairs(s: SetSystem, axiom: str) -> AxiomReport:
    """Axiom (iii), or (iv) when axiom is "iv": the first pair of members
    (A, B) with |B| = |A|+1 and no x in B - A extending A (and, for (iv),
    also leaving B - x) inside the system is the witness."""
    ext = _extensions(s)
    levels = s.levels()
    for k, As in levels.items():
        exts = [(A, ext.get(A, 0)) for A in As]
        for B in levels.get(k + 1, ()):
            mask = _deletions(s, B) if axiom == "iv" else B
            for A, e in exts:
                if not mask & e:
                    return AxiomReport(axiom, False, {"A": points_from_mask(A), "B": points_from_mask(B)})
    return AxiomReport(axiom, True)


def check_axiom_iii(s: SetSystem) -> AxiomReport:
    """For members A, B with |B| = |A|+1, some b in B-A must extend A inside the system."""
    return _check_pairs(s, "iii")


def check_axiom_iv(s: SetSystem) -> AxiomReport:
    """Like (iii), but the same x must also leave B - x in the system."""
    return _check_pairs(s, "iv")


def level_sets(s: SetSystem, k: int) -> SetSystem:
    """The members of cardinality exactly k, as their own system."""
    _check_count(k)
    return SetSystem(s.ground, frozenset(m for m in s.sets if m.bit_count() == k))


def check_matroid_bases(s: SetSystem) -> AxiomReport:
    """Exchange axiom for a base collection: nonempty, and any x in B1-B2
    can be replaced by some y in B2-B1 keeping membership.

    Mixed cardinalities are a usage error, not a failed axiom.
    """
    levels = s.levels()
    if len(levels) > 1:
        raise ValueError(f"members have mixed cardinalities {list(levels)}")
    if not levels:
        return AxiomReport("matroid-exchange", False, {"empty": True})
    ext = _extensions(s)
    (members,) = levels.values()
    for B1 in members:
        # x fails against B2 when B2 holds neither x nor a y with B1 - x + y a member
        blocks = [(x, (1 << x) | ext[B1 ^ (1 << x)]) for x in points_from_mask(B1)]
        for B2 in members:
            for x, block in blocks:
                if not B2 & block:
                    return AxiomReport(
                        "matroid-exchange",
                        False,
                        {
                            "B1": points_from_mask(B1),
                            "B2": points_from_mask(B2),
                            "x": x,
                        },
                    )
    return AxiomReport("matroid-exchange", True)


def exchange_element(t: UltraTriple, A: Iterable[int], B: Iterable[int]) -> int:
    """The element of B - A whose transfer cannot decrease total perimeter.

    Built by projecting each element of A onto the unused part of B; the
    one element of B left unused is returned, after verifying
    per(B - u) + per(A + u) >= per(A) + per(B).  A verification failure
    means a bug or an invalid triple, so it raises.
    """
    As = sorted(set(A))
    Bs = set(B)
    if len(Bs) != len(As) + 1:
        raise ValueError(f"need |B| = |A| + 1, got |A|={len(As)}, |B|={len(Bs)}")
    remaining = set(Bs)
    for a in As:
        b = min(projections(t, remaining, a))
        remaining.discard(b)
    assert len(remaining) == 1
    u = remaining.pop()
    assert u not in As
    lhs = perimeter_set(t, Bs - {u}) + perimeter_set(t, set(As) | {u})
    rhs = perimeter_set(t, As) + perimeter_set(t, Bs)
    if lhs < rhs:
        raise RuntimeError(
            f"exchange inequality failed for A={As}, B={sorted(Bs)}, u={u}; "
            "the triple is invalid or there is a bug"
        )
    return u


def strong_exchange_pair(t: UltraTriple, s: SetSystem, A: Iterable[int], B: Iterable[int]) -> int:
    """An x in B - A with A + x and B - x both in the system.

    For the maximum-perimeter system of a valid triple, the projection
    construction of `exchange_element` always produces such an x; for other
    systems the remaining candidates are scanned, and having none means the
    system is not a strong greedoid.
    """
    Amask = mask_from_points(A)
    Bmask = mask_from_points(B)
    if Amask not in s.sets or Bmask not in s.sets:
        raise ValueError("A and B must both belong to the system")
    if Bmask.bit_count() != Amask.bit_count() + 1:
        raise ValueError("need |B| = |A| + 1")
    u = exchange_element(t, points_from_mask(Amask), points_from_mask(Bmask))
    candidates = [u] + [x for x in points_from_mask(Bmask & ~Amask) if x != u]
    for x in candidates:
        if (Amask | (1 << x)) in s.sets and (Bmask ^ (1 << x)) in s.sets:
            return x
    raise LookupError(
        f"no exchange witness for A={points_from_mask(Amask)}, "
        f"B={points_from_mask(Bmask)}: the system is not a strong greedoid"
    )
