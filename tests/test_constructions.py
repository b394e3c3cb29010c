import random
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from ultragreedy.bhargava import _vp_int
from ultragreedy.constructions import _meet_rows
from ultragreedy.core import _merges, _rows, rational

from ultragreedy import (
    EquivHierarchy,
    UltraTriple,
    WeightedTree,
    all_greedy_permutations,
    constant_triple,
    eqrel_triple,
    extend_to_full,
    mod_triple,
    padic_log_triple,
    padic_triple,
    perimeter_set,
    random_ultra_triple,
    rseq_triple,
    shift_distances,
    tree_triple,
    validate,
)

F = Fraction


class TestConstant:
    def test_all_distances_one(self):
        t = constant_triple(3)
        assert all(t.d(a, b) == F(1) for a, b in combinations(range(3), 2))
        assert validate(t).ok

    def test_single_point(self):
        t = constant_triple(1)
        assert t.n == 1 and t.dist == ((),)

    def test_three_subset_perimeter(self):
        w = [F(1), F(2), F(3), F(4)]
        t = constant_triple(4, w)
        assert perimeter_set(t, [0, 2, 3]) == F(1 + 3 + 4) + F(3)

    def test_weight_length_checked(self):
        with pytest.raises(ValueError):
            constant_triple(2, [F(0)])


class TestMod:
    def test_parity5_distances(self, parity5):
        assert parity5.d(0, 2) == F(1)  # 1 and 3
        assert parity5.d(0, 1) == F(2)  # 1 and 2

    def test_eps_equals_alpha_is_constant(self):
        t = mod_triple([3, 5, 8], 4, F(2), F(2))
        assert all(t.d(a, b) == F(2) for a, b in combinations(range(3), 2))

    def test_modulus_one_all_eps(self):
        t = mod_triple([1, 2, 3], 1, F(1, 2), F(9))
        assert all(t.d(a, b) == F(1, 2) for a, b in combinations(range(3), 2))

    def test_eps_above_alpha_rejected(self):
        with pytest.raises(ValueError):
            mod_triple([1, 2], 2, F(3), F(1))

    def test_bad_modulus_rejected(self):
        with pytest.raises(ValueError):
            mod_triple([1, 2], 0, F(1), F(2))


class TestPadic:
    def test_distance_values(self):
        assert padic_triple([0, 3], 3).d(0, 1) == F(1, 3)
        assert padic_triple([0, 1], 2).d(0, 1) == F(1)

    def test_example_instance_validates(self, padic3_example):
        assert validate(padic3_example).ok

    def test_log_distance_values(self):
        assert padic_log_triple([0, 4], 2).d(0, 1) == F(-2)
        assert padic_log_triple([0, 1], 2).d(0, 1) == F(0)

    def test_weird_instance_validates(self, weird_d, weird_dlog):
        assert validate(weird_d).ok
        assert validate(weird_dlog).ok

    def test_composite_p_rejected(self):
        with pytest.raises(ValueError):
            padic_triple([0, 1], 4)

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            padic_triple([1, 1], 2)

    def test_deep_chain_builds_in_time(self, returns_within):
        # the walk divides each surviving point by p, so its numbers shrink level by
        # level; reducing them mod p**v at every level took 13 s and 4 s (2 shared vCPUs)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # the labels print the points
        try:
            with returns_within(3):
                t = padic_triple([0, 2**32000], 2)
                tlog = padic_log_triple([0, 3**16000], 3)
        finally:
            sys.set_int_max_str_digits(limit)
        assert t.dist[1][0] == Fraction(1, 2**32000)
        assert tlog.dist[1][0] == -16000


class TestRseq:
    def test_reproduces_mod(self):
        pts = [1, 2, 3, 4, 5]
        a = mod_triple(pts, 2, F(1), F(2))
        b = rseq_triple(pts, [1, 2, 0, 0], [F(2), F(1)], None)
        assert a.dist == b.dist

    def test_reproduces_padic(self):
        pts = [0, 1, 2, 3, 4, 8]
        a = padic_triple(pts, 2)
        b = rseq_triple(pts, [1, 2, 4, 8], [F(1), F(1, 2), F(1, 4), F(1, 8)], None)
        assert a.dist == b.dist

    def test_single_point(self):
        assert rseq_triple([7], [1], [F(1)], None).n == 1

    def test_zero_divides_only_zero(self):
        t = rseq_triple([0, 1, 2], [1, 2, 0], [F(3), F(2), F(1)], None)
        assert t.d(0, 1) == F(3)  # diff 1, only r0 divides
        assert t.d(0, 2) == F(2)  # diff 2, r1 divides, r2 does not

    def test_non_chain_rejected(self):
        with pytest.raises(ValueError):
            rseq_triple([0, 1], [2, 3], [F(1), F(1)], None)

    def test_increasing_c_rejected(self):
        with pytest.raises(ValueError):
            rseq_triple([0, 1], [1, 2], [F(1), F(2)], None)

    def test_no_divisor_rejected(self):
        with pytest.raises(ValueError):
            rseq_triple([0, 1], [2, 4], [F(1), F(1)], None)

    def test_short_c_rejected(self):
        with pytest.raises(ValueError):
            rseq_triple([0, 4], [1, 2, 4], [F(2), F(1)], None)


def _rseq_level(r, diff):
    """The deepest index of r whose entry divides diff (0 divides only 0), or None."""
    hits = [i for i, ri in enumerate(r) if (diff == 0 if ri == 0 else diff % ri == 0)]
    return max(hits) if hits else None


def _rseq_reference(pts, r, c):
    """rseq_triple's table by its per-pair definition, raising at the first
    offending pair in row order."""

    def pair_dist(diff):
        v = _rseq_level(r, diff)
        if v is None:
            raise ValueError(f"no r entry divides {diff}; the valuation is undefined")
        if v >= len(c):
            raise ValueError(f"c has {len(c)} entries but the valuation reaches {v}")
        return c[v]

    return tuple(tuple(pair_dist(pts[i] - pts[j]) for j in range(i)) for i in range(len(pts)))


def _outcome(build, *args):
    """The distance table build(*args) gives, or "<type>: <message>" of what it raises."""
    try:
        t = build(*args)
    except (ValueError, TypeError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return t if isinstance(t, tuple) else t.dist


def _random_rseq_case(rng):
    """0-9 points in -40..40 and a divisibility chain of 1-6 entries, with
    negative, repeated and zero entries; c weakly decreasing, empty or
    shorter than the deepest valuation."""
    pts = rng.sample(range(-40, 41), rng.randint(0, 9))
    r = [rng.choice((1, -1, 2, -2, 3, 4, -6, 0))]
    for _ in range(rng.randint(0, 5)):
        r.append(r[-1] * rng.choice((1, -1, 2, -2, 3, 0)))
    c = sorted((F(rng.randint(-4, 9), rng.randint(1, 3)) for _ in range(rng.randint(0, len(r) + 1))), reverse=True)
    return pts, r, c


class TestRseqSweep:
    """rseq_triple against its per-pair definition (the other residue-class families
    meet it in TestBlockWriterSweep)."""

    def test_matches_per_pair_reference(self):
        rng = random.Random(2404)
        seen: Counter = Counter()
        for _ in range(12_000):
            pts, r, c = _random_rseq_case(rng)
            want = _outcome(_rseq_reference, pts, r, c)
            assert _outcome(rseq_triple, pts, r, c) == want, (pts, r, c)
            levels = [_rseq_level(r, a - b) for a, b in combinations(pts, 2)]
            both = None in levels and any(v is not None and v >= len(c) for v in levels)
            seen[want.split()[1] if isinstance(want, str) else "table", both] += 1
        # tables, both messages, and inputs with both faults, each message winning some
        assert seen["table", False] > 2000
        assert min(seen["no", False], seen["c", False]) > 500
        assert min(seen["no", True], seen["c", True]) > 200

    def test_large_chain_builds_in_time(self):
        r, c = [2**v for v in range(11)], [F(1, 2**v) for v in range(11)]
        start = time.perf_counter()
        t = rseq_triple(range(2000), r, c)
        assert time.perf_counter() - start < 2.0  # 0.17 s; the per-pair loop took 5.7 s
        assert t.dist == padic_triple(range(2000), 2).dist

    def test_identical_levels_build_in_time(self):
        # 200 levels that each keep every point together: each pair is written
        # once, where its points part, not once per level
        start = time.perf_counter()
        t = rseq_triple(range(2000), [1] * 200, [1] * 200)
        assert time.perf_counter() - start < 2.0  # 0.2 s; rewriting every level's pairs took about 7 s
        assert t.dist == constant_triple(2000).dist

    def test_repeated_moduli_build_in_time_and_memory(self):
        # 20,000 levels of modulus 1: the classes are found once, and a level
        # that keeps a node's points together gives the node its value, so
        # neither time nor memory grows with the depth
        ones = [1] * 20_000
        start = time.perf_counter()
        tracemalloc.start()
        try:
            t = rseq_triple(range(2000), ones, ones)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 2.0  # 0.35 s traced; 5,000 ones took 11.8 s
        assert peak < 32 * 2**20  # 17.4 MiB, the table itself; 5,000 ones took 94 MiB
        assert t.dist == constant_triple(2000).dist


class TestRandomWeights:
    @pytest.mark.parametrize("seed", range(6))
    def test_given_weights_replace_the_drawn_ones(self, seed):
        n, depth = 3 + seed, 1 + seed % 4
        weights = [F(k, 1 + seed) for k in range(n)]
        plain = random_ultra_triple(seed, n, depth)
        got = random_ultra_triple(seed, n, depth, weights)
        assert got == UltraTriple(plain.labels, weights, plain.dist)
        assert validate(got).ok


def _random_reference(seed, n, depth=3, weights=None):
    """random_ultra_triple as it was before it wrote its drawn blocks itself:
    every level drawn in full, singletons included, down to one that
    separates every pair, then checked by EquivHierarchy and written by
    eqrel_triple."""
    rng = random.Random(seed)
    levels = [[list(range(n))]]
    for _ in range(depth - 1):
        nxt = []
        for block in levels[-1]:
            if len(block) == 1:
                nxt.append(block)
                continue
            parts = rng.randint(1, len(block))
            buckets: dict[int, list[int]] = {}
            for e in block:
                buckets.setdefault(rng.randrange(parts), []).append(e)
            nxt.extend(sorted(buckets.values(), key=lambda b: b[0]))
        levels.append(nxt)
    levels.append([[e] for e in range(n)])
    c, value = [], F(rng.randint(-2, 8), rng.choice((1, 1, 2)))
    for _ in range(depth):
        c.append(value)
        value -= F(rng.choice((0, 0, 1, 2)), rng.choice((1, 2)))
    if weights is None:
        weights = tuple(F(rng.randint(-8, 8), rng.choice((1, 1, 2))) for _ in range(n))
    return eqrel_triple(EquivHierarchy(levels, c), weights)


class TestRandomSweep:
    """random_ultra_triple against the round trip through EquivHierarchy it replaced."""

    @pytest.mark.parametrize("given", [False, True], ids=["drawn-weights", "given-weights"])
    def test_matches_reference(self, given):
        rng = random.Random(2701)
        for n in range(1, 17):
            for depth in range(1, 26):
                for _ in range(3):
                    seed = rng.randrange(10**6)
                    weights = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)] if given else None
                    want = _random_reference(seed, n, depth, weights)
                    t = random_ultra_triple(seed, n, depth, weights)
                    assert (t.labels, t.weights, t.dist) == (want.labels, want.weights, want.dist), (seed, n, depth)
                    # the reference writes one object per level: so must the builder
                    assert _shares_one_object_per_level(t, lambda a, b: id(want.dist[a][b]))

    def test_deep_chain_peaks_under_one_mib(self):
        # the levels past the last pair are draws only: no list, Fraction or
        # hierarchy is kept for them
        random_ultra_triple(5, 16, 3)  # `random` loaded before the measured call
        tracemalloc.start()
        try:
            t = random_ultra_triple(5, 16, 10**4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert t == _random_reference(5, 16, 10**4)
        assert peak < 2**20  # 0.01 MiB; 39.7 MiB through EquivHierarchy


class TestEqrel:
    def test_two_level_constant(self):
        h = EquivHierarchy(
            (({0, 1, 2},), ({0}, {1}, {2})),
            (F(5),),
        )
        t = eqrel_triple(h)
        assert all(t.d(a, b) == F(5) for a, b in combinations(range(3), 2))

    def test_a_repeated_level_gives_its_pairs_the_deeper_value(self):
        # a level repeated whole adds no cluster: the rows are those of the
        # hierarchy without the repeat, whose pairs take the deeper c
        split = ({0, 1, 2}, {3, 4}, {5})
        singles = tuple({e} for e in range(6))
        h = EquivHierarchy([[set(range(6))], split, ({0, 1}, {2}, {3, 4}, {5}), singles], (F(4), F(2), F(1)))
        h_repeat = EquivHierarchy(h.levels[:2] + (split,) + h.levels[2:], (F(4), F(3), F(2), F(1)))
        t = eqrel_triple(h_repeat)
        assert t.dist == eqrel_triple(h).dist
        assert t.dist[2][0] is h_repeat.c[2]  # parts after the repeat, not after its first copy
        assert t.dist[1][0] is t.dist[4][3] is h_repeat.c[3]
        # the root repeated: every pair takes the deeper value, one object
        whole = EquivHierarchy([[{0, 1, 2}], [{0, 1, 2}], singles[:3]], (F(3), F(2)))
        t = eqrel_triple(whole)
        assert t.dist == eqrel_triple(EquivHierarchy([[{0, 1, 2}], singles[:3]], (F(2),))).dist
        assert all(x is whole.c[1] for row in t.dist for x in row)

    def test_congruence_hierarchy_matches_rseq(self):
        pts = list(range(6))
        levels = []
        for r in (1, 2, 0):
            blocks: dict[object, set[int]] = {}
            for i, x in enumerate(pts):
                key = x if r == 0 else x % r
                blocks.setdefault(key, set()).add(i)
            levels.append(tuple(blocks.values()))
        h = EquivHierarchy(tuple(levels), (F(2), F(1)))
        a = eqrel_triple(h)
        b = rseq_triple(pts, [1, 2, 0], [F(2), F(1)], None)
        assert a.dist == b.dist

    def test_level_zero_must_be_whole(self):
        with pytest.raises(ValueError):
            EquivHierarchy((({0}, {1}), ({0}, {1})), (F(1),))

    def test_refinement_required(self):
        with pytest.raises(ValueError):
            EquivHierarchy(
                (({0, 1, 2},), ({0, 1}, {2}), ({0, 2}, {1}), ({0}, {1}, {2})),
                (F(3), F(2), F(1)),
            )

    def test_last_level_must_separate(self):
        with pytest.raises(ValueError):
            EquivHierarchy((({0, 1},),), (F(1),))

    def test_c_weakly_decreasing(self):
        with pytest.raises(ValueError):
            EquivHierarchy((({0, 1},), ({0}, {1})), (F(1), F(2)))

    def test_validates(self):
        h = EquivHierarchy(
            (({0, 1, 2, 3},), ({0, 1}, {2, 3}), ({0}, {1}, {2}, {3})),
            (F(4), F(1)),
        )
        assert validate(eqrel_triple(h)).ok


def _hierarchy_reference(levels, c):
    """EquivHierarchy's checks as they were before its two set-operation scans:
    one pass per level for disjointness and ground, one id map per refinement
    step, and index loops for the deepest joined level and decreasing c.
    Returns the (levels, c) it would store, or raises its error."""
    levels = tuple(tuple(map(frozenset, level)) for level in levels)
    if not all(map(all, levels)):
        raise ValueError("levels must be partitions: disjoint nonempty blocks")
    levels = tuple(tuple(sorted(level, key=min)) for level in levels)
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
            if seen & block:
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
    return levels, cs


def _hierarchy_outcome(build, levels, c):
    """The (levels, c) build stores, or "<type>: <message>" of what it raises."""
    try:
        got = build(levels, c)
    except (ValueError, TypeError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return (got.levels, got.c) if isinstance(got, EquivHierarchy) else got


_PARTITION_FAULTS = ("overlap", "missing", "extra")
_HIERARCHY_FAULTS = _PARTITION_FAULTS + ("non-refining", "unseparated", "short-c", "increasing-c")
_HIERARCHY_ERRORS = (
    "need at least the trivial level",
    "level 0 must cover",
    "level 0 must be a single block",
    "levels must be partitions",
    "every level must partition",
    "each level must refine",
    "the last level must separate",
    "c needs at least",
    "c must be weakly decreasing",
)


def _break_hierarchy(rng, levels, c, fault):
    """Apply one named fault in place, at a random level; return that level's index."""
    i = rng.randrange(len(levels))
    level = levels[i]
    full = [block for block in level if block]  # a block a fault emptied takes no other
    if fault == "overlap" and full:  # a point a second time, in another block or a block of its own
        e = rng.choice(rng.choice(full))
        others = [block for block in level if e not in block]
        if others:
            rng.choice(others).append(e)
        else:
            level.append([e])
    elif fault == "missing" and full:  # may empty its block
        block = rng.choice(full)
        block.remove(rng.choice(block))
    elif fault == "extra":  # a point outside 0..n-1
        n = 1 + max((e for block in levels[0] for e in block), default=0)
        rng.choice(level).append(rng.choice((n, n + 1, -1)))
    elif fault == "non-refining":  # one point moved to another block of a level past level 0
        i = rng.randrange(1, len(levels)) if len(levels) > 1 else 0
        level = levels[i]
        if len(level) > 1:
            a, b = rng.sample(range(len(level)), 2)
            if level[a]:
                level[b].append(level[a].pop(rng.randrange(len(level[a]))))
            if not level[a]:
                del level[a]
    elif fault == "unseparated":  # the last level dropped, or two of its points joined
        i = len(levels) - 1
        if len(levels) > 1 and rng.random() < 0.5:
            del levels[-1]
        elif len(levels[-1]) > 1:
            a, b = sorted(rng.sample(range(len(levels[-1])), 2))
            levels[-1][a] += levels[-1].pop(b)
    elif fault == "short-c":
        i = len(c)
        if c:
            del c[rng.randrange(len(c)) :]
    else:  # "increasing-c"
        i = len(c)
        if c:
            j = rng.randrange(len(c))
            c[j] += rng.choice((F(1, 3), 1, 5))
        else:
            c.append(F(1))
    return i


def _random_hierarchy_case(rng):
    """A valid chain on 1-10 points as lists, its blocks in random order, and
    then, three times in four, one to three faults at random levels.  Returns
    the levels, c and the (fault, level) pairs applied."""
    n = rng.randint(1, 10)
    levels = [[list(range(n))]]
    for _ in range(rng.randint(0, 4)):
        nxt = []
        for block in levels[-1]:
            parts: dict[int, list[int]] = {}
            for e in block:
                parts.setdefault(rng.randrange(rng.randint(1, 3)), []).append(e)
            nxt += parts.values()
        levels.append(nxt)
    levels.append([[e] for e in range(n)])
    for level in levels:
        rng.shuffle(level)
    c, value = [], F(rng.randint(5, 9), rng.randint(1, 2))
    for _ in range(len(levels) - 1 + rng.randint(0, 1)):
        c.append(value)
        value -= rng.choice((0, 0, F(1, rng.randint(1, 3))))
    faults = []
    if rng.random() < 0.75:
        for fault in rng.choices(_HIERARCHY_FAULTS, k=rng.choice((1, 1, 2, 3))):
            faults.append((fault, _break_hierarchy(rng, levels, c, fault)))
    return levels, c, faults


class TestHierarchySweep:
    """EquivHierarchy against the level-by-level checks it replaced."""

    def test_matches_reference(self):
        rng = random.Random(3301)
        seen: Counter = Counter()
        for _ in range(24_000):
            levels, c, faults = _random_hierarchy_case(rng)
            want = _hierarchy_outcome(_hierarchy_reference, levels, c)
            assert _hierarchy_outcome(EquivHierarchy, levels, c) == want, (levels, c)
            outcome = next((m for m in _HIERARCHY_ERRORS if m in want), None) if isinstance(want, str) else "valid"
            seen[outcome] += 1
            seen[len(faults) > 1] += 1
            for fault, _ in faults:
                seen[fault] += 1
            # a partition fault below a non-refining level: the partition error comes first
            refine = [i for fault, i in faults if fault == "non-refining"]
            if refine and any(f in _PARTITION_FAULTS and i > min(refine) for f, i in faults):
                seen["partition below refinement", outcome] += 1
        assert seen["valid"] > 4000 and seen[True] > 4000  # valid, and several faults at once
        for fault in _HIERARCHY_FAULTS:
            assert seen[fault] > 1500, fault
        for message in _HIERARCHY_ERRORS[1:]:  # every message but the one for no levels at all
            assert seen[message] > 500, message
        assert seen["partition below refinement", "levels must be partitions"] > 100
        assert seen["partition below refinement", "every level must partition"] > 100

    @pytest.mark.parametrize(
        "last, message",
        [
            ([{0}, {1}, {2}, {3, 0}], "levels must be partitions: disjoint nonempty blocks"),
            ([{0}, {1}, {2}], "every level must partition the same ground set"),
            ([{0}, {1}, {2}, {3}, {4}], "every level must partition the same ground set"),
            ([{0}, {1}, set(), {2}, {3}], "levels must be partitions: disjoint nonempty blocks"),
        ],
        ids=["overlap", "missing-point", "extra-point", "empty-block"],
    )
    def test_a_later_partition_error_wins_over_an_earlier_refinement_error(self, last, message):
        # level 2 does not refine level 1, and level 3 is no partition of 0..3
        levels = [[{0, 1, 2, 3}], [{0, 1}, {2, 3}], [{0, 2}, {1}, {3}], last]
        with pytest.raises(ValueError) as exc:
            _hierarchy_reference(levels, [3, 2, 1])
        assert str(exc.value) == message
        with pytest.raises(ValueError) as exc:
            EquivHierarchy(levels, [3, 2, 1])
        assert str(exc.value) == message
        with pytest.raises(ValueError, match="each level must refine the previous one"):
            EquivHierarchy(levels[:3] + [[{0}, {1}, {2}, {3}]], [3, 2, 1])


def _random_hierarchy(rng: random.Random) -> EquivHierarchy:
    """n <= 60 points, 1 to 6 refinement steps down to singletons, and a
    weakly decreasing c with ties, sometimes longer than needed."""
    n = rng.randint(1, 60)
    levels = [[list(range(n))]]
    for _ in range(rng.randint(0, 5)):
        nxt = []
        for block in levels[-1]:
            parts: dict[int, list[int]] = {}
            for e in block:
                parts.setdefault(rng.randrange(rng.randint(1, 4)), []).append(e)
            nxt += parts.values()
        levels.append(nxt)
    levels.append([[e] for e in range(n)])
    c, value = [], Fraction(rng.randint(20, 40), rng.randint(1, 3))
    for _ in range(len(levels) - 1 + rng.randint(0, 1)):
        c.append(value)
        value -= rng.choice((0, 0, Fraction(1, rng.randint(1, 3))))
    return EquivHierarchy(levels, c)


def _random_points(rng: random.Random) -> list[int]:
    """0 to 40 distinct integers, negative ones included, sometimes with a
    point 2**300 away from the rest."""
    pts = rng.sample(range(-300, 300), rng.choice((0, 1, rng.randint(2, 40))))
    if pts and rng.random() < 0.25:
        pts[rng.randrange(len(pts))] += rng.choice((1, -1)) * 2**300
    return pts


def _shares_one_object_per_level(t, level_of) -> bool:
    """Whether every pair at one level holds the same distance object."""
    seen: dict = {}
    return all(
        t.dist[a][b] is seen.setdefault(level_of(a, b), t.dist[a][b])
        for a in range(t.n)
        for b in range(a)
    )


class TestBlockWriterSweep:
    """Each block-written constructor against its per-pair definition, and the
    residue-class families against rseq_triple's too."""

    @pytest.mark.parametrize("seed", range(8))
    def test_eqrel_matches_level_scan(self, seed):
        rng = random.Random(seed)
        for _ in range(25):
            h = _random_hierarchy(rng)
            weights = [rng.randint(-5, 5) for _ in range(h.n)]
            t = eqrel_triple(h, weights)

            def last_level(a, b):
                return max(i for i, level in enumerate(h.levels) if any({a, b} <= block for block in level))

            assert t.labels == tuple(str(i) for i in range(h.n))
            assert t.weights == tuple(map(Fraction, weights))
            assert all(t.dist[a][b] is h.c[last_level(a, b)] for a in range(h.n) for b in range(a))

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_padic_pair_matches_vp(self, p):
        rng = random.Random(p)
        for _ in range(30):
            pts = _random_points(rng)
            labels = tuple(map(str, pts))
            t, tlog = padic_triple(pts, p), padic_log_triple(pts, p)

            def level(a, b):
                return _vp_int(p, pts[a] - pts[b])

            pairs = [(a, b) for a in range(len(pts)) for b in range(a)]
            assert t.labels == tlog.labels == labels
            assert all(t.dist[a][b] == Fraction(1, p ** level(a, b)) for a, b in pairs)
            assert all(tlog.dist[a][b] == -level(a, b) for a, b in pairs)
            assert all(type(x) is Fraction for row in t.dist + tlog.dist for x in row)
            assert _shares_one_object_per_level(t, level)
            assert _shares_one_object_per_level(tlog, level)
            depth = (max(pts) - min(pts)).bit_length() + 1 if pts else 1  # p**(depth - 1) exceeds every difference
            r = [p**v for v in range(depth)]
            assert t.dist == _rseq_reference(pts, r, [Fraction(1, q) for q in r])
            assert tlog.dist == _rseq_reference(pts, r, [Fraction(-v) for v in range(depth)])

    @pytest.mark.parametrize("seed", range(4))
    def test_mod_matches_residue_test(self, seed):
        rng = random.Random(seed)
        for _ in range(30):
            pts = _random_points(rng)
            m = rng.choice((1, 2, 3, 5, 12, 2**301))
            eps, alpha = Fraction(rng.randint(-3, 1), 2), Fraction(rng.randint(3, 6), 5)
            t = mod_triple(pts, m, eps, alpha)

            def same_class(a, b):
                return (pts[a] - pts[b]) % m == 0

            assert t.labels == tuple(map(str, pts))
            assert all(
                t.dist[a][b] == (eps if same_class(a, b) else alpha) for a in range(len(pts)) for b in range(a)
            )
            assert _shares_one_object_per_level(t, same_class)
            assert t.dist == _rseq_reference(pts, [1, m], [alpha, eps])


def _meet_reference(value, parent, home):
    """The rows by their definition: pair (a, b) gets the value of the first
    ancestor of b's node that is also an ancestor of a's node."""

    def ancestors(x):
        path = [x]
        while x:
            x = parent[x]
            path.append(x)
        return path

    up = [ancestors(x) for x in home]
    above = [set(path) for path in up]
    return [tuple(value[next(y for y in up[b] if y in above[a])] for b in range(a)) for a in range(len(home))]


def _random_cluster_tree(rng):
    """1-30 nodes under random earlier parents, 0-40 points on random nodes,
    the root and internal nodes included, and one fresh object per node, so
    that equal rows hold the very same objects."""
    parent = [0] + [rng.randrange(x) for x in range(1, rng.randint(1, 30))]
    home = [rng.randrange(len(parent)) for _ in range(rng.choice((0, 1, 2, rng.randint(3, 40))))]
    return [object() for _ in parent], parent, home


def _tree_of_merges(t):
    """The cluster tree of t's single-linkage merges: merge j of m is node
    m - 1 - j, under the merge that next takes in its cluster, and each point
    sits at the first merge that takes it in; a node's value is its height."""
    heights, up, first, latest = [], {}, {}, {}  # latest: the last merge of each cluster, named by A[0]
    for j, (w, A, B, bad) in enumerate(_merges(_rows(t))):
        assert bad == []
        for side in A, B:
            if side[0] in latest:
                up[latest[side[0]]] = j
            else:
                first[side[0]] = j
        latest[A[0]] = j
        heights.append(w)
    m = len(heights)
    if not m:  # at most one point: the root alone
        return [None], [0], [0] * t.n
    return heights[::-1], [0] + [m - 1 - up[m - 1 - x] for x in range(1, m)], [m - 1 - first[i] for i in range(t.n)]


class TestMeetRows:
    """The one pair writer of every built triple, against an ancestor walk per pair."""

    def test_matches_ancestor_walk(self):
        rng = random.Random(2901)
        seen: Counter = Counter()
        for _ in range(2000):
            value, parent, home = _random_cluster_tree(rng)
            assert _meet_rows(len(home), value, parent, home) == _meet_reference(value, parent, home)
            seen["root"] += 0 in home
            seen["internal"] += bool(set(home) & set(parent[1:]) - {0})
            seen[min(len(home), 3)] += 1
        assert min(seen.values()) > 200, seen

    @pytest.mark.parametrize("n", [0, 1, 2, 7])
    def test_root_alone(self, n):
        v = object()
        assert _meet_rows(n, [v], [0], [0] * n) == [(v,) * a for a in range(n)]

    def test_identical_levels(self):
        # 2,000 nodes in a chain with every point on the deepest: every pair meets there
        value = [object() for _ in range(2000)]
        assert _meet_rows(40, value, [0, *range(1999)], [1999] * 40) == [(value[-1],) * a for a in range(40)]

    def test_chain_peeling_one_point_per_level(self):
        # node k holds points k, k + 1, ...: point k leaves at node k, where it meets every later point
        value = [object() for _ in range(300)]
        assert _meet_rows(300, value, [0, *range(299)], range(300)) == [tuple(value[:a]) for a in range(300)]

    def test_star(self):
        # each point on its own node under the root: every pair meets at the root
        value = [object() for _ in range(301)]
        assert _meet_rows(300, value, [0] * 301, range(1, 301)) == [(value[0],) * a for a in range(300)]

    def test_rebuilds_each_valid_triple_from_its_merges(self):
        # Prim's walk in core and the writer, each checked by the other
        rng = random.Random(2902)
        for k in range(800):
            if k % 4 == 0:
                t = random_ultra_triple(rng.randrange(10**6), rng.randint(1, 16), rng.randint(1, 8))
            elif k % 4 == 1:
                t = padic_triple(_random_points(rng), rng.choice((2, 3, 5)))
            elif k % 4 == 2:
                t = eqrel_triple(_random_hierarchy(rng))
            else:
                t = tree_triple(_random_tree(rng))
            value, parent, home = _tree_of_merges(t)
            assert tuple(_meet_rows(t.n, value, parent, home)) == t.dist


def _path_weights(tree, source):
    """The path weight from source to every vertex: the per-pair definition
    `tree_triple` is held to takes one such walk per point."""
    adj = {v: [] for v in tree.vertices}
    for u, v, wt in tree.edges:
        adj[u].append((v, wt))
        adj[v].append((u, wt))
    dist = {source: F(0)}
    stack = [source]
    while stack:
        x = stack.pop()
        for y, wt in adj[x]:
            if y not in dist:
                dist[y] = dist[x] + wt
                stack.append(y)
    return dist


def _random_tree(rng):
    """1-14 vertices, zero-weight edges, any root, and the default leafset
    or a random one that may hold internal vertices and the root."""
    names = [f"v{i}" for i in range(rng.randint(1, 14))]
    rng.shuffle(names)
    edges = []
    for i in range(1, len(names)):
        u, v, wt = names[rng.randrange(i)], names[i], F(rng.randint(0, 6), rng.randint(1, 3))
        edges.append((u, v, wt) if rng.random() < 0.5 else (v, u, wt))
    leafset = None if rng.random() < 0.5 else rng.sample(names, rng.randint(0, len(names)))
    return WeightedTree(names, edges, rng.choice(names), leafset)


class TestTree:
    def test_matches_per_pair_path_weights(self):
        rng = random.Random(2303)
        for _ in range(3000):
            tree = _random_tree(rng)
            t = tree_triple(tree)
            from_root = _path_weights(tree, tree.root)
            assert t.labels == tree.leafset
            assert t.weights == tuple(from_root[x] for x in tree.leafset)
            for i, x in enumerate(tree.leafset):
                from_x = _path_weights(tree, x)
                assert t.dist[i] == tuple(from_x[y] - from_root[x] - from_root[y] for y in tree.leafset[:i])
            assert validate(t).ok

    def test_pairs_meeting_at_one_vertex_share_one_object(self):
        edges = [("r", "a", 1), ("r", "b", 2), ("r", "c", 3), ("a", "x", 1), ("a", "y", 1), ("a", "z", 1)]
        edges += [("b", "u", 1), ("b", "v", 1)]
        t = tree_triple(WeightedTree("rabcxyzuv", edges, "r"))

        def d(p, q):
            return t.d(t.index_of(p), t.index_of(q))

        assert d("x", "y") is d("x", "z") is d("y", "z") and d("x", "y") == F(-2)
        assert d("u", "v") == F(-4)
        at_root = [d(p, q) for p, q in combinations("cxyzuv", 2) if not {p, q} <= set("xyz") and {p, q} != {"u", "v"}]
        assert len(at_root) == 11 and len({id(x) for x in at_root}) == 1 and at_root[0] == 0
        assert len({id(x) for row in t.dist for x in row}) == 3

    def test_long_path_builds_every_pair(self):
        # one walk, not one per point, and no recursion: point j is v(100 j),
        # where it meets every point below it, at root path 100 j
        names = [f"v{i}" for i in range(20_000)]
        tree = WeightedTree(names, [(a, b, F(1)) for a, b in zip(names, names[1:])], "v0", names[::100])
        start = time.perf_counter()
        t = tree_triple(tree)
        assert time.perf_counter() - start < 5.0  # 0.19 s; one walk per point took 12.9 s
        assert t.n == 200 and t.weights == tuple(F(100 * j) for j in range(200))
        assert all(x == -200 * j for row in t.dist for j, x in enumerate(row))

    def test_peak_memory_one_table(self):
        # a random 1,000-vertex tree with 500 points: its rows become tuples
        # in place, so no second full table is ever alive
        rng = random.Random(5)
        names = [f"v{i}" for i in range(1000)]
        edges = [(names[rng.randrange(i)], names[i], F(rng.randint(0, 9), rng.randint(1, 3))) for i in range(1, 1000)]
        tree = WeightedTree(names, edges, "v0")
        tree_triple(WeightedTree("rab", [("r", "a", 1), ("r", "b", 2)], "r"))  # modules loaded before the measured call
        tracemalloc.start()
        try:
            t = tree_triple(tree)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert t.n == 500
        assert peak < 2 * 2**20  # 1.49 MiB; 2.47 MiB when the list rows were copied to tuples whole

    def test_two_leaf_star(self):
        tree = WeightedTree(("r", "x", "y"), (("x", "r", F(1)), ("y", "r", F(2))), "r")
        t = tree_triple(tree)
        assert t.labels == ("x", "y")
        assert t.w(0) == F(1) and t.w(1) == F(2)
        assert t.d(0, 1) == F(0)
        assert perimeter_set(t, [0, 1]) == F(3)

    def test_path_with_overridden_leafset(self):
        tree = WeightedTree(
            ("r", "a", "b"), (("r", "a", F(1)), ("a", "b", F(1))), "r", leafset=("a", "b")
        )
        t = tree_triple(tree)
        assert t.w(0) == F(1) and t.w(1) == F(2)
        assert t.d(0, 1) == F(-2)
        assert perimeter_set(t, [0, 1]) == F(1)

    def test_path_identity_holds(self):
        tree = WeightedTree(
            ("r", "a", "b", "c"),
            (("r", "a", F(3)), ("a", "b", F(1, 2)), ("a", "c", F(2))),
            "r",
        )
        t = tree_triple(tree)
        bi, ci = t.index_of("b"), t.index_of("c")
        # lambda(b, c) runs through a only: 1/2 + 2
        assert t.w(bi) + t.w(ci) + t.d(bi, ci) == F(5, 2)
        assert validate(t).ok

    def test_zero_weight_edge_accepted(self):
        tree = WeightedTree(("r", "x", "y"), (("x", "r", F(0)), ("y", "r", F(1))), "r")
        assert validate(tree_triple(tree)).ok

    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            WeightedTree(
                ("a", "b", "c"),
                (("a", "b", F(1)), ("b", "c", F(1)), ("c", "a", F(1))),
                "a",
            )

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            WeightedTree(("a", "b", "c", "d"), (("a", "b", F(1)), ("c", "d", F(1))), "a")

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            WeightedTree(("a", "b"), (("a", "b", F(-1)),), "a")

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            WeightedTree(("a", "b"), (("a", "a", F(1)), ("a", "b", F(1))), "a")

    def test_unknown_root_rejected(self):
        with pytest.raises(ValueError):
            WeightedTree(("a", "b"), (("a", "b", F(1)),), "z")


class TestExtendToFull:
    def test_parity5_boundary(self, parity5):
        full = extend_to_full(parity5, F(1))
        assert validate(full).ok
        assert full.selfdist == (F(1),) * 5

    def test_too_large_rejected(self, parity5):
        with pytest.raises(ValueError) as exc:
            extend_to_full(parity5, F(3, 2))
        assert str(exc.value) == "self-distance 3/2 exceeds the minimum pairwise distance 1"

    @pytest.mark.parametrize("N", [F(-10**30), F(0), F(7, 3), 10**30])
    def test_no_pairs_accept_any_self_distance(self, N):
        assert extend_to_full(UltraTriple((), (), ()), N).selfdist == ()
        assert extend_to_full(UltraTriple(("a",), (F(1),), ((),)), N).selfdist == (F(N),)

    def test_minimum_held_by_distinct_equal_objects(self):
        # the minimum 1/2 sits in three objects, none in the first row
        half = [F(1, 2) + 0 for _ in range(3)]
        assert len({id(x) for x in half}) == 3
        t = UltraTriple("abcd", [F(0)] * 4, [[], [F(3)], [half[0], F(3)], [F(3), half[1], half[2]]])
        assert extend_to_full(t, F(1, 2)).selfdist == (F(1, 2),) * 4
        with pytest.raises(ValueError) as exc:
            extend_to_full(t, F(1, 2) + F(1, 10**20))
        assert str(exc.value) == f"self-distance {F(1, 2) + F(1, 10**20)} exceeds the minimum pairwise distance 1/2"

    def test_padic_zero(self):
        full = extend_to_full(padic_triple([0, 1, 2, 4], 2), F(0))
        assert validate(full).ok

    def test_restriction_roundtrip(self, parity5):
        assert extend_to_full(parity5, F(1)).without_selfdist() == parity5


class TestShiftDistances:
    def test_zero_is_identity(self, parity5_full):
        assert shift_distances(parity5_full, F(0)) == parity5_full

    def test_subset_perimeter_shift(self, parity5_full):
        shifted = shift_distances(parity5_full, F(7, 2))
        for k, A in ((2, [0, 3]), (3, [1, 2, 4]), (4, [0, 1, 2, 3])):
            pairs = k * (k - 1) // 2
            assert perimeter_set(shifted, A) == perimeter_set(parity5_full, A) + pairs * F(7, 2)

    def test_selfdist_unchanged(self, parity5_full):
        assert shift_distances(parity5_full, F(10)).selfdist == parity5_full.selfdist

    def test_large_shift_reduces_subsequences_to_permutations(
        self, parity5, parity5_full, enumerate_greedy_subsequences
    ):
        # off-diagonal boost large enough that repeats never win a step
        shifted = shift_distances(parity5_full, F(100))
        for m in (1, 2, 3):
            subseqs = set(enumerate_greedy_subsequences(shifted, shifted.points(), m))
            perms = set(all_greedy_permutations(parity5, parity5.points(), m))
            assert subseqs == perms
