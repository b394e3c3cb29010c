import random
from fractions import Fraction
from itertools import combinations

import pytest

from ultragreedy.bhargava import _vp_int

from ultragreedy import (
    EquivHierarchy,
    WeightedTree,
    all_greedy_permutations,
    constant_triple,
    eqrel_triple,
    extend_to_full,
    mod_triple,
    padic_log_triple,
    padic_triple,
    perimeter_set,
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


class TestEqrel:
    def test_two_level_constant(self):
        h = EquivHierarchy(
            (({0, 1, 2},), ({0}, {1}, {2})),
            (F(5),),
        )
        t = eqrel_triple(h)
        assert all(t.d(a, b) == F(5) for a, b in combinations(range(3), 2))

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
    """Each block-written constructor against its per-pair definition."""

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


class TestTree:
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
        with pytest.raises(ValueError):
            extend_to_full(parity5, F(3, 2))

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
