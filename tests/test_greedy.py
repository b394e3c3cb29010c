import random
import sys
from fractions import Fraction
from itertools import permutations, product

import pytest

from ultragreedy import (
    FullUltraTriple,
    GreedyTrace,
    all_greedy_permutations,
    all_greedy_traces,
    brute_all_greedy,
    brute_max_perimeter,
    brute_max_tuple_perimeter,
    clone_triple,
    constant_triple,
    extend_greedy,
    extend_to_full,
    greedy_permutation,
    greedy_subsequence,
    is_greedy_permutation,
    is_greedy_subsequence,
    nu,
    nu_bar,
    nu_bar_inequality_check,
    perimeter_set,
    perimeter_tuple,
    random_ultra_triple,
)

F = Fraction


def labels(t, seq):
    return tuple(t.labels[a] for a in seq)


class TestGreedyTrace:
    def test_permutation_mode_rejects_repeats(self):
        with pytest.raises(ValueError):
            GreedyTrace((0, 0), (F(0), F(1)), "permutation")

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GreedyTrace((0, 1), (F(0),), "permutation")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            GreedyTrace((0,), (F(0),), "walk")

    def test_prefix_perimeters(self):
        tr = GreedyTrace((0, 1, 2), (F(1), F(2), F(3)), "permutation")
        assert tr.prefix_perimeters() == (F(1), F(3), F(6))


class TestGreedyPermutation:
    def test_parity5_first_pair(self, parity5):
        tr = greedy_permutation(parity5, parity5.points(), 2)
        assert labels(parity5, tr.points) == ("1", "2")

    def test_m_zero(self, parity5):
        tr = greedy_permutation(parity5, parity5.points(), 0)
        assert tr.points == () and tr.increments == ()

    def test_m_too_large(self, parity5):
        with pytest.raises(ValueError):
            greedy_permutation(parity5, [0, 1], 3)

    def test_weird_prefixes_attain_maxima(self, weird_d):
        tr = greedy_permutation(weird_d, weird_d.points(), 5)
        for k in range(6):
            want = brute_max_perimeter(weird_d, weird_d.points(), k).value
            assert perimeter_set(weird_d, tr.points[:k]) == want

    def test_deterministic(self, parity5):
        a = greedy_permutation(parity5, parity5.points(), 5)
        b = greedy_permutation(parity5, parity5.points(), 5)
        assert a == b


class TestIsGreedyPermutation:
    def test_odd_pair_depends_on_candidates(self, parity5):
        one, three = 0, 2
        assert is_greedy_permutation(parity5, [0, 2, 4], (one, three))
        assert not is_greedy_permutation(parity5, parity5.points(), (one, three))

    def test_full_sequences(self, parity5):
        assert is_greedy_permutation(parity5, parity5.points(), (0, 1, 2, 3, 4))
        assert not is_greedy_permutation(parity5, parity5.points(), (0, 1, 2, 4, 3))

    def test_weird_sequences(self, weird_d, weird_dlog):
        def ix(t, *vals):
            return tuple(t.index_of(str(v)) for v in vals)

        # After the prefix (2, 9) the only maximizing third picks are 0 and 128
        # under both metrics, so the two orderings diverge at position 5 only.
        assert is_greedy_permutation(weird_dlog, weird_dlog.points(), ix(weird_dlog, 2, 9, 0, 17, 1))
        assert not is_greedy_permutation(weird_d, weird_d.points(), ix(weird_d, 2, 9, 0, 17, 1))
        assert is_greedy_permutation(weird_d, weird_d.points(), ix(weird_d, 2, 9, 0, 17, 128))
        assert not is_greedy_permutation(weird_dlog, weird_dlog.points(), ix(weird_dlog, 2, 9, 0, 17, 128))
        for t in (weird_d, weird_dlog):
            assert not is_greedy_permutation(t, t.points(), ix(t, 2, 9, 17, 0, 1))
            assert not is_greedy_permutation(t, t.points(), ix(t, 2, 9, 17, 0, 128))

    def test_repeats_rejected(self, parity5):
        assert not is_greedy_permutation(parity5, parity5.points(), (0, 0))

    def test_outside_candidates_rejected(self, parity5):
        assert not is_greedy_permutation(parity5, [0, 1], (0, 2))

    def test_longer_than_candidates_rejected(self, parity5):
        assert not is_greedy_permutation(parity5, [0, 1], (0, 1, 0))

    @pytest.mark.parametrize("seq", [(False, True), (0, True), (0.0,), (0.0, 1), ("0",), (0, "1")])
    def test_non_int_entries_rejected(self, parity5, seq):
        # True == 1 and 0.0 == 0 as dict keys, but no point is a bool or a float
        assert not is_greedy_permutation(parity5, [0, 1], seq)


class TestExtendGreedy:
    def test_empty_prefix_matches_direct_run(self, parity5):
        empty = GreedyTrace((), (), "permutation")
        assert extend_greedy(parity5, parity5.points(), empty, 5) == greedy_permutation(
            parity5, parity5.points(), 5
        )

    def test_extends_pair_to_full(self, parity5):
        prefix = greedy_permutation(parity5, parity5.points(), 2)
        tr = extend_greedy(parity5, parity5.points(), prefix, 5)
        assert labels(parity5, tr.points) == ("1", "2", "3", "4", "5")
        assert is_greedy_permutation(parity5, parity5.points(), tr.points)

    def test_truncation_of_extension_is_greedy(self, parity5):
        prefix = greedy_permutation(parity5, parity5.points(), 1)
        tr = extend_greedy(parity5, parity5.points(), prefix, 4)
        assert is_greedy_permutation(parity5, parity5.points(), tr.points[:3])

    def test_non_greedy_prefix_rejected(self, parity5):
        bogus = GreedyTrace((0, 2), (F(0), F(1)), "permutation")
        with pytest.raises(ValueError):
            extend_greedy(parity5, parity5.points(), bogus, 5)

    @pytest.mark.parametrize("entry", [True, 0.0, "0"])
    def test_non_int_prefix_rejected(self, parity5, entry):
        bogus = GreedyTrace((entry,), (F(0),), "permutation")
        with pytest.raises(ValueError, match="prefix is not a greedy permutation"):
            extend_greedy(parity5, parity5.points(), bogus, 3)

    def test_prefix_increments_recomputed(self, parity5):
        # a greedy prefix carrying made-up increments: only its points count
        fabricated = GreedyTrace((0, 1), (F(100), F(200)), "permutation")
        tr = extend_greedy(parity5, parity5.points(), fabricated, 4)
        assert tr == greedy_permutation(parity5, parity5.points(), 4)
        assert tr.increments == (F(0), F(2), F(3), F(5))


class TestAllGreedyPermutations:
    def test_parity5_opposite_parity_pairs(self, parity5):
        got = all_greedy_permutations(parity5, parity5.points(), 2)
        want = {
            (a, b)
            for a in range(5)
            for b in range(5)
            if a != b and (a + 1) % 2 != (b + 1) % 2
        }
        assert set(got) == want
        assert len(got) == 12

    def test_m_zero(self, parity5):
        assert all_greedy_permutations(parity5, parity5.points(), 0) == ((),)

    def test_matches_brute_filter(self):
        for seed in range(6):
            t = random_ultra_triple(seed, 5)
            for m in range(4):
                got = set(all_greedy_permutations(t, t.points(), m))
                want = {
                    seq
                    for seq in permutations(t.points(), m)
                    if is_greedy_permutation(t, t.points(), seq)
                }
                assert got == want

    def test_cap_enforced(self, parity5):
        with pytest.raises(ValueError):
            all_greedy_permutations(parity5, parity5.points(), 2, cap=3)

    def test_sorted_output(self, parity5):
        got = all_greedy_permutations(parity5, parity5.points(), 2)
        assert list(got) == sorted(got)


class TestNuBar:
    def test_first_is_max_weight(self):
        t = random_ultra_triple(11, 6)
        assert nu_bar(t, t.points(), 1) == max(t.weights)

    def test_parity5_values(self, parity5):
        assert nu_bar(parity5, parity5.points(), 2) == F(2)
        assert nu_bar(parity5, parity5.points(), 3) == F(3)

    def test_choice_independent(self):
        for seed in (3, 14, 15):
            t = random_ultra_triple(seed, 6)
            for seq in all_greedy_permutations(t, t.points(), 6):
                per = [perimeter_set(t, seq[:k]) for k in range(7)]
                for k in range(1, 7):
                    assert per[k] - per[k - 1] == nu_bar(t, t.points(), k)

    def test_out_of_range(self, parity5):
        with pytest.raises(ValueError):
            nu_bar(parity5, parity5.points(), 0)
        with pytest.raises(ValueError):
            nu_bar(parity5, parity5.points(), 6)


class TestGreedySubsequence:
    def test_single_candidate_repeats(self, parity5_full):
        tr = greedy_subsequence(parity5_full, [3], 4)
        assert tr.points == (3, 3, 3, 3)

    def test_m_zero(self, parity5_full):
        assert greedy_subsequence(parity5_full, parity5_full.points(), 0).points == ()

    def test_plain_triple_rejected(self, parity5):
        with pytest.raises(TypeError):
            greedy_subsequence(parity5, parity5.points(), 2)

    def test_empty_candidates_rejected(self, parity5_full):
        with pytest.raises(ValueError):
            greedy_subsequence(parity5_full, [], 1)

    def test_prefixes_attain_tuple_maxima(self):
        for seed in (0, 5, 9):
            base = random_ultra_triple(seed, 4)
            low = min(
                (base.d(a, b) for a in base.points() for b in range(a)), default=F(0)
            )
            t = extend_to_full(base, low)
            tr = greedy_subsequence(t, t.points(), 6)
            for k in range(7):
                want = brute_max_tuple_perimeter(t, t.points(), k).value
                assert perimeter_tuple(t, tr.points[:k]) == want


class TestIsGreedySubsequence:
    def test_empty_true(self, parity5_full):
        assert is_greedy_subsequence(parity5_full, parity5_full.points(), ())

    def test_no_candidates_rejects_any_entry(self, parity5_full):
        assert not is_greedy_subsequence(parity5_full, [], (0,))

    @pytest.mark.parametrize("entry", [True, 0.0, "0"])
    def test_non_int_entry_rejected(self, parity5_full, entry):
        assert not is_greedy_subsequence(parity5_full, parity5_full.points(), (entry,))

    def test_singleton_weight_comparison(self):
        base = random_ultra_triple(21, 5)
        low = min(base.d(a, b) for a in base.points() for b in range(a))
        t = extend_to_full(base, low)
        best = max(t.points(), key=lambda a: t.w(a))
        worst = min(t.points(), key=lambda a: t.w(a))
        assert is_greedy_subsequence(t, t.points(), (best,))
        if t.w(worst) < t.w(best):
            assert not is_greedy_subsequence(t, t.points(), (worst,))

    def test_roundtrip(self, parity5_full):
        for m in range(5):
            tr = greedy_subsequence(parity5_full, parity5_full.points(), m)
            assert is_greedy_subsequence(parity5_full, parity5_full.points(), tr.points)


class TestNu:
    def test_first_is_max_weight(self, parity5_full):
        assert nu(parity5_full, parity5_full.points(), 1) == F(0)

    def test_single_point_self_distance(self):
        t = FullUltraTriple(("a",), (F(0),), ((),), (F(5, 2),))
        for k in (1, 2, 3, 4):
            assert nu(t, [0], k) == (k - 1) * F(5, 2)

    def test_choice_independent(self, enumerate_greedy_subsequences):
        for seed in (2, 8):
            base = random_ultra_triple(seed, 3)
            low = min(
                (base.d(a, b) for a in base.points() for b in range(a)), default=F(0)
            )
            t = extend_to_full(base, low)
            for seq in enumerate_greedy_subsequences(t, t.points(), 5):
                per = [perimeter_tuple(t, seq[:k]) for k in range(6)]
                for k in range(1, 6):
                    assert per[k] - per[k - 1] == nu(t, t.points(), k)

    def test_empty_candidates_rejected(self, parity5_full):
        with pytest.raises(ValueError):
            nu(parity5_full, [], 1)


class TestCloneTriple:
    def test_single_copy_is_isomorphic(self, parity5_full):
        c = clone_triple(parity5_full, 1)
        assert c.weights == parity5_full.weights
        assert c.dist == parity5_full.dist
        assert c.selfdist == parity5_full.selfdist
        assert c.labels == tuple(f"{x}#1" for x in parity5_full.labels)

    def test_tuple_perimeter_preserved(self, parity5_full):
        c = clone_triple(parity5_full, 3)
        seq = (0, 2, 0, 4)
        copies = (1, 3, 2, 1)
        lifted = tuple(e * 3 + (r - 1) for e, r in zip(seq, copies))
        assert perimeter_tuple(c, lifted) == perimeter_tuple(parity5_full, seq)

    def test_distinct_copy_set_perimeter(self, parity5_full):
        c = clone_triple(parity5_full, 3)
        seq = (1, 1, 4)
        lifted = [1 * 3 + 0, 1 * 3 + 1, 4 * 3 + 2]
        assert perimeter_set(c, lifted) == perimeter_tuple(parity5_full, seq)

    def test_greedy_correspondence_small(self, enumerate_greedy_subsequences):
        base = random_ultra_triple(4, 3)
        low = min(base.d(a, b) for a in base.points() for b in range(a))
        t = extend_to_full(base, low)
        c = clone_triple(t, 3)
        for seq in enumerate_greedy_subsequences(t, t.points(), 3):
            used: dict[int, int] = {}
            lifted = []
            for e in seq:
                used[e] = used.get(e, 0) + 1
                lifted.append(e * 3 + used[e] - 1)
            assert is_greedy_permutation(c, c.points(), lifted)

    def test_bad_copy_count(self, parity5_full):
        with pytest.raises(ValueError):
            clone_triple(parity5_full, 0)


class TestNuBarInequality:
    def test_j_equals_k(self, parity5):
        tr = greedy_permutation(parity5, parity5.points(), 4)
        for k in (1, 2, 3, 4):
            assert nu_bar_inequality_check(parity5, parity5.points(), tr, k, k)

    def test_parity5_k3_j1_tight(self, parity5):
        tr = greedy_permutation(parity5, parity5.points(), 3)
        assert labels(parity5, tr.points) == ("1", "2", "3")
        assert nu_bar_inequality_check(parity5, parity5.points(), tr, 3, 1)
        # the bound is tight here: 3 <= 0 + 2 + 1
        cj = tr.points[0]
        rhs = parity5.w(cj) + parity5.d(tr.points[1], cj) + parity5.d(tr.points[2], cj)
        assert rhs == F(3) == nu_bar(parity5, parity5.points(), 3)

    def test_random_sweep(self):
        for seed in (1, 7, 19):
            t = random_ultra_triple(seed, 6)
            tr = greedy_permutation(t, t.points(), 6)
            for k in range(1, 7):
                for j in range(1, k + 1):
                    assert nu_bar_inequality_check(t, t.points(), tr, k, j)

    def test_index_violations(self, parity5):
        tr = greedy_permutation(parity5, parity5.points(), 3)
        with pytest.raises(ValueError):
            nu_bar_inequality_check(parity5, parity5.points(), tr, 4, 1)
        with pytest.raises(ValueError):
            nu_bar_inequality_check(parity5, parity5.points(), tr, 2, 3)
        with pytest.raises(ValueError):
            nu_bar_inequality_check(parity5, parity5.points(), tr, 2, 0)


def test_truncation_of_greedy_is_greedy():
    for seed in range(8):
        t = random_ultra_triple(seed, 6)
        tr = greedy_permutation(t, t.points(), 6)
        for k in range(7):
            assert is_greedy_permutation(t, t.points(), tr.points[:k])


def test_constant_triple_everything_greedy():
    t = constant_triple(4)
    got = all_greedy_permutations(t, t.points(), 2)
    assert len(got) == 12  # every ordered pair ties


@pytest.fixture()
def recursion_limit_120():
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(120)
    yield
    sys.setrecursionlimit(old)


def test_enumeration_deeper_than_recursion_limit(recursion_limit_120):
    # distinct weights and one distance: exactly one greedy permutation
    t = constant_triple(150, list(range(150)))
    got = all_greedy_permutations(t, t.points(), 150)
    assert got == (tuple(range(149, -1, -1)),)


def _tie_heavy_triple(rng: random.Random, n: int) -> FullUltraTriple:
    """A full triple with small integer entries: mostly invalid, full of ties."""
    return FullUltraTriple(
        tuple(f"x{i}" for i in range(n)),
        tuple(F(rng.randint(0, 2)) for _ in range(n)),
        tuple(tuple(F(rng.randint(0, 2)) for _ in range(i)) for i in range(n)),
        tuple(F(rng.randint(0, 1)) for _ in range(n)),
    )


def _raw_increments(t, seq):
    per = [perimeter_tuple(t, seq[:k]) for k in range(len(seq) + 1)]
    return tuple(b - a for a, b in zip(per, per[1:]))


def test_tie_heavy_sweep_against_oracles(enumerate_greedy_subsequences):
    rng = random.Random(20191)
    for _ in range(200):
        n = rng.randint(1, 6)
        t = _tie_heavy_triple(rng, n)
        C = sorted(rng.sample(range(n), rng.randint(1, n)))
        m = rng.randint(0, min(len(C), 4))
        want = brute_all_greedy(t, C, m)
        assert greedy_permutation(t, C, m).points == want[0]
        traces = all_greedy_traces(t, C, m)
        assert tuple(tr.points for tr in traces) == want
        assert all_greedy_permutations(t, C, m) == want
        for tr in traces:
            assert tr.increments == _raw_increments(t, tr.points)
        for seq in permutations(C, m):
            assert is_greedy_permutation(t, C, seq) == (seq in want)

        k = rng.randint(0, 3)
        subseqs = enumerate_greedy_subsequences(t, C, k)
        tr = greedy_subsequence(t, C, k)
        assert tr.points == subseqs[0]
        assert tr.increments == _raw_increments(t, tr.points)
        for seq in product(C, repeat=k):
            assert is_greedy_subsequence(t, C, seq) == (seq in subseqs)
