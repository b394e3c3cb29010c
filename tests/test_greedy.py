import math
import random
import sys
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path

import pytest

from ultragreedy import (
    FullUltraTriple,
    GreedyTrace,
    UltraTriple,
    all_greedy_permutations,
    all_greedy_traces,
    bhargava_greedoid,
    brute_all_greedy,
    brute_max_perimeter,
    brute_max_tuple_perimeter,
    clone_triple,
    constant_triple,
    count_greedy_permutations,
    extend_greedy,
    extend_to_full,
    greedy_permutation,
    greedy_subsequence,
    is_greedy_permutation,
    is_greedy_subsequence,
    mask_from_points,
    nu,
    nu_bar,
    nu_bar_inequality_check,
    padic_triple,
    perimeter_set,
    perimeter_tuple,
    random_ultra_triple,
    validate,
)
from ultragreedy import greedy as greedy_module
from ultragreedy.cli import read_instance

F = Fraction


def labels(t, seq):
    return tuple(t.labels[a] for a in seq)


def _ties6():
    """The invalid six-point golden instance, full of greedy ties."""
    return read_instance(str(Path(__file__).parent / "golden" / "ties6.json"))


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


class TestCountGreedyPermutations:
    @pytest.mark.parametrize("n", range(8))
    def test_constant_triple_closed_form(self, n):
        # every point ties at every step: all n!/(n-m)! m-permutations are greedy
        t = constant_triple(n)
        for m in range(n + 1):
            assert count_greedy_permutations(t, t.points(), m) == math.perm(n, m)

    def test_matches_enumeration_on_valid_triples(self):
        for seed in range(24):
            t = random_ultra_triple(seed, 2 + seed % 7, 1 + seed % 3)
            for m in range(t.n + 1):
                assert count_greedy_permutations(t, t.points(), m) == len(all_greedy_traces(t, t.points(), m))

    def test_matches_enumeration_on_invalid_triples(self):
        ties6 = _ties6()
        rng = random.Random(1101)
        cases = [(ties6, ties6.points())]
        for _ in range(40):
            t = _tie_heavy_triple(rng, rng.randint(1, 7))
            cases.append((t, sorted(rng.sample(range(t.n), rng.randint(0, t.n)))))
        for t, C in cases:
            for m in range(len(C) + 1):
                assert count_greedy_permutations(t, C, m) == len(all_greedy_traces(t, C, m))

    def test_counts_past_the_default_cap(self):
        # counting builds no permutation, so no cap applies
        t = padic_triple(range(16), 2)
        assert count_greedy_permutations(t, t.points(), 6) == 131_072
        assert count_greedy_permutations(t, t.points(), 16) > 10**6

    def test_errors(self, parity5):
        with pytest.raises(ValueError):
            count_greedy_permutations(parity5, parity5.points(), 6)
        with pytest.raises(IndexError):
            count_greedy_permutations(parity5, [0, 9], 1)


def _paths_reference(levels):
    """(points, increments) of every path through the set DAG's levels, in
    lexicographic order, one path at a time: the walk `greedy._paths` made
    before it yielded one group per visit of a last-level set."""
    if not levels:
        yield (), ()
        return
    last = len(levels) - 1
    stack = [((), (), 0)]
    while stack:
        chosen, increments, A = stack.pop()
        k = len(chosen)
        best, winners = levels[k][A]
        increments += (best,)
        if k == last:
            for x in winners:
                yield chosen + (x,), increments
        else:
            for x in reversed(winners):
                stack.append((chosen + (x,), increments, A | 1 << x))


def _expanded(levels):
    """The paths of `greedy._paths`' groups: picks + (x,) for each winner x,
    or the picks alone for a group without winners."""
    paths = []
    for picks, increments, winners in greedy_module._paths(levels):
        assert list(winners) == sorted(set(winners))
        paths += [(picks + (x,), increments) for x in winners] or [(picks, increments)]
    return paths


def _path_cases():
    """Valid random and p-adic triples on random subsets, the invalid ties6,
    and constant triples, each with every m."""
    rng = random.Random(2603)
    cases = []
    for seed in range(16):
        t = random_ultra_triple(seed, 2 + seed % 7, 1 + seed % 3)
        cases.append((t, sorted(rng.sample(range(t.n), rng.randint(0, t.n)))))
    for p, n in ((2, 9), (3, 8), (5, 7)):
        t = padic_triple([rng.randrange(10**6) for _ in range(n)], p)
        cases += [(t, t.points()), (t, sorted(rng.sample(range(n), n - 2)))]
    ties6 = _ties6()
    cases.append((ties6, ties6.points()))
    cases += [(constant_triple(n), range(n)) for n in range(7)]
    return [(t, list(C), m) for t, C in cases for m in range(len(C) + 1)]


class TestPathGroups:
    """`greedy._paths` yields one group per visit of a last-level set; its
    paths are exactly the per-path walk's, in the same order."""

    @pytest.mark.parametrize("t, C, m", _path_cases())
    def test_expanded_groups_equal_the_per_path_walk(self, t, C, m):
        levels = greedy_module._set_dag(t, C, m)[0]
        want = list(_paths_reference(levels))
        got = _expanded(levels)
        assert got == want
        assert [(tr.points, tr.increments) for tr in all_greedy_traces(t, C, m)] == want
        assert list(all_greedy_permutations(t, C, m)) == [points for points, _ in want]
        # the increments of a path are the same objects in both walks
        assert all(a is b for (_, x), (_, y) in zip(got, want) for a, b in zip(x, y))

    def test_one_group_per_visit_of_a_last_level_set(self):
        t = constant_triple(6)
        for m in range(1, 7):
            groups = list(greedy_module._paths(greedy_module._set_dag(t, t.points(), m)[0]))
            # every (m-1)-prefix is a visit; its set's winners are the other points
            assert len(groups) == math.perm(6, m - 1)
            assert all(len(winners) == 6 - m + 1 for _, _, winners in groups)
        assert list(greedy_module._paths([])) == [((), (), ())]


def test_cap_checked_before_any_trace(monkeypatch):
    t = padic_triple(range(16), 2)  # 131,072 greedy 6-permutations

    def no_trace(*args):
        raise AssertionError("a trace was built before the cap was checked")

    monkeypatch.setattr(greedy_module, "GreedyTrace", no_trace)
    with pytest.raises(ValueError, match=r"^more than cap=1000 greedy permutations$"):
        all_greedy_traces(t, t.points(), 6, cap=1000)


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

    def test_empty_candidates_give_the_empty_trace(self, parity5_full):
        # as greedy_permutation, pm_ordering and the tuple oracle do with nothing to pick
        tr = greedy_subsequence(parity5_full, [], 0)
        assert (tr.points, tr.increments, tr.mode) == ((), (), "subsequence")
        assert tr == greedy_subsequence(parity5_full, parity5_full.points(), 0)
        with pytest.raises(ValueError, match="m must be nonnegative"):
            greedy_subsequence(parity5_full, [], -1)

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


def _clone_reference(t, N):
    """clone_triple by its per-pair definition: copy a of the clone is a copy of point a // N."""
    copies = [(e, i) for e in t.points() for i in range(1, N + 1)]
    return FullUltraTriple(
        [f"{t.labels[e]}#{i}" for e, i in copies],
        [t.weights[e] for e, _ in copies],
        [[t.d(a // N, b // N) for b in range(a)] for a in range(t.n * N)],
        [t.selfdist[e] for e, _ in copies],
    )


class TestCloneTriple:
    def test_matches_per_pair_reference(self):
        rng = random.Random(2406)
        for _ in range(500):
            base = random_ultra_triple(rng.randrange(10**6), rng.randint(1, 8))
            t = FullUltraTriple(base.labels, base.weights, base.dist, [Fraction(rng.randint(-3, 3), 2) for _ in base.points()])
            N = rng.randint(1, 5)
            assert clone_triple(t, N) == _clone_reference(t, N)

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


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)


def _prime_denominators(t, rng: random.Random) -> UltraTriple:
    """t with each distinct distance v_i (ascending) moved to i + 1/p and each
    weight to w + k/p, for primes p drawn per value: still valid when t is,
    since the distances keep their order."""
    values = sorted({x for row in t.dist for x in row})
    moved = {v: i + F(1, rng.choice(PRIMES)) for i, v in enumerate(values)}
    weights = [w + F(rng.randint(-3, 3), rng.choice(PRIMES)) for w in t.weights]
    return UltraTriple(t.labels, weights, [[moved[x] for x in row] for row in t.dist])


def _affine(t, rng: random.Random) -> UltraTriple:
    """t with weights a*w + c and distances a*d + b, for a, b, c over three
    primes: after k picks every gain is a*(its old gain) + c + k*b, so t's
    ties and its validity are kept."""
    a, b, c = (F(rng.randint(1, 9), p) for p in rng.sample(PRIMES, 3))
    weights = [a * w + c for w in t.weights]
    return UltraTriple(t.labels, weights, [[a * x + b for x in row] for row in t.dist])


def _exact_cases() -> list[UltraTriple]:
    """Valid triples whose gains mix many denominators, tie across them, or
    differ only past float precision."""
    rng = random.Random(4099)
    cases = []
    for seed in range(12):
        t = random_ultra_triple(seed, 2 + seed % 5, 1 + seed % 3)
        cases.append(_prime_denominators(t, rng))
        # weights 0 and 1 keep ties frequent
        cases.append(_affine(UltraTriple(t.labels, [w.numerator % 2 for w in t.weights], t.dist), rng))
    # 1/2 + 1/3 against 1/7 + 29/42: a tie between gains over different denominators
    cases.append(UltraTriple("abc", [F(1, 2), F(1, 3), F(1, 7)], [[], [F(1, 2)], [F(29, 42), F(29, 42)]]))
    # p-adic distances p**-k with k up to 90, and negative weights over large prime powers
    big = [0, 1, 2**70, 2**71, 2**70 + 2**90, 3 * 2**70]
    cases.append(padic_triple(big, 2, [-F(1, 3**40), 0, -F(2, 5**30), F(1, 2**80), -F(1, 7**25), 0]))
    cases.append(padic_triple([0, 3**50, 2 * 3**50, 3**60, 1, 3**61 + 1], 3, [-1, -F(1, 3**55), 0, 0, -2, -F(1, 3**61)]))
    # gains 10**30 and 10**30 + 1 look equal as floats
    cases.append(constant_triple(3, [10**30, 10**30 + 1, 10**30]))
    # after a, the gains of b and c differ by 1/10**40
    eps = F(1, 10**40)
    cases.append(UltraTriple("abc", [1, 0, 0], [[], [1], [1 + eps, 1 + eps]]))
    return cases


class TestExactEngine:
    """The engine's integer gain vectors against raw Fraction perimeters."""

    @pytest.mark.parametrize("t", _exact_cases())
    def test_matches_brute_force(self, t):
        for m in range(t.n + 1):
            want = brute_all_greedy(t, t.points(), m)
            traces = all_greedy_traces(t, t.points(), m)
            assert tuple(tr.points for tr in traces) == want
            assert count_greedy_permutations(t, t.points(), m) == len(want)
            assert greedy_permutation(t, t.points(), m).points == want[0]
            for tr in traces:
                assert tr.increments == _raw_increments(t, tr.points)
                assert all(type(x) is Fraction for x in tr.increments)
            if m:
                assert nu_bar(t, t.points(), m) == traces[0].increments[-1]

    @pytest.mark.parametrize("t", _exact_cases())
    def test_greedoid_matches_brute_force(self, t):
        s = bhargava_greedoid(t)
        want = {mask_from_points(a) for k in range(t.n + 1) for a in brute_max_perimeter(t, t.points(), k).argmax}
        assert s.sets == want

    @pytest.mark.parametrize("t", _exact_cases())
    def test_subsequences_match_brute_force(self, t, enumerate_greedy_subsequences):
        full = extend_to_full(t, min((x for row in t.dist for x in row), default=F(0)))
        for k in range(4):
            tr = greedy_subsequence(full, full.points(), k)
            assert tr.points == enumerate_greedy_subsequences(full, full.points(), k)[0]
            assert tr.increments == _raw_increments(full, tr.points)
            assert all(type(x) is Fraction for x in tr.increments)

    def test_ties_past_float_precision(self):
        heavy = constant_triple(3, [10**30, 10**30 + 1, 10**30])
        assert float(heavy.weights[0]) == float(heavy.weights[1])
        assert greedy_permutation(heavy, heavy.points(), 1).points == (1,)
        eps = F(1, 10**40)
        t = UltraTriple("abc", [1, 0, 0], [[], [1], [1 + eps, 1 + eps]])
        assert float(t.d(0, 1)) == float(t.d(0, 2))
        tr = greedy_permutation(t, t.points(), 3)
        assert tr.points == (0, 2, 1) and tr.increments == (1, 1 + eps, 2 + eps)
        assert all_greedy_permutations(t, t.points(), 2) == ((0, 2),)

    def test_integer_increments_are_fractions(self, parity5, parity5_full):
        for tr in (greedy_permutation(parity5, parity5.points(), 5), greedy_subsequence(parity5_full, [0, 1], 4)):
            assert all(x.denominator == 1 and type(x) is Fraction for x in tr.increments)
        assert type(nu_bar(parity5, parity5.points(), 3)) is Fraction
        assert type(nu(parity5_full, parity5_full.points(), 3)) is Fraction

    @pytest.mark.parametrize("t", [padic_triple(range(12), 2), _exact_cases()[24], constant_triple(4), _ties6()])
    def test_paths_through_a_set_share_its_increment(self, t):
        # at each level, (pi[k] is qi[k]) == (pi[k] == qi[k]) for any two
        # paths: one object per increment value, and so one per set
        m = min(t.n, 4)
        paths = _expanded(greedy_module._set_dag(t, t.points(), m)[0])
        assert len(paths) > 1
        for k in range(m):
            by_value, by_set = {}, {}
            for p, pi in paths:
                by_value.setdefault(pi[k], set()).add(id(pi[k]))
                by_set.setdefault(frozenset(p[:k]), set()).add(id(pi[k]))
            assert all(len(ids) == 1 for ids in [*by_value.values(), *by_set.values()])

    def test_valid_triples_have_one_increment_object_per_level(self):
        # nu_bar does not depend on how ties are broken, so on a valid triple
        # every set of a DAG level has the same maximum gain: one object
        rng = random.Random(3001)
        cases = [constant_triple(n, [rng.randint(0, 1) for _ in range(n)]) for n in range(1, 8)]
        cases += [padic_triple(rng.sample(range(64), n), rng.choice((2, 3))) for n in range(1, 9)]
        cases += [random_ultra_triple(seed, 1 + seed % 8, 1 + seed % 4) for seed in range(40)]
        for t in cases:
            assert validate(t).ok
            for C in (t.points(), sorted(rng.sample(range(t.n), rng.randint(0, t.n)))):
                levels = greedy_module._set_dag(t, C, len(C))[0]
                assert [len({id(best) for best, _ in level.values()}) for level in levels] == [1] * len(C)
