import math
import random
import time
from itertools import permutations, product

import pytest

from ultragreedy import (
    check_equivalence,
    is_pm_ordering,
    is_prime,
    pm_ordering,
    vp,
)


class TestPrimality:
    def test_small_values(self):
        def ref(n):
            return n >= 2 and all(n % k for k in range(2, n))

        for n in range(-3, 200):
            assert is_prime(n) == ref(n)

    def test_agrees_with_trial_division_below_10_5(self):
        small = [k for k in range(2, 317) if all(k % j for j in range(2, k))]  # 317**2 > 10**5

        def trial(n):
            return n >= 2 and all(n % q for q in small if q * q <= n)

        assert [n for n in range(10**5) if is_prime(n) != trial(n)] == []

    @pytest.mark.parametrize("n", [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 3825123056546413051])
    def test_carmichael_numbers_and_strong_pseudoprimes_rejected(self, n):
        assert is_prime(n) is False

    def test_mersenne_61_accepted_promptly(self):
        start = time.perf_counter()
        assert is_prime(2**61 - 1) is True
        assert time.perf_counter() - start < 0.01

    def test_past_the_exact_bound_raises(self):
        bound = 3317044064679887385961981  # a strong pseudoprime to the 13 bases
        with pytest.raises(ValueError, match="exact only below"):
            is_prime(bound)
        assert is_prime(2 * bound) is False  # a small factor still decides


class TestValuation:
    def test_vp_values(self):
        assert vp(2, 12) == 2
        assert vp(3, 1) == 0
        assert vp(5, 0) == math.inf
        assert vp(2, -4) == 2
        assert type(vp(2, 12)) is int

    def test_composite_base_rejected(self):
        with pytest.raises(ValueError):
            vp(6, 2)

    def test_non_integer_rejected(self):
        with pytest.raises(TypeError):
            vp(2, 1.5)

    def test_ordering(self):
        assert vp(2, 2) < vp(2, 8) < vp(2, 0)
        assert not vp(2, 0) < vp(2, 0)

    def test_saturating_addition(self):
        assert vp(2, 4) + vp(2, 8) == 5
        assert vp(2, 4) + vp(2, 0) == vp(2, 0)


class TestPmOrdering:
    def test_natural_numbers_stay_in_order(self):
        assert pm_ordering([0, 1, 2, 3, 4, 5], 2, 6) == [0, 1, 2, 3, 4, 5]

    def test_singleton(self):
        assert pm_ordering([7], 3, 1) == [7]

    def test_m_zero(self):
        assert pm_ordering([1, 2, 3], 2, 0) == []

    def test_repeats_past_ground_size(self):
        seq = pm_ordering([4], 2, 3)
        assert seq == [4, 4, 4]

    def test_distinct_up_to_ground_size(self):
        rng = random.Random(2)
        for _ in range(20):
            E = rng.sample(range(-30, 30), rng.randint(1, 6))
            p = rng.choice((2, 3, 5))
            seq = pm_ordering(E, p, len(E))
            assert len(set(seq)) == len(seq)
            assert set(seq) == set(E)

    @pytest.mark.parametrize("E", [[0, 1.5, 2], [True, 3]])
    def test_non_integer_points_rejected(self, E):
        with pytest.raises(TypeError, match="points must be integers"):
            pm_ordering(E, 2, 2)
        with pytest.raises(TypeError, match="points must be integers"):
            is_pm_ordering(E, 2, ())

    def test_errors(self):
        with pytest.raises(ValueError):
            pm_ordering([], 2, 1)
        with pytest.raises(ValueError):
            pm_ordering([1], 2, -1)
        with pytest.raises(ValueError):
            pm_ordering([1], 4, 1)


class TestIsPmOrdering:
    def test_singleton_member(self):
        assert is_pm_ordering([3, 4], 2, (3,))

    def test_initial_segment(self):
        assert is_pm_ordering(range(1, 9), 2, tuple(range(1, 9)))

    def test_repeat_with_room_left_fails(self):
        assert not is_pm_ordering([0, 1, 2], 2, (0, 0))

    def test_non_member_fails(self):
        assert not is_pm_ordering([0, 1], 2, (5,))

    @pytest.mark.parametrize("seq", [(True, 0), (1.0, 0)])
    def test_non_integer_entry_fails(self, seq):
        assert not is_pm_ordering([0, 1, 2], 2, seq)

    def test_roundtrip(self):
        rng = random.Random(3)
        for _ in range(15):
            E = rng.sample(range(-20, 20), rng.randint(1, 6))
            p = rng.choice((2, 3))
            m = rng.randint(0, len(E) + 2)
            assert is_pm_ordering(E, p, pm_ordering(E, p, m))


class TestCheckEquivalence:
    def test_exhaustive_pairs(self):
        E = [0, 1, 2, 3]
        for seq in permutations(E, 2):
            check_equivalence(E, 2, seq)  # RuntimeError would mean disagreement

    def test_empty_sequence(self):
        assert check_equivalence([0, 1], 2, ()) is True

    def test_weird_example_sequence(self):
        E = [0, 1, 2, 9, 17, 128]
        assert check_equivalence(E, 2, (2, 9, 0, 17, 1)) is True
        # (2,9,17,...) stalls at step 3: both verdicts agree it is not greedy.
        assert check_equivalence(E, 2, (2, 9, 17, 0, 1)) is False

    def test_repeats_rejected(self):
        with pytest.raises(ValueError):
            check_equivalence([0, 1, 2], 2, (0, 0))

    def test_non_member_rejected(self):
        with pytest.raises(ValueError):
            check_equivalence([0, 1], 2, (9,))

    @pytest.mark.parametrize("seq", [(True, 0), (1.0, 0)])
    def test_non_integer_entry_rejected(self, seq):
        with pytest.raises(ValueError, match="must lie in E"):
            check_equivalence([0, 1, 2], 2, seq)


def _product_valuation(p, x, prefix):
    prod = 1
    for a in prefix:
        prod *= x - a
    return vp(p, prod)


def test_orderings_match_product_definition():
    # valuations of the whole difference product, recomputed per step
    rng = random.Random(1909)
    for _ in range(60):
        E = sorted(rng.sample(range(-40, 40), rng.randint(1, 5)))
        p = rng.choice((2, 3, 5))
        for k in range(4):
            for seq in product(E, repeat=k):
                want = all(
                    _product_valuation(p, seq[i], seq[:i]) == min(_product_valuation(p, x, seq[:i]) for x in E)
                    for i in range(k)
                )
                assert is_pm_ordering(E, p, seq) == want
        m = rng.randint(0, len(E) + 2)
        seq = pm_ordering(E, p, m)
        for i in range(m):
            vals = [_product_valuation(p, x, seq[:i]) for x in E]
            assert seq[i] == E[vals.index(min(vals))]
