from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultragreedy import (
    FullUltraTriple,
    UltraTriple,
    ValidationReport,
    Violation,
    mod_triple,
    perimeter_set,
    perimeter_tuple,
    projections,
    random_ultra_triple,
    rational,
    validate,
)

F = Fraction


def triple_of(weights, pairs):
    """Small helper: build a triple from explicit pair distances."""
    n = len(weights)
    dist = tuple(tuple(rational(pairs[(b, a)]) for b in range(a)) for a in range(n))
    return UltraTriple(tuple(str(i) for i in range(n)), tuple(map(rational, weights)), dist)


class TestRational:
    def test_accepts_int_str_fraction(self):
        assert rational(3) == F(3)
        assert rational("-7/2") == F(-7, 2)
        assert rational(F(1, 3)) == F(1, 3)

    def test_rejects_float_and_bool(self):
        with pytest.raises(TypeError):
            rational(0.5)
        with pytest.raises(TypeError):
            rational(True)


class TestConstruction:
    def test_fractions_kept_as_given(self):
        w = F(3, 4)
        d = F(-1, 2)
        t = FullUltraTriple(("a", "b"), (w, 0), ((), (d,)), ("1", d))
        assert t.weights[0] is w and t.dist[1][0] is d and t.selfdist[1] is d
        assert t.weights[1] == F(0) and t.selfdist[0] == F(1)

    def test_float_and_bool_entries_rejected(self):
        with pytest.raises(TypeError):
            UltraTriple(("a", "b"), (F(0), 0.5), ((), (F(1),)))
        with pytest.raises(TypeError):
            UltraTriple(("a", "b"), (F(0), F(0)), ((), (True,)))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            UltraTriple(("a", "a"), (F(0), F(0)), ((), (F(1),)))

    def test_weight_count_mismatch(self):
        with pytest.raises(ValueError):
            UltraTriple(("a", "b"), (F(0),), ((), (F(1),)))

    def test_triangular_shape_enforced(self):
        with pytest.raises(ValueError):
            UltraTriple(("a", "b"), (F(0), F(0)), ((), (F(1), F(1))))

    def test_row_zero_must_be_empty(self):
        with pytest.raises(ValueError):
            UltraTriple(("a", "b"), (F(0), F(0)), ((F(1),), (F(1),)))

    def test_distance_symmetry(self, parity5):
        for a, b in combinations(parity5.points(), 2):
            assert parity5.d(a, b) == parity5.d(b, a)

    def test_diagonal_rejected_on_plain_triple(self, parity5):
        with pytest.raises(ValueError):
            parity5.d(2, 2)

    def test_full_triple_diagonal(self, parity5_full):
        assert parity5_full.d(2, 2) == F(1)
        assert parity5_full.d(0, 1) == F(2)

    def test_without_selfdist_roundtrip(self, parity5, parity5_full):
        assert parity5_full.without_selfdist() == parity5

    def test_index_of(self, parity5):
        assert parity5.index_of("3") == 2
        with pytest.raises(KeyError):
            parity5.index_of("6")

    def test_point_range_checked(self, parity5):
        with pytest.raises(IndexError):
            parity5.w(5)
        with pytest.raises(IndexError):
            parity5.w(-1)
        with pytest.raises(IndexError):
            parity5.w(True)

    def test_selfdist_length_checked(self):
        with pytest.raises(ValueError):
            FullUltraTriple(("a", "b"), (F(0), F(0)), ((), (F(1),)), (F(0),))


class TestValidate:
    def test_parity5_ok(self, parity5):
        assert validate(parity5).ok

    def test_parity5_ok_with_weights(self):
        t = mod_triple([1, 2, 3, 4, 5], 2, F(1), F(2), weights=[F(3), F(-1), F(0), F(7, 2), F(2)])
        assert validate(t).ok

    def test_single_point_vacuous(self):
        t = UltraTriple(("a",), (F(5),), ((),))
        assert validate(t).ok

    def test_forced_violation(self):
        t = triple_of([0, 0, 0], {(0, 1): 3, (0, 2): 1, (1, 2): 1})
        report = validate(t)
        assert not report.ok
        v = report.violations[0]
        assert v.points == (0, 1, 2)
        assert v.lhs == F(3) and v.rhs == F(1)
        # witness re-check: the reported comparison really fails
        p, q, r = v.points
        assert t.d(p, q) > max(t.d(p, r), t.d(q, r))

    def test_full_selfdist_violation(self):
        t = FullUltraTriple(("a", "b"), (F(0), F(0)), ((), (F(1),)), (F(2), F(0)))
        report = validate(t)
        assert not report.ok
        assert any(len(set(v.points)) < 3 for v in report.violations)

    def test_report_consistency_enforced(self):
        bad = Violation((0, 1, 2), F(2), F(1))
        with pytest.raises(ValueError):
            ValidationReport(True, (bad,))
        with pytest.raises(ValueError):
            ValidationReport(False, ())


class TestPerimeterSet:
    def test_parity5_123(self, parity5):
        assert perimeter_set(parity5, [0, 1, 2]) == F(5)

    def test_empty(self, parity5):
        assert perimeter_set(parity5, []) == F(0)

    def test_singleton_is_weight(self):
        t = triple_of([7, -2], {(0, 1): 1})
        assert perimeter_set(t, [1]) == F(-2)

    def test_duplicates_collapse(self, parity5):
        assert perimeter_set(parity5, [0, 0, 1, 2, 2]) == F(5)

    def test_out_of_range(self, parity5):
        with pytest.raises(IndexError):
            perimeter_set(parity5, [0, 9])


class TestPerimeterTuple:
    def test_self_pair(self):
        t = FullUltraTriple(("a",), (F(0),), ((),), (F(7, 3),))
        assert perimeter_tuple(t, (0, 0)) == F(7, 3)

    def test_empty(self, parity5_full):
        assert perimeter_tuple(parity5_full, ()) == F(0)

    def test_distinct_matches_set_with_zero_selfdist(self, parity5):
        from ultragreedy import extend_to_full

        full = extend_to_full(parity5, F(0))
        assert perimeter_tuple(full, (0, 1, 2)) == F(5)

    def test_permutation_invariance(self, parity5_full):
        for perm in permutations((0, 1, 1, 3)):
            assert perimeter_tuple(parity5_full, perm) == perimeter_tuple(parity5_full, (0, 1, 1, 3))

    def test_incremental_identity(self, parity5):
        A = [0, 2, 3]
        u = 4
        lhs = perimeter_set(parity5, A + [u]) - perimeter_set(parity5, A)
        assert lhs == parity5.w(u) + sum(parity5.d(a, u) for a in A)


class TestProjections:
    def test_parity5_examples(self, parity5):
        assert projections(parity5, [0, 2], 1) == {0, 2}
        assert projections(parity5, [0, 2, 3], 1) == {3}

    def test_member_projects_to_itself(self, parity5):
        assert projections(parity5, [1, 2, 3], 2) == {2}

    def test_empty_candidate_set(self, parity5):
        with pytest.raises(ValueError):
            projections(parity5, [], 0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 8))
def test_random_triples_validate(seed, n):
    assert validate(random_ultra_triple(seed, n)).ok


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), n=st.integers(3, 8))
def test_isoceles_property(seed, n):
    t = random_ultra_triple(seed, n)
    for a, b, c in combinations(t.points(), 3):
        sides = sorted((t.d(a, b), t.d(a, c), t.d(b, c)))
        assert sides[1] == sides[2]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 8))
def test_projection_bound(seed, n):
    t = random_ultra_triple(seed, n)
    pts = list(t.points())
    for v in pts:
        for csize in range(1, n):
            C = [x for x in pts if x != v][:csize]
            for u in projections(t, C, v):
                for x in C:
                    if x != u:
                        assert t.d(u, x) <= t.d(v, x)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 8), data=st.data())
def test_incremental_identity_random(seed, n, data):
    t = random_ultra_triple(seed, n)
    u = data.draw(st.integers(0, n - 1))
    rest = [x for x in t.points() if x != u]
    A = data.draw(st.lists(st.sampled_from(rest), unique=True, max_size=len(rest)))
    lhs = perimeter_set(t, A + [u]) - perimeter_set(t, A)
    assert lhs == t.w(u) + sum(t.d(a, u) for a in A)
