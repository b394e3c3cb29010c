import random
import time
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultragreedy import (
    EquivHierarchy,
    FullUltraTriple,
    UltraTriple,
    ValidationReport,
    Violation,
    brute_validate,
    constant_triple,
    eqrel_triple,
    mod_triple,
    padic_log_triple,
    padic_triple,
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


def _with_dist(t, dist, selfdist=None):
    if selfdist is None:
        return UltraTriple(t.labels, t.weights, tuple(map(tuple, dist)))
    return FullUltraTriple(t.labels, t.weights, tuple(map(tuple, dist)), tuple(selfdist))


def _perturbed(rng, t, moves):
    """t with `moves` random pair distances shifted by a small amount."""
    dist = [list(row) for row in t.dist]
    for _ in range(moves if t.n >= 2 else 0):
        a = rng.randrange(1, t.n)
        dist[a][rng.randrange(a)] += F(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2)))
    return _with_dist(t, dist)


def _validate_sweep():
    """Seeded triples, valid and invalid, plain and full, for the scan check."""
    rng = random.Random(7)
    cases = [UltraTriple((), (), ())]
    for seed in range(240):
        n = 1 + seed % 9
        cases.append(_perturbed(rng, random_ultra_triple(seed, n), rng.randint(0, 3)))
    for n in (2, 5, 8):
        cases += [constant_triple(n), _perturbed(rng, constant_triple(n), 2)]
    for n in (3, 6, 9):
        t = padic_log_triple(range(n), 2)  # negative distances
        cases += [t, _perturbed(rng, t, 2)]
    # full triples: self-distances just below, at and above the smallest distance
    for base in cases[1:80]:
        low = min((x for row in base.dist for x in row), default=F(0))
        for shift in (F(-1, 4), F(0), F(1, 4)):
            cases.append(_with_dist(base, base.dist, [low + shift] * base.n))
        cases.append(_with_dist(base, base.dist, [low + rng.choice((-1, 0, 1)) for _ in range(base.n)]))
    # three disjoint pairs near n = 30, raised above everything or to a middling distance
    for seed in range(6):
        t = padic_triple(rng.sample(range(10**4), 28 + seed % 3), 2)
        dists = sorted({x for row in t.dist for x in row})
        dist = [list(row) for row in t.dist]
        chosen = rng.sample(range(t.n), 6)
        for p, q in zip(chosen[::2], chosen[1::2]):
            dist[max(p, q)][min(p, q)] = dists[-1] + 1 if seed % 2 else dists[len(dists) // 2]
        cases.append(_with_dist(t, dist))
    return cases


def test_validate_matches_brute_scan():
    invalid = selfdist_violating = 0
    for t in _validate_sweep():
        report = validate(t)
        assert report == brute_validate(t), t
        invalid += not report.ok
        selfdist_violating += any(v.points[0] == v.points[1] for v in report.violations)
    assert invalid >= 100 and selfdist_violating >= 50


class TestValidateScaling:
    """300 points: the O(n**3) scan would need minutes."""

    @staticmethod
    def hierarchy():
        n = 300
        levels = [[range(n)]] + [[range(i, min(i + size, n)) for i in range(0, n, size)] for size in (60, 12, 3, 1)]
        return eqrel_triple(EquivHierarchy(levels, (F(9, 2), 3, F(5, 3), 1)))

    def test_valid_hierarchy(self):
        t = self.hierarchy()
        start = time.perf_counter()
        report = validate(t)
        assert time.perf_counter() - start < 3.0
        assert report.ok

    def test_planted_pairs(self):
        t = self.hierarchy()
        planted = [(0, 150), (1, 299), (7, 8)]
        dist = [list(row) for row in t.dist]
        for p, q in planted:
            dist[q][p] = F(5)
        bad = _with_dist(t, dist)
        start = time.perf_counter()
        report = validate(bad)
        assert time.perf_counter() - start < 3.0
        want = {(p, q, r) for p, q in planted for r in range(t.n) if r not in (p, q)}
        assert len(report.violations) == 3 * 298
        assert {v.points for v in report.violations} == want
        assert all(v.lhs == 5 and v.rhs < 5 for v in report.violations)


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
