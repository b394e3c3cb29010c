import random
import time
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultragreedy import core
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
    shift_distances,
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

    def test_exponent_string_is_refused_at_once(self, returns_within):
        # `Fraction("1e100000000")` builds a 10**8-digit integer: over a minute
        big = "1e100000000"
        builds = [
            lambda: rational(big),
            lambda: UltraTriple(["a", "b"], [big, 0], [[], [1]]),
            lambda: mod_triple([1, 2], 2, big, "1e100000001"),
            lambda: EquivHierarchy([[{0, 1}], [{0}, {1}]], [big]),
        ]
        for build in builds:
            with returns_within(1), pytest.raises(ValueError, match="'1e10+' is not p/q or integer"):
                build()


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


class TestMerges:
    """The single-linkage walk that `validate` and the greedoid's tree build share."""

    def test_each_pair_meets_once_at_the_merge_height(self):
        rng = random.Random(2718)
        triples = [random_ultra_triple(seed, rng.randint(1, 14), rng.randint(1, 4)) for seed in range(60)]
        triples += [padic_triple(range(13), 3), padic_log_triple(range(12), 2), TestValidateScaling.hierarchy()]
        triples += [constant_triple(n) for n in (0, 1, 2, 9)]
        for t in triples:
            assert validate(t).ok
            met = []
            for w, A, B, bad in core._merges(core._rows(t)):
                assert len(A) >= len(B) >= 1 and not set(A) & set(B)
                assert bad == []
                for p in A:
                    for q in B:
                        assert t.d(p, q) == w, (t, p, q)
                        met.append(frozenset((p, q)))
            assert len(met) == len(set(met)) == t.n * (t.n - 1) // 2

    def test_merges_read_the_subdominant_ultrametric(self):
        """Each pair meets once, at u(p, q), and is bad exactly when d(p, q) > u(p, q)."""
        kinds = set()
        for t in _random_tables(600, 1618):
            u, met, found = _subdominant(t), {}, []
            for w, A, B, bad in core._merges(core._rows(t)):
                for p in A:
                    for q in B:
                        assert frozenset((p, q)) not in met
                        met[frozenset((p, q))] = w
                assert all(p < q and {p, q} & set(A) and {p, q} & set(B) for p, q in bad)
                found += bad
            pairs = list(combinations(t.points(), 2))
            assert met == {frozenset((p, q)): u[p][q] for p, q in pairs}
            assert sorted(found) == [(p, q) for p, q in pairs if t.d(p, q) > u[p][q]]
            if validate(t).ok:
                assert found == []
            kinds.add((isinstance(t, FullUltraTriple), validate(t).ok))
        assert kinds == {(False, False), (False, True), (True, False), (True, True)}


def _subdominant(t):
    """u[p][q]: the minimax path weight from p to q over the complete graph of
    distinct points, by Floyd-Warshall in O(n**3); the diagonal is None."""
    pts = t.points()
    u = [[None if p == q else t.d(p, q) for q in pts] for p in pts]
    for k in pts:
        for p in pts:
            for q in pts:
                if k != p and k != q and p != q:
                    u[p][q] = min(u[p][q], max(u[p][k], u[k][q]))
    return u


def _nearest(t):
    """Each point's nearest-neighbour distance, 0 for a lone point."""
    return [min((t.d(p, r) for r in t.points() if r != p), default=F(0)) for p in t.points()]


def _random_tables(count, seed):
    """Seeded tables with n <= 10 and small value ranges, so ties are frequent:
    valid hierarchies, perturbed ones and arbitrary tables in turn.  Every
    other one is full, each self-distance below, at, just above or far above
    its point's nearest-neighbour distance."""
    rng = random.Random(seed)
    for i in range(count):
        n, kind = rng.randint(0, 10), i // 2 % 3
        if kind == 2 or n == 0:
            dist = [[F(rng.randint(-2, 4), rng.choice((1, 2))) for _ in range(a)] for a in range(n)]
            t = UltraTriple(map(str, range(n)), (F(0),) * n, dist)
        else:
            t = _perturbed(rng, random_ultra_triple(rng.randrange(10**6), n), kind * rng.randint(0, 2))
        if i % 2:
            t = _with_dist(t, t.dist, [x + rng.choice((-1, 0, 0, F(1, 2), 3)) for x in _nearest(t)])
        yield t


class TestDiagonalThroughTheWalk:
    """`validate` reads each self-distance at its point's singleton merge and
    must report what the literal scan reports: violations, order, both sides."""

    @staticmethod
    def bases():
        rng = random.Random(4)
        yield from (constant_triple(5), padic_triple(range(9), 2), padic_log_triple(range(7), 3))
        for seed in range(12):
            t = random_ultra_triple(seed, 2 + seed % 7)
            yield from (t, _perturbed(rng, t, 2))

    @pytest.mark.parametrize("lift", [F(0), F(1, 10**6), F(10**6)], ids=["at", "just-above", "far-above"])
    def test_selfdist_from_the_nearest_neighbour(self, lift):
        for t in self.bases():
            full = _with_dist(t, t.dist, [x + lift for x in _nearest(t)])
            report = validate(full)
            assert report == brute_validate(full)
            if lift and validate(t).ok:
                assert {v.points[:2] for v in report.violations} == {(p, p) for p in t.points()}

    def test_tied_nearest_neighbours(self):
        # every point has several nearest neighbours, and the next distance
        # is not below its self-distance: each tie gives its own (p, p, r)
        for t in (constant_triple(6), mod_triple(range(1, 10), 3, 1, 2)):
            full = _with_dist(t, t.dist, [x + 1 for x in _nearest(t)])
            report = validate(full)
            assert report == brute_validate(full)
            ties = sum(t.d(p, r) == x for p, x in enumerate(_nearest(t)) for r in t.points() if r != p)
            assert len(report.violations) == ties > t.n

    def test_both_sides_singletons(self):
        # 0-1 and 2-3 merge first, each of two singletons; then the pairs merge
        t = triple_of([0] * 4, {(0, 1): 1, (2, 3): 2, (0, 2): 5, (1, 2): 5, (0, 3): 5, (1, 3): 5})
        t = _with_dist(t, t.dist, [F(3)] * 4)
        singles = [(A[:], B[:]) for _, A, B, _ in core._merges(core._rows(t)) if len(A) == len(B) == 1]
        assert singles == [([0], [1]), ([2], [3])]
        report = validate(t)
        assert report == brute_validate(t)
        assert [v.points for v in report.violations] == [(0, 0, 1), (1, 1, 0), (2, 2, 3), (3, 3, 2)]
        assert [(v.lhs, v.rhs) for v in report.violations] == [(3, 1), (3, 1), (3, 2), (3, 2)]

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny(self, n):
        for selfdist in product((F(-1), F(0), F(1), F(2)), repeat=n):
            t = FullUltraTriple(map(str, range(n)), (F(0),) * n, [(), (F(1),)][:n], selfdist)
            assert validate(t) == brute_validate(t)
            assert validate(t).ok == (n < 2 or max(selfdist) <= 1)

    @pytest.mark.parametrize("R", [-1, 0, 1])
    def test_shifted_distances(self, R):
        for t in self.bases():
            low = min(_nearest(t))
            shifted = shift_distances(_with_dist(t, t.dist, [low] * t.n), R)
            assert validate(shifted) == brute_validate(shifted)

    def test_random_sweep(self):
        invalid, full = 0, 0
        for t in _random_tables(2400, 577):
            report = validate(t)
            assert report == brute_validate(t), t
            invalid += not report.ok
            full += isinstance(t, FullUltraTriple)
        assert full == 1200 and 400 <= invalid <= 2000


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
