import random
from fractions import Fraction
from itertools import chain, combinations, permutations
from math import comb
from pathlib import Path

import pytest

from ultragreedy import (
    AxiomReport,
    FullUltraTriple,
    SetSystem,
    UltraTriple,
    all_greedy_permutations,
    bhargava_greedoid,
    brute_max_perimeter,
    check_axiom_i,
    check_axiom_ii,
    check_axiom_iii,
    check_axiom_iv,
    check_matroid_bases,
    constant_triple,
    exchange_element,
    extend_to_full,
    greedy_permutation,
    level_sets,
    mask_from_points,
    padic_log_triple,
    padic_triple,
    perimeter_set,
    points_from_mask,
    random_ultra_triple,
    strong_exchange_pair,
    validate,
)
from ultragreedy import greedy as greedy_module
from ultragreedy.cli import read_instance, read_set_system

F = Fraction
GOLDEN = Path(__file__).parent / "golden"


def system(ground, *families):
    return SetSystem.from_point_sets(ground, families)


@pytest.fixture(scope="module")
def parity5_system(parity5):
    return bhargava_greedoid(parity5)


@pytest.fixture(scope="module")
def lower_ideals():
    # ideals of the poset a<b, c<d on points 0..3: b needs a, d needs c
    fams = []
    for left in ((), (0,), (0, 1)):
        for right in ((), (2,), (2, 3)):
            fams.append(left + right)
    return system(4, *fams)


class TestMasks:
    def test_roundtrip(self):
        assert points_from_mask(mask_from_points([0, 3, 5])) == (0, 3, 5)
        assert mask_from_points(()) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            mask_from_points([-1])

    def test_wide_sparse_mask(self):
        # one step per member point: a far point must not cost a pass per bit
        assert points_from_mask((1 << 10**7) | 5) == (0, 2, 10**7)
        s = SetSystem.from_point_sets(10**7 + 1, [(), (10**7,)])
        assert check_axiom_iv(s).holds and check_matroid_bases(level_sets(s, 1)).holds


class TestSetSystem:
    def test_dedup_and_membership(self):
        s = system(3, [0, 1], [1, 0], [])
        assert len(s) == 2
        assert mask_from_points([0, 1]) in s

    def test_oversized_member_rejected(self):
        with pytest.raises(ValueError):
            system(2, [0, 2])

    def test_huge_value_named_by_bit_length(self):
        with pytest.raises(ValueError):
            str(10**5000)  # past the int/str digit limit in force
        with pytest.raises(ValueError, match="^point <16610-bit integer> does not fit in ground size 3$"):
            system(3, [10**5000])
        with pytest.raises(ValueError, match="^mask <20001-bit integer> does not fit in ground size 3$"):
            SetSystem(3, frozenset({1 << 20000}))

    def test_members_sorted_by_size_then_mask(self):
        s = system(3, [2], [0, 1], [], [0])
        assert s.member_points() == [(), (0,), (2,), (0, 1)]


def _named_system(name):
    if name == "empty":
        return SetSystem(3, frozenset())
    if name.endswith(".system.json"):
        return read_set_system(str(GOLDEN / name), cap=16)
    return bhargava_greedoid(read_instance(str(GOLDEN / name)))


class TestLevels:
    def test_ascending_sizes_then_numeric(self):
        s = system(4, [3], [0, 1], [], [2], [0], [1, 2, 3], [0, 2])
        levels = s.levels()
        assert list(levels) == [0, 1, 2, 3]
        assert levels == {0: [0], 1: [0b1, 0b100, 0b1000], 2: [0b11, 0b101], 3: [0b1110]}

    @pytest.mark.parametrize("name", ["parity5.json", "padic6.json", "ties6.json", "planted5.system.json", "empty"])
    def test_members_and_level_sets_agree(self, name):
        s = _named_system(name)
        levels = s.levels()
        assert all(levels.values())  # only the sizes that occur
        assert s.members() == [m for masks in levels.values() for m in masks]
        assert s.members() == sorted(s.sets, key=lambda m: (m.bit_count(), m))
        for k in range(s.ground + 2):
            assert level_sets(s, k).members() == levels.get(k, [])

    def test_mixed_cardinalities_named_in_order(self):
        with pytest.raises(ValueError, match=r"^members have mixed cardinalities \[0, 1, 3\]$"):
            check_matroid_bases(system(3, (0, 1, 2), (1,), ()))


class TestAxiomReport:
    def test_failure_requires_witness(self):
        with pytest.raises(ValueError):
            AxiomReport("i", False, None)

    def test_unknown_axiom_rejected(self):
        with pytest.raises(ValueError):
            AxiomReport("v", True, None)


def _tree_sweep():
    """Valid triples of every shape the tree build meets: random hierarchies
    at depths 1-4, p-adic and p-adic-log tables, constant tables with and
    without ties in the weights, and full triples."""
    rng = random.Random(4099)
    plain = [random_ultra_triple(seed, rng.randint(1, 12), rng.randint(1, 4)) for seed in range(200)]
    for n in (11, 12):
        for p in (2, 3, 5):
            plain.append(padic_triple(range(n), p, [F(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(n)]))
            plain.append(padic_log_triple(range(n), p))
    for n in range(10):
        plain += [constant_triple(n), constant_triple(n, [rng.randint(0, 2) for _ in range(n)])]
    full = [extend_to_full(t, min(chain.from_iterable(t.dist), default=0)) for t in plain[:60]]
    return plain + full


class TestBhargavaGreedoid:
    def test_parity5_membership(self, parity5, parity5_system):
        s = parity5_system
        assert mask_from_points([0, 1, 2]) in s  # {1,2,3}
        assert mask_from_points(range(5)) in s
        assert mask_from_points([0, 1, 2, 4]) not in s  # {1,2,3,5}

    def test_padic3_membership(self, padic3_example):
        s = bhargava_greedoid(padic3_example)
        ix = {lab: i for i, lab in enumerate(padic3_example.labels)}

        def mask(*vals):
            return mask_from_points([ix[str(v)] for v in vals])

        assert mask(0, 1, 2) in s
        assert mask(0, 1, 2, 3) in s
        assert mask(0, 1, 2, 6) in s
        assert mask(0, 1, 2, 4, 5, 6, 12) in s
        assert mask(0, 1, 2, 3, 6) not in s
        assert mask(0, 1, 2, 3, 4, 5, 12) not in s

    def test_empty_and_ground_always_present(self):
        for seed in range(4):
            t = random_ultra_triple(seed, 5)
            s = bhargava_greedoid(t)
            assert 0 in s
            assert mask_from_points(t.points()) in s

    def test_cap(self, parity5):
        with pytest.raises(ValueError):
            bhargava_greedoid(parity5, cap=4)

    def test_levels_match_brute_argmax(self, parity5):
        # triples ultrametric off the diagonal take the tree build, the rest
        # the oracle; the tree build is wrong on most of the rest, so every
        # level is compared with the brute-force argmax on both sides
        rng = random.Random(1905)
        valid = [parity5] + [random_ultra_triple(seed, rng.randint(1, 9)) for seed in range(12)]
        valid += [padic_triple(range(n), p, [F(rng.randint(1, 4), rng.randint(1, 2)) for _ in range(n)])
                  for n, p in ((6, 2), (8, 3), (10, 2))]
        valid += [constant_triple(n, [rng.randint(0, 1) for _ in range(n)]) for n in (5, 7, 9)]
        valid += [padic_log_triple(range(n), p) for n, p in ((7, 2), (10, 3))]
        valid += [t for t in _tree_sweep() if t.n <= 10]
        assert all(validate(t).ok for t in valid)
        invalid = []
        while len(invalid) < 24:
            n = rng.randint(3, 7)
            dist = tuple(tuple(F(rng.randint(0, 3)) for _ in range(i)) for i in range(n))
            weights = tuple(F(rng.randint(-1, 2)) for _ in range(n))
            t = UltraTriple(tuple(map(str, range(n))), weights, dist)
            if not validate(t).ok:
                invalid.append(t)
        # full triples failing only at one oversized self-distance, (p, p, r)
        # for every r: invalid, but the tree build's, as no perimeter reads it
        selfdist_only = []
        with_pairs = [t for t in valid if t.n > 1]
        for t in with_pairs[1:13] + with_pairs[-6:]:
            low, high = min(chain.from_iterable(t.dist)), max(chain.from_iterable(t.dist))
            selfdist = [low] * t.n
            selfdist[rng.randrange(t.n)] = high + 1
            selfdist_only.append(FullUltraTriple(t.labels, t.weights, t.dist, selfdist))
        for t in selfdist_only:
            violations = validate(t).violations
            assert violations and all(p == q for (p, q, _), _, _ in violations)
        for t in valid + invalid + selfdist_only:
            s = bhargava_greedoid(t)
            assert s.ground == t.n
            for k in range(t.n + 1):
                want = {mask_from_points(a) for a in brute_max_perimeter(t, t.points(), k).argmax}
                assert set(level_sets(s, k).sets) == want

    def test_beyond_brute_reach(self):
        # 2**16 subsets: the level sizes (7,586 members in all) are the
        # brute-force counts, and each level's perimeter is the greedy prefix's
        t = padic_triple(range(16), 2)
        s = bhargava_greedoid(t)
        sizes = [1, 16, 64, 256, 256, 1024, 1024, 1024, 256, 1024, 1024, 1024, 256, 256, 64, 16, 1]
        assert [len(level_sets(s, k)) for k in range(17)] == sizes and len(s) == 7586
        perimeters = (F(0),) + greedy_permutation(t, t.points(), 16).prefix_perimeters()
        for k, per in enumerate(perimeters):
            members = level_sets(s, k).members()
            assert perimeter_set(t, points_from_mask(members[0])) == per
            assert perimeter_set(t, points_from_mask(members[-1])) == per


class TestTreeBuild:
    """The cluster-tree build of `bhargava_greedoid` against the greedy set
    DAG, which shares none of its code (`test_levels_match_brute_argmax`
    holds it to the brute-force argmax on the same sweep at n <= 10)."""

    def test_levels_are_the_greedy_set_dag(self):
        for t in _tree_sweep():
            assert validate(t).ok
            levels, _ = greedy_module._set_dag(t, t.points(), t.n)
            # the DAG leaves level n, the whole ground set, implicit
            want = set(chain(*levels)) | {(1 << t.n) - 1}
            assert bhargava_greedoid(t).sets == want, t

    def test_every_subset_of_a_constant_triple(self):
        s = bhargava_greedoid(constant_triple(16))
        assert [len(level_sets(s, k)) for k in range(17)] == [comb(16, k) for k in range(17)]
        assert len(s) == 65536


class TestAxiomCheckers:
    def test_axiom_i(self, parity5_system):
        assert check_axiom_i(system(2, ())).holds
        report = check_axiom_i(SetSystem(2, frozenset()))
        assert not report.holds and report.witness == {"missing": ()}
        assert check_axiom_i(parity5_system).holds

    def test_axiom_ii(self, parity5_system):
        assert check_axiom_ii(system(2, (), (0,), (0, 1))).holds
        report = check_axiom_ii(system(2, (), (0, 1)))
        assert not report.holds and report.witness == {"B": (0, 1)}
        assert check_axiom_ii(parity5_system).holds

    def test_axiom_iii(self, parity5_system, lower_ideals):
        assert check_axiom_iii(parity5_system).holds
        assert check_axiom_iii(lower_ideals).holds
        assert check_axiom_iii(system(2, (), (0,), (1,))).holds
        report = check_axiom_iii(system(3, (), (0,), (1, 2)))
        assert not report.holds
        assert report.witness == {"A": (0,), "B": (1, 2)}

    def test_axiom_iv(self, parity5_system, lower_ideals):
        assert check_axiom_iv(parity5_system).holds
        free = system(3, *[tuple(points_from_mask(m)) for m in range(8)])
        assert check_axiom_iv(free).holds
        report = check_axiom_iv(lower_ideals)
        assert not report.holds
        A, B = report.witness["A"], report.witness["B"]
        # witness re-check: no x in B\A satisfies both memberships
        for x in set(B) - set(A):
            ok_up = mask_from_points(set(A) | {x}) in lower_ideals
            ok_down = mask_from_points(set(B) - {x}) in lower_ideals
            assert not (ok_up and ok_down)

    def test_parity5_witness_pair_from_text(self, parity5, parity5_system):
        A = (0, 1, 4)  # {1,2,5}
        B = (1, 2, 3, 4)  # {2,3,4,5}
        assert mask_from_points(A) in parity5_system
        assert mask_from_points(B) in parity5_system
        four, three = 3, 2
        assert mask_from_points(set(A) | {four}) in parity5_system
        assert mask_from_points(set(B) - {four}) in parity5_system
        assert mask_from_points(set(A) | {three}) not in parity5_system


class TestMatroid:
    def test_level_zero_and_overflow(self, parity5_system):
        assert level_sets(parity5_system, 0).member_points() == [()]
        assert len(level_sets(parity5_system, 9)) == 0

    def test_two_disjoint_pairs_fail(self):
        bases = system(4, (0, 1), (2, 3))
        report = check_matroid_bases(bases)
        assert not report.holds
        b1 = report.witness["B1"]
        x = report.witness["x"]
        b2 = report.witness["B2"]
        for y in set(b2) - set(b1):
            assert mask_from_points((set(b1) - {x}) | {y}) not in bases

    def test_single_basis_holds(self):
        assert check_matroid_bases(system(4, (0, 2))).holds

    def test_empty_system_fails(self):
        report = check_matroid_bases(SetSystem(3, frozenset()))
        assert not report.holds and report.witness == {"empty": True}

    def test_mixed_cardinalities_rejected(self):
        with pytest.raises(ValueError):
            check_matroid_bases(system(3, (0,), (0, 1)))

    def test_bhargava_levels_are_matroids(self, parity5_system):
        for k in range(6):
            assert check_matroid_bases(level_sets(parity5_system, k)).holds
        for seed in range(6):
            t = random_ultra_triple(100 + seed, 6)
            s = bhargava_greedoid(t)
            for k in range(7):
                assert check_matroid_bases(level_sets(s, k)).holds


class TestExchangeElement:
    def test_empty_a(self):
        t = random_ultra_triple(0, 4)
        assert exchange_element(t, [], [2]) == 2

    def test_parity5_pair(self, parity5):
        u = exchange_element(parity5, [0, 1, 4], [1, 2, 3, 4])
        assert parity5.labels[u] == "4"

    def test_inequality_holds_on_random_pairs(self):
        import random

        rng = random.Random(5)
        for trial in range(60):
            t = random_ultra_triple(trial, rng.randint(2, 7))
            pts = list(t.points())
            a_size = rng.randint(0, t.n - 1)
            A = set(rng.sample(pts, a_size))
            B = set(rng.sample(pts, a_size + 1))
            u = exchange_element(t, A, B)
            assert u in B - A
            lhs = perimeter_set(t, B - {u}) + perimeter_set(t, A | {u})
            assert lhs >= perimeter_set(t, A) + perimeter_set(t, B)

    def test_size_mismatch_rejected(self, parity5):
        with pytest.raises(ValueError):
            exchange_element(parity5, [0], [1])


class TestStrongExchangePair:
    def test_parity5_pair(self, parity5, parity5_system):
        x = strong_exchange_pair(parity5, parity5_system, [0, 1, 4], [1, 2, 3, 4])
        assert parity5.labels[x] == "4"

    def test_empty_to_best_singleton(self):
        t = random_ultra_triple(42, 5)
        s = bhargava_greedoid(t)
        best = max(t.points(), key=lambda a: (t.w(a), -a))
        assert strong_exchange_pair(t, s, [], [best]) == best

    def test_witness_memberships(self):
        for seed in (9, 10):
            t = random_ultra_triple(seed, 6)
            s = bhargava_greedoid(t)
            levels = [set(level_sets(s, k).sets) for k in range(7)]
            for k in range(6):
                for am in levels[k]:
                    for bm in levels[k + 1]:
                        A = points_from_mask(am)
                        B = points_from_mask(bm)
                        x = strong_exchange_pair(t, s, A, B)
                        assert mask_from_points(set(A) | {x}) in s
                        assert mask_from_points(set(B) - {x}) in s

    def test_not_strong_reported(self, lower_ideals):
        t = constant_triple(4)
        with pytest.raises(LookupError):
            strong_exchange_pair(t, lower_ideals, [0], [2, 3])

    def test_requires_membership(self, parity5, parity5_system):
        with pytest.raises(ValueError):
            strong_exchange_pair(parity5, parity5_system, [0, 1, 4], [1, 2, 4, 0])


def test_weak_version_of_base_exchange():
    # exchange also holds across levels of different sizes (|B1| <= |B2|)
    for seed in (17, 23):
        t = random_ultra_triple(seed, 5)
        s = bhargava_greedoid(t)
        members = [set(points_from_mask(m)) for m in s.sets]
        for B1 in members:
            for B2 in members:
                if len(B1) > len(B2):
                    continue
                for x in B1 - B2:
                    assert any(
                        mask_from_points((B1 - {x}) | {y}) in s for y in B2 - B1
                    )


def test_hereditary_language_is_greedy_permutations(parity5):
    instances = [parity5, random_ultra_triple(31, 5), random_ultra_triple(33, 4)]
    for t in instances:
        s = bhargava_greedoid(t)
        for m in range(min(t.n, 3) + 1):
            greedy = set(all_greedy_permutations(t, t.points(), m))
            feasible_words = {
                seq
                for seq in permutations(t.points(), m)
                if all(mask_from_points(seq[:k]) in s for k in range(m + 1))
            }
            assert greedy == feasible_words


def _literal_reports(ground, families):
    """Every axiom report straight from the definitions, on frozensets of points.

    Members are visited by size, then by their largest points first (the
    bitmask order the checkers promise), so the first failure found is the
    witness the checkers must report.
    """
    S = {frozenset(f) for f in families}
    order = sorted(S, key=lambda X: (len(X), sorted(X, reverse=True)))

    def pts(X):
        return tuple(sorted(X))

    def first(failures, axiom):
        return next(iter(failures), AxiomReport(axiom, True))

    reports = [AxiomReport("i", True) if frozenset() in S else AxiomReport("i", False, {"missing": ()})]
    reports.append(first(
        (AxiomReport("ii", False, {"B": pts(B)}) for B in order if B and not any(B - {b} in S for b in B)),
        "ii",
    ))
    pairs = [(A, B) for B in order for A in order if len(B) == len(A) + 1]
    reports.append(first(
        (AxiomReport("iii", False, {"A": pts(A), "B": pts(B)})
         for A, B in pairs if not any(A | {b} in S for b in B - A)),
        "iii",
    ))
    reports.append(first(
        (AxiomReport("iv", False, {"A": pts(A), "B": pts(B)})
         for A, B in pairs if not any(A | {x} in S and B - {x} in S for x in B - A)),
        "iv",
    ))
    levels = []
    for k in range(ground + 1):
        bases = [X for X in order if len(X) == k]
        if not bases:
            levels.append(AxiomReport("matroid-exchange", False, {"empty": True}))
            continue
        levels.append(first(
            (AxiomReport("matroid-exchange", False, {"B1": pts(B1), "B2": pts(B2), "x": x})
             for B1 in bases for B2 in bases for x in sorted(B1 - B2)
             if not any((B1 - {x}) | {y} in S for y in B2 - B1)),
            "matroid-exchange",
        ))
    return reports, levels


def _random_families(rng, ground):
    """A family of one of three shapes: unstructured, a truncated Boolean
    lattice with a few sets flipped, or a greedoid of a random triple with a
    few sets flipped (flips break axioms near the top, where witnesses are
    found last)."""
    everything = [c for k in range(ground + 1) for c in combinations(range(ground), k)]
    shape = rng.randrange(3)
    if shape == 0:
        return [c for c in everything if rng.random() < rng.random()]
    if shape == 1:
        rank = rng.randint(0, ground)
        fams = {c for c in everything if len(c) <= rank}
    else:
        t = random_ultra_triple(rng.randrange(10**6), max(ground, 1))
        fams = set(bhargava_greedoid(t).member_points())
        ground = max(ground, 1)
    for _ in range(rng.randint(0, 3)):
        fams ^= {rng.choice(everything)}
    return sorted(fams)


def test_checkers_match_literal_definitions():
    rng = random.Random(20190)
    failed = {"i": 0, "ii": 0, "iii": 0, "iv": 0, "matroid-exchange": 0}
    for _ in range(400):
        ground = rng.randint(0, 6)
        families = _random_families(rng, ground)
        ground = max([ground] + [max(f) + 1 for f in families if f])
        s = SetSystem.from_point_sets(ground, families)
        reports, levels = _literal_reports(ground, families)
        assert check_axiom_i(s) == reports[0]
        assert check_axiom_ii(s) == reports[1]
        assert check_axiom_iii(s) == reports[2]
        assert check_axiom_iv(s) == reports[3]
        for k, want in enumerate(levels):
            assert check_matroid_bases(level_sets(s, k)) == want
        for r in reports + levels:
            failed[r.axiom] += not r.holds
    # the sweep reaches failures of every axiom, not only passes
    assert all(failed.values()), failed
