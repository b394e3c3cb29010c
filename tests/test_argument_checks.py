"""Argument checks, one fault per case, and how often each answer runs its engine.

The table names each refusal by its call, its exception type and a fragment
of its message.  A CLI case must raise from its handler and make `main` exit
2 with empty stdout and exactly one `error:` line on stderr.

The spy tests count calls to module globals: each answer is one run of the
engine that owns it, on inputs checked once.
"""

from __future__ import annotations

import re
from typing import NamedTuple

import pytest

from ultragreedy import (
    EquivHierarchy,
    SetSystem,
    WeightedTree,
    all_greedy_permutations,
    all_greedy_traces,
    bhargava_greedoid,
    brute_max_tuple_perimeter,
    check_equivalence,
    clone_triple,
    constant_triple,
    count_greedy_permutations,
    extend_greedy,
    extend_to_full,
    greedy_permutation,
    greedy_subsequence,
    is_greedy_subsequence,
    mask_from_points,
    mod_triple,
    nu,
    nu_bar,
    padic_triple,
    pm_ordering,
    points_from_mask,
    rseq_triple,
    shift_distances,
    strong_exchange_pair,
)
from ultragreedy import bhargava, greedoid, greedy
from ultragreedy.cli import InputError, build_parser, main

PLAIN = mod_triple([1, 2, 3, 4, 5], 2, 1, 2)  # parity: same parity at 1, else 2
FULL = extend_to_full(PLAIN, 1)
ALL = range(5)
PAIR = greedy_permutation(PLAIN, ALL, 2)
SUBSEQ = greedy_subsequence(FULL, ALL, 2)


class Cli(NamedTuple):
    """argv for `main`; a "{file}" entry names a file holding `file`, or
    holding the parity instance when `file` is "parity"."""

    argv: tuple[str, ...]
    file: str | None = None


def cli(*argv: str, file: str | None = None) -> Cli:
    return Cli(argv, file)


def _system_pair():
    """The parity greedoid, the empty set and a two-point member: |B| = |A| + 2."""
    s = bhargava_greedoid(PLAIN)
    return s, (), next(points_from_mask(B) for B in s.sets if B.bit_count() == 2)


CASES = [
    # the command line
    pytest.param(cli("generate", "--family", "constant"), InputError, "--family constant needs --n", id="generate-constant"),
    pytest.param(
        cli("generate", "--family", "constant", "--n", "2001"),
        ValueError, "n=2001 must be at most 2000", id="generate-constant-n-cap",
    ),
    pytest.param(
        cli("generate", "--family", "padic", "--p", "2", "--points", ",".join(map(str, range(2001)))),
        ValueError, "n=2001 must be at most 2000", id="generate-padic-n-cap",
    ),
    pytest.param(
        cli("generate", "--family", "padic", "--points", "0,1"),
        InputError, "--family padic needs --points and --p", id="generate-padic",
    ),
    pytest.param(
        cli("generate", "--family", "mod", "--points", "0,1", "--m", "2", "--eps", "1"),
        InputError, "--family mod needs --points, --m, --eps, --alpha", id="generate-mod",
    ),
    pytest.param(
        cli("generate", "--family", "padic-log", "--p", "2"),
        InputError, "--family padic-log needs --points and --p", id="generate-padic-log",
    ),
    pytest.param(
        cli("generate", "--family", "rseq", "--points", "0,1", "--r", "1,2"),
        InputError, "--family rseq needs --points, --r, --c", id="generate-rseq",
    ),
    pytest.param(
        cli("generate", "--family", "rseq", "--points=0,2,-1", "--r", "2,4", "--c", "1,1"),
        ValueError, "no r entry divides -1; the valuation is undefined", id="generate-rseq-no-divisor",
    ),
    pytest.param(
        cli("generate", "--family", "rseq", "--points", "0,8,1", "--r", "2,4,8", "--c", "2,1"),
        ValueError, "c has 2 entries but the valuation reaches 2", id="generate-rseq-short-c",
    ),
    pytest.param(cli("generate", "--family", "random"), InputError, "--family random needs --n", id="generate-random"),
    pytest.param(
        cli("generate", "--family", "random", "--n", "7", "--weights", "1,2"),
        ValueError, "expected 7 weights, got 2", id="generate-random-weight-count",
    ),
    pytest.param(
        cli("generate", "--family", "random", "--n", "0"),
        ValueError, "n=0 must be at least 1", id="generate-random-n-zero",
    ),
    pytest.param(
        cli("generate", "--family", "random", "--n", "2001"),
        ValueError, "n=2001 must be at most 2000", id="generate-random-n-hold",
    ),
    pytest.param(
        cli("generate", "--family", "random", "--n", "2", "--depth", "0"),
        ValueError, "depth must be at least 1", id="generate-random-depth-zero",
    ),
    pytest.param(
        cli("generate", "--family", "random", "--n", "2", "--depth", "1000001"),
        ValueError, "depth=1000001 must be at most 1000000", id="generate-random-depth-cap",
    ),
    pytest.param(
        cli("tree", "{file}", file="root\nr a 1\n"), InputError, ":1: root line needs exactly one vertex", id="tree-root-line",
    ),
    pytest.param(
        cli("tree", "{file}", file="root r\nr a 1\nleaves a r\n"),
        InputError, ":3: leaves line needs a comma-separated list", id="tree-leaves-line",
    ),
    pytest.param(
        cli("tree", "{file}", file="root r\nr a 1\na r 1\n"), InputError, ": edge (a, r) closes a cycle", id="tree-cycle",
    ),
    pytest.param(
        cli("tree", "{file}", file="root r\n" + "".join(f"r l{i} 1\n" for i in range(2001))),
        ValueError, "n=2001 must be at most 2000", id="tree-n-cap",
    ),
    pytest.param(cli("tree", "missing-tree.txt"), InputError, "cannot read missing-tree.txt", id="tree-missing-file"),
    pytest.param(
        cli("pordering", "--p", "2", "--points", ","), InputError, "--points must name at least one integer", id="points-empty",
    ),
    pytest.param(
        cli("pordering", "--p", "2", "--points", "1,x"),
        InputError, "--points must be comma-separated integers, got '1,x'", id="points-not-integers",
    ),
    pytest.param(
        cli("greedy", "{file}", "--ties", "all", "--m", "6", file="parity"),
        ValueError, "m=6 must be between 0 and |C|=5", id="greedy-ties-m",
    ),
    pytest.param(cli("nu", "{file}", "--k", "6", file="parity"), ValueError, "k=6 out of range 1..5", id="nu-bar-k"),
    # constructions
    pytest.param(lambda: constant_triple(-1), ValueError, "n must be nonnegative", id="constant-negative-n"),
    pytest.param(lambda: constant_triple(10**12), ValueError, "n=1000000000000 must be at most 2000", id="constant-n-cap"),
    pytest.param(lambda: rseq_triple([0, 1], [], [1]), ValueError, "r must be nonempty", id="rseq-empty-r"),
    pytest.param(lambda: rseq_triple([0, 1], [1, 2.0], [1, 0]), TypeError, "r entries must be integers, got 2.0", id="rseq-float-r"),
    pytest.param(
        lambda: rseq_triple([0, 2, -1], [2, 4], [1, 1]),
        ValueError, "no r entry divides -1; the valuation is undefined", id="rseq-no-divisor",
    ),
    pytest.param(
        # pair (1, 0) has valuation 2 and comes before (2, 0), which no r entry divides
        lambda: rseq_triple([0, 8, 1], [2, 4, 8], [2, 1]),
        ValueError, "c has 2 entries but the valuation reaches 2", id="rseq-short-c-first",
    ),
    pytest.param(
        lambda: rseq_triple([0, 1, 8], [2, 4, 8], [2, 1]),
        ValueError, "no r entry divides 1; the valuation is undefined", id="rseq-no-divisor-first",
    ),
    pytest.param(
        lambda: clone_triple(extend_to_full(constant_triple(3), 1), 667),
        ValueError, "n=2001 must be at most 2000", id="clone-n-hold",
    ),
    pytest.param(lambda: padic_triple([0, True], 2), TypeError, "points must be integers, got True", id="padic-bool-point"),
    # the residue families hold their points before the chain walk reads them
    pytest.param(lambda: padic_triple(range(10**6), 2), ValueError, "n=1000000 must be at most 2000", id="padic-hold-before-walk"),
    pytest.param(lambda: rseq_triple(range(2001), [2], [1]), ValueError, "n=2001 must be at most 2000", id="rseq-hold-before-pairs"),
    pytest.param(lambda: shift_distances(PLAIN, 1), TypeError, "shifted distances need a full triple", id="shift-plain"),
    pytest.param(lambda: clone_triple(PLAIN, 2), TypeError, "clones need a full triple", id="clone-plain"),
    pytest.param(lambda: EquivHierarchy([], []), ValueError, "need at least the trivial level", id="hierarchy-no-levels"),
    pytest.param(
        lambda: EquivHierarchy([[{1, 2}], [{1}, {2}]], [1]),
        ValueError, "level 0 must cover points 0..n-1", id="hierarchy-ground-not-0-to-n",
    ),
    pytest.param(
        lambda: EquivHierarchy([[{0, 1}], [{0, 1}, {1}], [{0}, {1}]], [1, 1]),
        ValueError, "levels must be partitions", id="hierarchy-overlapping-blocks",
    ),
    pytest.param(
        lambda: EquivHierarchy([[{0, 1}], [set(), {0}, {1}]], [1]),
        ValueError, "levels must be partitions: disjoint nonempty blocks", id="eqrel-empty-block",
    ),
    pytest.param(
        lambda: EquivHierarchy([[set(), {0, 1}], [{0}, {1}]], [1]),
        ValueError, "levels must be partitions: disjoint nonempty blocks", id="eqrel-empty-block-level-0",
    ),
    pytest.param(
        lambda: EquivHierarchy([[{0, 1, 2}], [{0}, {1}]], [1]),
        ValueError, "every level must partition the same ground set", id="hierarchy-level-loses-a-point",
    ),
    pytest.param(
        lambda: EquivHierarchy([[{0, 1, 2}], [{0, 1}, {2}], [{0}, {1}, {2}]], [2]),
        ValueError, "c needs at least 2 entries, got 1", id="hierarchy-short-c",
    ),
    pytest.param(
        lambda: WeightedTree(["r", "r"], [], "r"), ValueError, "vertices must be distinct", id="tree-repeated-vertex",
    ),
    pytest.param(
        lambda: WeightedTree(["r", "a"], [("r", "b", 1)], "r"),
        ValueError, "edge (r, b) references an unknown vertex", id="tree-unknown-vertex",
    ),
    pytest.param(
        lambda: WeightedTree(["r", "a", "b"], [("r", "a", 1), ("r", "b", 1)], "r", ["a", "a"]),
        ValueError, "leafset entries must be distinct", id="tree-repeated-leaf",
    ),
    pytest.param(
        lambda: WeightedTree(["r", "a"], [("r", "a", 1)], "r", ["a", "z"]),
        ValueError, "leafset must be a subset of the vertices", id="tree-leaf-not-a-vertex",
    ),
    # greedy
    pytest.param(
        lambda: extend_greedy(FULL, ALL, SUBSEQ, 3), ValueError, "only permutation traces can be extended here", id="extend-subsequence",
    ),
    pytest.param(lambda: extend_greedy(PLAIN, ALL, PAIR, 1), ValueError, "need |prefix|=2 <= m=1 <= |C|=5", id="extend-m-below-prefix"),
    pytest.param(lambda: extend_greedy(PLAIN, ALL, PAIR, 6), ValueError, "need |prefix|=2 <= m=6 <= |C|=5", id="extend-m-above-C"),
    pytest.param(lambda: extend_greedy(PLAIN, [0, 7], PAIR, 2), IndexError, "point 7 out of range for 5 points", id="extend-point-outside"),
    pytest.param(lambda: greedy_subsequence(FULL, ALL, -1), ValueError, "m must be nonnegative", id="subsequence-negative-m"),
    pytest.param(lambda: greedy_subsequence(FULL, [], 1), ValueError, "C must be nonempty", id="subsequence-empty-C"),
    pytest.param(
        lambda: is_greedy_subsequence(PLAIN, ALL, [0]), TypeError, "greedy subsequences need a full triple", id="is-subsequence-plain",
    ),
    pytest.param(lambda: nu(PLAIN, ALL, 1), TypeError, "greedy subsequences need a full triple", id="nu-plain"),
    pytest.param(lambda: nu(FULL, ALL, 0), ValueError, "k=0 must be at least 1", id="nu-k-zero"),
    pytest.param(lambda: nu(FULL, [], 1), ValueError, "C must be nonempty", id="nu-empty-C"),
    pytest.param(lambda: nu(FULL, [0, 7], 1), IndexError, "point 7 out of range for 5 points", id="nu-point-outside"),
    pytest.param(lambda: nu_bar(PLAIN, ALL, 6), ValueError, "k=6 out of range 1..5", id="nu-bar-k-above-C"),
    pytest.param(lambda: nu_bar(PLAIN, [0, 7], 1), IndexError, "point 7 out of range for 5 points", id="nu-bar-point-outside"),
    pytest.param(lambda: all_greedy_traces(PLAIN, ALL, 6), ValueError, "m=6 must be between 0 and |C|=5", id="all-traces-m"),
    pytest.param(lambda: all_greedy_traces(PLAIN, ALL, 1.5), TypeError, "'float' object cannot be interpreted", id="all-traces-float-m"),
    pytest.param(
        lambda: all_greedy_permutations(PLAIN, ALL, 1.5), TypeError, "'float' object cannot be interpreted", id="all-permutations-float-m",
    ),
    pytest.param(
        lambda: count_greedy_permutations(PLAIN, ALL, 1.5), TypeError, "'float' object cannot be interpreted", id="count-float-m",
    ),
    pytest.param(
        lambda: all_greedy_permutations(PLAIN, ALL, 3, cap=1), ValueError, "more than cap=1 greedy permutations", id="all-permutations-cap",
    ),
    # a count is an int: True made one step, 2.0 failed in `range`
    pytest.param(lambda: greedy_permutation(PLAIN, ALL, True), TypeError, "count True: 'bool' object", id="permutation-bool-m"),
    pytest.param(lambda: nu_bar(PLAIN, ALL, True), TypeError, "count True: 'bool' object", id="nu-bar-bool-k"),
    pytest.param(lambda: nu_bar(PLAIN, ALL, 2.0), TypeError, "count 2.0: 'float' object", id="nu-bar-float-k"),
    pytest.param(lambda: count_greedy_permutations(PLAIN, ALL, 2.0), TypeError, "count 2.0: 'float' object", id="count-whole-float-m"),
    pytest.param(lambda: count_greedy_permutations(PLAIN, ALL, True), TypeError, "count True: 'bool' object", id="count-bool-m"),
    # P-orderings
    pytest.param(lambda: check_equivalence([0, 1, 2], 4, [0]), ValueError, "p=4 is not a prime", id="equivalence-composite-p"),
    pytest.param(lambda: check_equivalence([0, 1.5], 2, [0]), TypeError, "points must be integers, got 1.5", id="equivalence-float-point"),
    pytest.param(lambda: pm_ordering([1, 2, 3], 2, 2.0), TypeError, "count 2.0: 'float' object", id="pm-ordering-float-m"),
    pytest.param(lambda: pm_ordering([1, 2, 3], 2, True), TypeError, "count True: 'bool' object", id="pm-ordering-bool-m"),
    # set systems: the ground and the points are checked as `read_set_system` checks them
    pytest.param(lambda: SetSystem(2.5, []), ValueError, "ground must be an integer, got 2.5", id="system-float-ground-empty"),
    pytest.param(lambda: SetSystem(True, [1]), ValueError, "ground must be an integer, got True", id="system-bool-ground"),
    pytest.param(lambda: SetSystem(2.5, [1]), ValueError, "ground must be an integer, got 2.5", id="system-float-ground"),
    pytest.param(
        lambda: SetSystem.from_point_sets(2.5, [[0]]), ValueError, "ground must be an integer, got 2.5", id="point-sets-float-ground",
    ),
    pytest.param(lambda: mask_from_points([-1]), ValueError, "point -1 is not a nonnegative integer", id="mask-negative-point"),
    pytest.param(lambda: mask_from_points([True]), ValueError, "point True is not a nonnegative integer", id="mask-bool-point"),
    pytest.param(
        lambda: mask_from_points([1.0]), ValueError, "point 1.0 is not a nonnegative integer", id="mask-float-point",
    ),
    pytest.param(lambda: points_from_mask(True), ValueError, "mask True is not an integer", id="points-bool-mask"),
    # elsewhere
    pytest.param(lambda: strong_exchange_pair(PLAIN, *_system_pair()), ValueError, "need |B| = |A| + 1", id="strong-exchange-sizes"),
    pytest.param(lambda: brute_max_tuple_perimeter(FULL, ALL, -1), ValueError, "k must be nonnegative", id="brute-tuple-negative-k"),
]


@pytest.mark.parametrize("call, error, fragment", CASES)
def test_refusal(call, error, fragment, tmp_path, monkeypatch, capsys, returns_within):
    if not isinstance(call, Cli):
        with returns_within(1), pytest.raises(error, match=re.escape(fragment)):
            call()
        return
    monkeypatch.chdir(tmp_path)
    if call.file == "parity":
        assert main(["generate", "--family", "mod", "--points", "1,2,3,4,5", "--m", "2",
                     "--eps", "1", "--alpha", "2", "--out", "input"]) == 0
    elif call.file is not None:
        (tmp_path / "input").write_text(call.file)
    argv = ["input" if a == "{file}" else a for a in call.argv]
    capsys.readouterr()
    args = build_parser().parse_args(argv)
    with pytest.raises(error, match=re.escape(fragment)):
        args.handler(args)  # before any output exists, a lazy one included
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("error:") == 1 and err.startswith("error: ") and fragment in err


def _count(monkeypatch, module, name: str) -> list:
    """Replace module.name by a wrapper that records each call's arguments."""
    calls = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


class TestOneEngineRun:
    def test_extend_greedy_walks_once(self, monkeypatch):
        want = greedy_permutation(PLAIN, ALL, 4)
        walks = _count(monkeypatch, greedy, "_walk")
        assert extend_greedy(PLAIN, ALL, PAIR, 4) == want
        assert len(walks) == 1

    def test_nu_bar_checks_once_and_walks_once(self, monkeypatch):
        walks = _count(monkeypatch, greedy, "_walk")
        subsets = _count(monkeypatch, greedy, "_subset")
        assert nu_bar(PLAIN, ALL, 3) == 3
        assert (len(walks), len(subsets)) == (1, 1)

    def test_nu_checks_once_and_walks_once(self, monkeypatch):
        want = greedy_subsequence(FULL, ALL, 3).increments[2]
        walks = _count(monkeypatch, greedy, "_walk")
        subsets = _count(monkeypatch, greedy, "_subset")
        assert nu(FULL, ALL, 3) == want
        assert (len(walks), len(subsets)) == (1, 1)

    def test_greedoid_checks_count_extension_maps(self, tmp_path, monkeypatch):
        s = bhargava_greedoid(PLAIN)
        builds = _count(monkeypatch, greedoid, "_extensions")
        for check, want in (greedoid.check_axiom_ii, 0), (greedoid.check_axiom_iii, 1), (greedoid.check_axiom_iv, 1):
            builds.clear()
            assert check(s).holds
            assert len(builds) == want, check.__name__
        monkeypatch.chdir(tmp_path)
        assert main(["generate", "--family", "mod", "--points", "1,2,3,4,5", "--m", "2",
                     "--eps", "1", "--alpha", "2", "--out", "input"]) == 0
        builds.clear()
        assert main(["greedoid", "input", "--emit", "check"]) == 0
        assert len(builds) == 2 + len(s.levels())  # (iii), (iv), then one per level

    def test_check_equivalence_reads_the_pool_once(self, monkeypatch):
        pools = _count(monkeypatch, bhargava, "_pool")
        assert check_equivalence([0, 1, 2, 9, 17, 128], 2, (0, 1, 2, 9)) is True
        assert len(pools) == 1
