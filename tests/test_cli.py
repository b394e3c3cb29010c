import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultragreedy import greedy as greedy_module
from ultragreedy import (
    FullUltraTriple,
    GreedyTrace,
    UltraTriple,
    WeightedTree,
    bhargava_greedoid,
    constant_triple,
    extend_to_full,
    greedy_permutation,
    greedy_subsequence,
    is_pm_ordering,
    level_sets,
    padic_log_triple,
    padic_triple,
    points_from_mask,
    random_ultra_triple,
    rational,
    shift_distances,
    tree_triple,
)
from ultragreedy.cli import _decode, _rational, _traces_json, instance_document, main, parse_tree_file, read_instance

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def parity5_file(tmp_path, capsys):
    path = tmp_path / "parity5.json"
    code, _, _ = run(
        capsys,
        "generate", "--family", "mod", "--points", "1,2,3,4,5",
        "--m", "2", "--eps", "1", "--alpha", "2", "--out", str(path),
    )
    assert code == 0
    return path


@pytest.fixture()
def parity5_full_file(parity5_file, tmp_path):
    doc = json.loads(parity5_file.read_text())
    doc["selfdist"] = ["1"] * 5
    path = tmp_path / "parity5_full.json"
    path.write_text(json.dumps(doc))
    return path


class TestValidateCommand:
    def test_ok_instance(self, capsys, parity5_file):
        code, out, _ = run(capsys, "validate", str(parity5_file))
        assert code == 0
        assert json.loads(out) == {"ok": True, "violations": []}

    def test_violation_reported(self, capsys, parity5_file, tmp_path):
        doc = json.loads(parity5_file.read_text())
        doc["distances"][2][0] = "9"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "validate", str(bad))
        assert code == 1
        report = json.loads(out)
        assert not report["ok"]
        assert any(set(v["points"]) >= {"1", "3"} for v in report["violations"])

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 2
        assert "JSON" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, _ = run(capsys, "validate", str(tmp_path / "nope.json"))
        assert code == 2

    def test_cap_exceeded(self, capsys, parity5_file):
        code, _, err = run(capsys, "validate", str(parity5_file), "--cap", "3")
        assert code == 2 and "cap" in err


class TestGreedyCommand:
    def test_full_permutation(self, capsys, parity5_file):
        code, out, _ = run(capsys, "greedy", str(parity5_file), "--m", "5")
        assert code == 0
        doc = json.loads(out)
        assert doc["mode"] == "permutation"
        assert doc["traces"][0]["points"] == ["1", "2", "3", "4", "5"]
        assert doc["traces"][0]["prefix_perimeters"][2] == "5"

    def test_ties_all(self, capsys, parity5_file):
        code, out, _ = run(capsys, "greedy", str(parity5_file), "--m", "2", "--ties", "all")
        assert code == 0
        assert len(json.loads(out)["traces"]) == 12

    def test_subset_restriction(self, capsys, parity5_file):
        code, out, _ = run(capsys, "greedy", str(parity5_file), "--subset", "1,3,5")
        assert code == 0
        assert len(json.loads(out)["traces"][0]["points"]) == 3

    def test_repeated_subset_label_counted_once(self, capsys, parity5_file):
        code, out, err = run(capsys, "greedy", str(parity5_file), "--subset", "1,3,1")
        assert code == 0 and err == ""
        assert run(capsys, "greedy", str(parity5_file), "--subset", "1,3") == (0, out, "")

    def test_unknown_label(self, capsys, parity5_file):
        code, _, err = run(capsys, "greedy", str(parity5_file), "--subset", "9")
        assert code == 2 and "unknown point label" in err

    def test_subsequence_needs_selfdist(self, capsys, parity5_file):
        code, _, err = run(capsys, "greedy", str(parity5_file), "--mode", "subseq")
        assert code == 2 and "selfdist" in err

    def test_subsequence_runs_on_full(self, capsys, parity5_full_file):
        code, out, _ = run(
            capsys, "greedy", str(parity5_full_file), "--mode", "subseq", "--m", "7"
        )
        assert code == 0
        assert len(json.loads(out)["traces"][0]["points"]) == 7

    def test_subsequence_of_empty_subset(self, capsys, parity5_full_file):
        # m defaults to |C| = 0: the one empty trace, as in permutation mode
        code, out, err = run(capsys, "greedy", str(parity5_full_file), "--mode", "subseq", "--subset", "")
        assert (code, err) == (0, "")
        assert json.loads(out) == {
            "mode": "subsequence",
            "traces": [{"points": [], "increments": [], "prefix_perimeters": []}],
        }
        code, _, err = run(capsys, "greedy", str(parity5_full_file), "--mode", "subseq", "--subset", "", "--m", "1")
        assert (code, err) == (2, "error: C must be nonempty\n")

    def test_subsequence_tie_enumeration_unsupported(self, capsys, parity5_full_file):
        code, _, _ = run(
            capsys, "greedy", str(parity5_full_file), "--mode", "subseq", "--ties", "all"
        )
        assert code == 2

    def test_m_too_large(self, capsys, parity5_file):
        code, _, _ = run(capsys, "greedy", str(parity5_file), "--m", "9")
        assert code == 2

    def test_ties_cap_exceeded_prints_nothing(self, capsys, parity5_file):
        # 12 traces: the enumeration fails before a byte of the document is written
        argv = ["greedy", str(parity5_file), "--m", "2", "--ties", "all"]
        assert run(capsys, *argv, "--cap", "12")[0] == 0
        code, out, err = run(capsys, *argv, "--cap", "11")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and "cap=11" in err

    def test_ties_cap_exceeded_writes_no_file(self, capsys, tmp_path):
        # 131,072 traces: the count fails the cap before any trace or output file exists
        path = tmp_path / "padic16.json"
        points = ",".join(map(str, range(16)))
        assert run(capsys, "generate", "--family", "padic", "--points", points, "--p", "2", "--out", str(path))[0] == 0
        out_file = tmp_path / "traces.json"
        argv = ["greedy", str(path), "--m", "6", "--ties", "all", "--cap", "1000", "--out", str(out_file)]
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", "error: more than cap=1000 greedy permutations\n")
        assert not out_file.exists()

    def test_ties_all_out_file_equals_stdout(self, capsys, parity5_file, tmp_path):
        argv = ["greedy", str(parity5_file), "--m", "3", "--ties", "all"]
        code, out, _ = run(capsys, *argv)
        assert code == 0 and len(json.loads(out)["traces"]) == 36
        out_file = tmp_path / "traces.json"
        assert run(capsys, *argv, "--out", str(out_file)) == (0, "", f"wrote {out_file}\n")
        assert out_file.read_text() == out


# labels whose JSON form needs every kind of escape `json.dumps` writes
ESCAPED = ['q"uote', "back\\slash", "new\nline", "tab\there", "caf\u00e9", "snow\u2603", "sep\u2028", "grin\U0001F600"]


def _relabel(t):
    labels = tuple(f"{ESCAPED[a % len(ESCAPED)]}{a}" for a in t.points())
    if isinstance(t, FullUltraTriple):
        return FullUltraTriple(labels, t.weights, t.dist, t.selfdist)
    return UltraTriple(labels, t.weights, t.dist)


def _reference_json(t, mode, traces):
    """The greedy document built whole and dumped by `json`, as the CLI once did."""
    doc = {
        "mode": mode,
        "traces": [
            {
                "points": [t.labels[a] for a in tr.points],
                "increments": [str(x) for x in tr.increments],
                "prefix_perimeters": [str(x) for x in tr.prefix_perimeters()],
            }
            for tr in traces
        ],
    }
    return json.dumps(doc, indent=2)


def _one(trace):
    """The one-trace group of a trace, as `greedy --ties first` writes it."""
    return trace.points[:-1], trace.increments, trace.points[-1:]


def _groups(t, pts, m):
    """The groups of every greedy m-permutation of pts, as `greedy --ties all` writes them."""
    return list(greedy_module._paths(greedy_module._set_dag(t, pts, m)[0]))


def _assert_writer_matches(t, mode, groups):
    # the writer takes (picks, increments, winners) groups, whose traces are
    # picks + (x,) for each winner x or picks alone, and yields one chunk per
    # group between the opening and the closing chunk
    traces = []
    for picks, incs, winners in groups:
        traces += [GreedyTrace(picks + (x,), incs, mode) for x in winners] or [GreedyTrace(picks, incs, mode)]
    chunks = list(_traces_json(t, mode, groups))
    assert len(chunks) == len(groups) + 2
    assert "".join(chunks) == _reference_json(t, mode, traces)


class TestTraceWriter:
    """`greedy` output equals `json.dumps(indent=2)` of the full document, byte for byte."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_valid_triples(self, seed):
        t = _relabel(random_ultra_triple(seed, 3 + seed % 6, 1 + seed % 3))
        for m in range(t.n + 1):
            _assert_writer_matches(t, "permutation", _groups(t, t.points(), m))
        _assert_writer_matches(t, "permutation", [_one(greedy_permutation(t, t.points(), t.n))])

    @pytest.mark.parametrize("build, p", [(padic_triple, 2), (padic_triple, 3), (padic_log_triple, 2)])
    def test_padic_triples(self, build, p):
        t = _relabel(build(range(9), p))
        for m in (0, 1, 3, 5, 9):
            groups = _groups(t, t.points(), m)
            if m >= 3:
                assert len(groups) > 1
            if m in (3, 5):  # at m = 9 one point is left for the last pick
                assert any(len(winners) > 1 for _, _, winners in groups)
            _assert_writer_matches(t, "permutation", groups)

    def test_invalid_ties6(self):
        t = _relabel(read_instance(str(GOLDEN / "ties6.json")))
        for m in range(t.n + 1):
            _assert_writer_matches(t, "permutation", _groups(t, t.points(), m))
        for m in (0, 1, 9):
            _assert_writer_matches(t, "subsequence", [_one(greedy_subsequence(t, t.points(), m))])

    def test_every_m_on_a_constant_triple(self):
        # every set ties, and the set DAG makes each level's equal increments
        # one object, so every group reuses the last group's rendering whole
        t = _relabel(constant_triple(7))
        for m in range(t.n + 1):
            groups = _groups(t, t.points(), m)
            assert sum(len(winners) for _, _, winners in groups) == math.perm(7, m) or m == 0
            _assert_writer_matches(t, "permutation", groups)

    @pytest.mark.parametrize("seed", range(8))
    def test_invalid_tie_heavy_triples(self, seed):
        # three distances of a constant or a random valid triple moved: the
        # sets of a level may then differ in their increment, so consecutive
        # groups share their leading increment objects and differ past them,
        # and the writer keeps only the shared prefix of its rendering
        rng = random.Random(seed)
        n = 5 + seed % 3
        # weights 0 and 1 keep ties frequent
        t = constant_triple(n) if seed % 2 else random_ultra_triple(seed, n, 2, [rng.randint(0, 1) for _ in range(n)])
        rows = [list(row) for row in t.dist]
        for _ in range(3):
            a = rng.randrange(1, n)
            rows[a][rng.randrange(a)] = Fraction(rng.randint(0, 4), 2)
        t = _relabel(UltraTriple(t.labels, t.weights, rows))
        partial = 0
        for m in range(t.n + 1):
            groups = _groups(t, t.points(), m)
            for (_, old, _), (_, incs, _) in zip(groups, groups[1:]):
                partial += 0 < next((k for k in range(m) if incs[k] is not old[k]), m) < m
            _assert_writer_matches(t, "permutation", groups)
        assert partial > 0

    def test_empty_selections(self):
        t = _relabel(padic_triple(range(4), 2))
        for pts in ([], [1, 3], t.points()):
            _assert_writer_matches(t, "permutation", _groups(t, pts, 0))
        _assert_writer_matches(t, "permutation", _groups(t, [], 0) * 3)
        _assert_writer_matches(t, "permutation", [])

    def test_subsequence_mode(self):
        t = _relabel(extend_to_full(padic_triple(range(6), 2), Fraction(1, 4)))
        for m in (0, 1, 4, 11):
            _assert_writer_matches(t, "subsequence", [_one(greedy_subsequence(t, [0, 2, 5], m))])

    def test_hand_built_traces(self):
        t = _relabel(padic_triple(range(4), 2))
        one, half = Fraction(1), Fraction(1, 2)
        first = GreedyTrace((0, 1), (one, half), "permutation")
        traces = [
            first,
            first,  # the same increments object: the rendered block is reused whole
            GreedyTrace((0, 2), (Fraction(1), Fraction(1, 2)), "permutation"),  # equal, not identical
            GreedyTrace((0, 1), (one, Fraction(3)), "permutation"),  # same points, other increments
            GreedyTrace((0, 1, 2), (one, Fraction(3), Fraction(-7, 3)), "permutation"),
            GreedyTrace((3,), (one,), "permutation"),  # a shorter trace sharing a prefix
            GreedyTrace((), (), "permutation"),
            GreedyTrace((2, 3), (half, one), "permutation"),
            GreedyTrace((), (), "permutation"),
        ]
        _assert_writer_matches(t, "permutation", [_one(tr) for tr in traces])
        _assert_writer_matches(t, "permutation", [_one(tr) for tr in traces[::-1]])

    def test_hand_built_groups(self):
        t = _relabel(padic_triple(range(6), 2))
        F = Fraction
        one = F(1)
        groups = [
            ((), (one,), [0, 2, 5]),  # m = 1: the traces are the winners alone
            ((), (F(1),), [1]),  # equal increments, a distinct object; one winner
            ((0, 1), (one, F(1, 2), F(3)), [2, 4]),
            ((0, 1), (F(1), F(1, 2), F(3)), [3]),  # equal to the last group, entry by entry
            ((0, 1), (one, F(1, 2), F(7, 3)), [2, 5]),  # differs only in the last entry
            ((0, 3), (one, F(1, 2), F(7, 3)), [1]),  # shares one leading pick
            ((1, 0), (one, F(1, 2), F(7, 3)), [5, 4]),  # shares none
            ((1, 0), (F(-1, 2), F(1, 2), F(7, 3)), [2]),  # the same picks, the first entry differs
            ((2, 3, 4), (F(0), F(5, 6), F(5, 6), F(-5)), [0, 1, 5]),
            ((2, 3), (F(0), F(5, 6), F(5, 6)), [4]),  # a prefix of the last group's
            ((), (), ()),  # m = 0: no picks, no winners, one empty trace
            ((), (), ()),
            ((4,), (one, one), [0]),
        ]
        for order in (groups, groups[::-1]):
            _assert_writer_matches(t, "permutation", order)
        # subsequence traces repeat points, in the picks and as a winner
        repeats = [
            ((0, 0), (one, F(1, 4), F(1, 4)), [0, 3]),
            ((0, 0, 3), (one, F(1, 4), F(1, 4), F(1, 4)), [3]),
            ((3, 3), (one, F(1, 4), F(1, 4)), [3]),
        ]
        _assert_writer_matches(t, "subsequence", repeats)

    def test_one_chunk_per_group_as_the_groups_arrive(self):
        # the writer streams: each group is rendered as it is read, never the
        # whole document at once
        t = _relabel(constant_triple(8))
        groups = _groups(t, t.points(), 4)
        read = []

        def source():
            for group in groups:
                read.append(group)
                yield group

        chunks = _traces_json(t, "permutation", source())
        assert next(chunks).startswith('{\n  "mode": "permutation"') and read == []
        for i, group in enumerate(groups, 1):
            chunk = next(chunks)
            assert len(read) == i and chunk.count('"points"') == len(group[2])
        assert next(chunks) == "\n  ]\n}" and len(read) == len(groups)
        assert next(chunks, None) is None


class TestNuCommand:
    def test_value(self, capsys, parity5_file):
        code, out, _ = run(capsys, "nu", str(parity5_file), "--k", "2")
        assert code == 0 and out.strip() == '"2"'

    def test_subsequence_mode(self, capsys, parity5_full_file):
        code, out, _ = run(
            capsys, "nu", str(parity5_full_file), "--k", "7", "--mode", "subseq"
        )
        assert code == 0
        assert json.loads(out) == "9"

    def test_bad_k(self, capsys, parity5_file):
        code, out, err = run(capsys, "nu", str(parity5_file), "--k", "0")
        assert code == 2
        # the library's ValueError, as one `error:` line
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1


class TestGreedoidCommand:
    def test_emit_sets_matches_library(self, capsys, parity5_file, parity5):
        code, out, _ = run(capsys, "greedoid", str(parity5_file), "--emit", "sets")
        assert code == 0
        doc = json.loads(out)
        assert doc["ground"] == 5 and doc["labels"] == ["1", "2", "3", "4", "5"]
        s = bhargava_greedoid(parity5)
        by_k = {lvl["k"]: lvl["sets"] for lvl in doc["levels"]}
        for k in range(6):
            want = [list(points_from_mask(m)) for m in level_sets(s, k).members()]
            assert sorted(by_k[k]) == sorted(want)

    def test_check_passes(self, capsys, parity5_file):
        code, out, _ = run(capsys, "greedoid", str(parity5_file))
        assert code == 0
        assert json.loads(out)["all_hold"] is True

    def test_check_system_file_failure(self, capsys, tmp_path):
        path = tmp_path / "system.json"
        path.write_text(json.dumps({"ground": 4, "sets": [[], [0, 1], [2, 3]]}))
        code, out, _ = run(capsys, "greedoid", "--system", str(path))
        assert code == 1
        doc = json.loads(out)
        assert doc["all_hold"] is False
        failed = [a["axiom"] for a in doc["axioms"] if not a["holds"]]
        assert "ii" in failed

    def test_instance_and_system_conflict(self, capsys, parity5_file, tmp_path):
        path = tmp_path / "system.json"
        path.write_text(json.dumps({"ground": 1, "sets": [[]]}))
        code, _, _ = run(capsys, "greedoid", str(parity5_file), "--system", str(path))
        assert code == 2

    def test_neither_input(self, capsys):
        code, _, _ = run(capsys, "greedoid")
        assert code == 2

    def test_ground_cap(self, capsys, parity5_file):
        code, _, _ = run(capsys, "greedoid", str(parity5_file), "--cap", "2")
        assert code == 2


class TestGenerateCommand:
    def test_constant(self, capsys):
        code, out, _ = run(capsys, "generate", "--family", "constant", "--n", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["distances"] == [[], ["1"], ["1", "1"]]

    def test_padic(self, capsys):
        code, out, _ = run(
            capsys, "generate", "--family", "padic", "--points", "0,3", "--p", "3"
        )
        assert code == 0
        assert json.loads(out)["distances"][1] == ["1/3"]

    def test_padic_log(self, capsys):
        code, out, _ = run(
            capsys, "generate", "--family", "padic-log", "--points", "0,4", "--p", "2"
        )
        assert code == 0
        assert json.loads(out)["distances"][1] == ["-2"]

    def test_rseq(self, capsys):
        code, out, _ = run(
            capsys,
            "generate", "--family", "rseq", "--points", "0,1,2",
            "--r", "1,2", "--c", "2,1",
        )
        assert code == 0
        assert json.loads(out)["distances"][2] == ["1", "2"]

    def test_random_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run(
                capsys,
                "generate", "--family", "random", "--seed", "7", "--n", "6",
                "--out", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_random_weights_replace_the_drawn_ones(self, capsys):
        argv = ["generate", "--family", "random", "--n", "7", "--seed", "7"]
        _, plain, _ = run(capsys, *argv)
        code, out, _ = run(capsys, *argv, "--weights", "1,2,3,4,5,6,-1/7")
        assert code == 0
        doc = json.loads(out)
        assert doc["distances"] == json.loads(plain)["distances"]
        assert doc["weights"] == ["1", "2", "3", "4", "5", "6", "-1/7"]

    def test_weights_applied(self, capsys):
        code, out, _ = run(
            capsys,
            "generate", "--family", "constant", "--n", "2", "--weights", "1/2,-3",
        )
        assert code == 0
        assert json.loads(out)["weights"] == ["1/2", "-3"]

    def test_missing_params(self, capsys):
        code, _, _ = run(capsys, "generate", "--family", "mod", "--points", "1,2")
        assert code == 2

    def test_composite_p(self, capsys):
        code, _, _ = run(
            capsys, "generate", "--family", "padic", "--points", "0,1", "--p", "4"
        )
        assert code == 2

    def test_float_weight_rejected(self, capsys):
        code, _, _ = run(
            capsys, "generate", "--family", "constant", "--n", "2", "--weights", "0.5,1"
        )
        assert code == 2

    def test_leading_minus_with_equals(self, capsys):
        code, out, _ = run(capsys, "generate", "--family", "constant", "--n", "2", "--weights=-1,2")
        assert code == 0
        assert json.loads(out)["weights"] == ["-1", "2"]

    @pytest.mark.parametrize("option", ["--points", "--weights", "--eps", "--alpha", "--c"])
    def test_help_shows_equals_form(self, capsys, monkeypatch, option):
        monkeypatch.setenv("COLUMNS", "200")  # one help line per option
        _, out, _ = run(capsys, "generate", "--help")
        assert f"{option}=-" in out


class TestTreeCommand:
    def test_star(self, capsys, tmp_path):
        tree = tmp_path / "star.txt"
        tree.write_text("root r\nx r 1\ny r 2\n")
        code, out, _ = run(capsys, "tree", str(tree))
        assert code == 0
        doc = json.loads(out)
        assert doc["points"] == ["x", "y"]
        assert doc["weights"] == ["1", "2"]
        assert doc["distances"] == [[], ["0"]]

    def test_output_validates(self, capsys, tmp_path):
        tree = tmp_path / "t.txt"
        tree.write_text("root r\na r 1\nb a 1/2\nc a 2\n")
        out_file = tmp_path / "inst.json"
        code, _, _ = run(capsys, "tree", str(tree), "--out", str(out_file))
        assert code == 0
        code, out, _ = run(capsys, "validate", str(out_file))
        assert code == 0

    def test_missing_root(self, capsys, tmp_path):
        tree = tmp_path / "t.txt"
        tree.write_text("a b 1\n")
        code, _, err = run(capsys, "tree", str(tree))
        assert code == 2 and "root" in err

    def test_bad_line(self, capsys, tmp_path):
        tree = tmp_path / "t.txt"
        tree.write_text("root r\na r\n")
        code, _, _ = run(capsys, "tree", str(tree))
        assert code == 2

    @pytest.mark.parametrize(
        ("text", "lineno", "directive"),
        [
            ("root r\nroot a\nr a 1\nr b 2\n", 2, "root"),
            ("root r\nleaves a\nr a 1\nr b 2\nleaves b\n", 5, "leaves"),
        ],
        ids=["root", "leaves"],
    )
    def test_duplicate_directive(self, capsys, tmp_path, text, lineno, directive):
        # a second line used to win silently: w(a) = 0 and w(b) = 3 under `root a`
        tree = tmp_path / "t.txt"
        tree.write_text(text)
        code, out, err = run(capsys, "tree", str(tree))
        assert (code, out) == (2, "")
        assert err == f"error: {tree}:{lineno}: duplicate '{directive}' directive\n"

    def test_leafset_directive(self, capsys, tmp_path):
        tree = tmp_path / "t.txt"
        tree.write_text("root r\nleaves a,b\nr a 1\na b 1\n")
        code, out, _ = run(capsys, "tree", str(tree))
        assert code == 0
        doc = json.loads(out)
        assert doc["points"] == ["a", "b"]
        assert doc["distances"][1] == ["-2"]

    def test_not_utf8_names_the_file(self, capsys, tmp_path):
        tree = tmp_path / "bad.txt"
        tree.write_bytes(b"root r\nr \xff 1\n")
        code, out, err = run(capsys, "tree", str(tree))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {tree} is not valid UTF-8: ") and err.count("\n") == 1
        assert "can't decode byte 0xff in position 9" in err

    def test_long_path_parses_in_linear_time(self, tmp_path):
        n = 20_000
        tree = tmp_path / "path.txt"
        tree.write_text("root v0\n" + "".join(f"v{i} v{i + 1} 1\n" for i in range(n - 1)))
        start = time.perf_counter()
        parsed = parse_tree_file(str(tree))
        assert time.perf_counter() - start < 1.0
        assert parsed.vertices == tuple(f"v{i}" for i in range(n))


class TestPorderingCommand:
    def test_ordering_self_checks(self, capsys):
        code, out, _ = run(capsys, "pordering", "--p", "2", "--points", "1,2,3,4", "--m", "4")
        assert code == 0
        assert is_pm_ordering([1, 2, 3, 4], 2, json.loads(out))

    def test_check_true(self, capsys):
        code, out, _ = run(
            capsys, "pordering", "--p", "2", "--points", "1,2,3,4,9", "--check", "1,2,3,4"
        )
        assert code == 0 and json.loads(out) is True

    def test_check_false_exit_one(self, capsys):
        code, out, _ = run(
            capsys, "pordering", "--p", "2", "--points", "0,1", "--check", "5"
        )
        assert code == 1 and json.loads(out) is False

    def test_m_zero(self, capsys):
        code, out, _ = run(capsys, "pordering", "--p", "3", "--points", "4,5", "--m", "0")
        assert code == 0 and json.loads(out) == []

    def test_composite_p(self, capsys):
        code, _, _ = run(capsys, "pordering", "--p", "9", "--points", "1,2")
        assert code == 2

    def test_leading_minus_with_equals(self, capsys):
        code, out, _ = run(capsys, "pordering", "--p", "2", "--points=-3,5", "--m", "2")
        assert code == 0 and out == "[-3, 5]\n"
        code, out, _ = run(capsys, "pordering", "--p", "2", "--points=-3,5", "--check=-3,5")
        assert code == 0 and json.loads(out) is True

    def test_default_length_counts_each_point_once(self, capsys):
        # E is a set: a repeated point is one point, so the default m is |E|
        assert run(capsys, "pordering", "--p", "2", "--points", "1,1,2") == (0, "[1, 2]\n", "")
        assert run(capsys, "pordering", "--p", "2", "--points", "5,5") == (0, "[5]\n", "")

    def test_large_prime_p_ends_promptly(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(capsys, "pordering", "--p", str(2**61 - 1), "--points", "1,2,3", "--m", "2")
        assert (code, out) == (0, "[1, 2]\n")
        assert time.perf_counter() - start < 1

    def test_p_past_the_exact_primality_bound_exit_2(self, capsys):
        code, out, err = run(capsys, "pordering", "--p", str(4 * 10**24 + 1), "--points", "1,2")
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot decide whether") and err.count("\n") == 1

    @pytest.mark.parametrize("option", ["--points", "--check"])
    def test_help_shows_equals_form(self, capsys, monkeypatch, option):
        monkeypatch.setenv("COLUMNS", "200")  # one help line per option
        _, out, _ = run(capsys, "pordering", "--help")
        assert f"{option}=-" in out


class TestCaps:
    @pytest.mark.parametrize("command, default", [("validate", 64), ("greedy", 10**6), ("greedoid", 16)])
    def test_default_shown_in_help(self, capsys, command, default):
        code, out, _ = run(capsys, command, "--help")
        assert code == 0 and f"(default: {default})" in " ".join(out.split())

    def test_system_ground_capped_before_any_mask(self, capsys, tmp_path):
        path = tmp_path / "system.json"
        path.write_text(json.dumps({"ground": 10**12, "sets": [[], [0], [10**12 - 1]]}))
        code, out, err = run(capsys, "greedoid", "--system", str(path))
        assert (code, out, err) == (2, "", "error: ground size 1000000000000 exceeds cap 16\n")

    def test_system_ground_cap_default_and_raised(self, capsys, tmp_path):
        path = tmp_path / "system.json"
        path.write_text(json.dumps({"ground": 17, "sets": [[], [0], [16]]}))
        code, out, err = run(capsys, "greedoid", "--system", str(path))
        assert (code, out, err) == (2, "", "error: ground size 17 exceeds cap 16\n")
        code, out, _ = run(capsys, "greedoid", "--system", str(path), "--cap", "17")
        assert code == 0 and json.loads(out)["all_hold"] is True

    def test_pordering_m_capped_before_the_first_pick(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "pordering", "--p", "2", "--points", "1,2", "--m", str(10**12))
        assert (code, out, err) == (2, "", "error: --m exceeds the pordering cap 1000000\n")
        assert time.perf_counter() - start < 1
        code, out, err = run(capsys, "pordering", "--p", "2", "--points", "1,2", "--m", str(10**6 + 1))
        assert (code, out, err) == (2, "", "error: --m exceeds the pordering cap 1000000\n")
        code, out, _ = run(capsys, "pordering", "--p", "2", "--points", "1,2", "--m", "3")
        assert (code, out) == (0, "[1, 2, 1]\n")

    @pytest.mark.parametrize("command, flag", [("greedy", "--m"), ("nu", "--k")])
    def test_subsequence_length_capped_before_the_first_pick(self, capsys, parity5_full_file, command, flag):
        argv = (command, str(parity5_full_file), "--mode", "subseq", flag)
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, str(10**12))
        assert (code, out, err) == (2, "", f"error: {flag} exceeds the subsequence cap 1000000\n")
        assert time.perf_counter() - start < 1
        code, out, err = run(capsys, *argv, str(10**6 + 1))
        assert (code, out, err) == (2, "", f"error: {flag} exceeds the subsequence cap 1000000\n")
        code, out, err = run(capsys, *argv, "7")
        assert (code, err) == (0, "") and json.loads(out)

    def test_environment_does_not_set_caps(self, capsys, parity5_file, monkeypatch):
        jobs = (["validate", str(parity5_file)], ["greedoid", str(parity5_file), "--emit", "sets"])
        want = [run(capsys, *argv)[:2] for argv in jobs]
        for value in ("3", "lots"):
            monkeypatch.setenv("ULTRAGREEDY_CAP", value)
            assert [run(capsys, *argv)[:2] for argv in jobs] == want


def _one_point_instance(tmp_path, weight):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"points": ["a"], "weights": [weight], "distances": [[]]}))
    return str(path)


class TestRationalGrammar:
    """Trimmed, a rational string is an integer or p/q with an unsigned denominator."""

    @pytest.mark.parametrize("text, value", [("3", "3"), (" -4/6 ", "-2/3"), ("0/5", "0"), ("007", "7")])
    def test_accepted(self, capsys, tmp_path, text, value):
        code, out, err = run(capsys, "nu", _one_point_instance(tmp_path, text), "--k", "1")
        assert (code, json.loads(out), err) == (0, value, "")

    @pytest.mark.parametrize(
        # "\u0663" (ARABIC-INDIC DIGIT THREE) and "\uff11" (FULLWIDTH DIGIT ONE) are digits to
        # `\d` and to `int`, not to the grammar
        "text", ["1/-2", "-1/-2", "+1", "1.5", "1e3", "1_000", "1 / 2", "", "/2", "2/", "\u0663", "1/\uff11"]
    )
    def test_rejected(self, capsys, tmp_path, text):
        code, out, err = run(capsys, "nu", _one_point_instance(tmp_path, text), "--k", "1")
        assert (code, out) == (2, "")
        assert err == f"error: bad rational in weights: {text!r} is not p/q or integer\n"

    def test_zero_denominator(self, capsys, tmp_path):
        code, out, err = run(capsys, "nu", _one_point_instance(tmp_path, "1/0"), "--k", "1")
        assert (code, out, err) == (2, "", "error: bad rational in weights: Fraction(1, 0)\n")


# one per integer option: the value goes where "{}" stands
INTEGER_OPTIONS = [
    ("validate", "f.json", "--cap", "{}"),
    ("greedy", "f.json", "--m", "{}"),
    ("greedy", "f.json", "--cap", "{}"),
    ("nu", "f.json", "--k", "{}"),
    ("greedoid", "f.json", "--cap", "{}"),
    ("generate", "--family", "constant", "--n", "{}"),
    ("generate", "--family", "mod", "--m", "{}"),
    ("generate", "--family", "padic", "--p", "{}"),
    ("generate", "--family", "random", "--seed", "{}"),
    ("generate", "--family", "random", "--depth", "{}"),
    ("pordering", "--points", "1,2", "--p", "{}"),
    ("pordering", "--p", "2", "--points", "1,2", "--m", "{}"),
]

# each one an integer to `int`, none to the grammar
OUTSIDE_THE_GRAMMAR = ["+2", " +2 ", "2_0", "\u0663", "\uff11", "1\u0662"]


class TestIntegerGrammar:
    """Integer options and lists take the rational grammar's integers: ASCII
    digits, surrounding whitespace trimmed, a minus sign only in front."""

    @pytest.mark.parametrize("argv", INTEGER_OPTIONS, ids=lambda argv: " ".join(argv[:-1]))
    @pytest.mark.parametrize("text", OUTSIDE_THE_GRAMMAR)
    def test_option_refuses(self, capsys, argv, text):
        code, out, err = run(capsys, *[text if a == "{}" else a for a in argv])
        assert (code, out) == (2, "")
        assert err.count("error:") == 1
        assert err.endswith(f"error: argument {argv[-2]}: invalid int value: {text!r}\n")

    @pytest.mark.parametrize("text", [" 3 ", "3", "003", "\t3\n"])
    def test_option_accepts(self, capsys, text):
        code, out, err = run(capsys, "pordering", "--p", "2", "--points", "0,1,2,3", "--m", text)
        assert (code, out, err) == (0, "[0, 1, 2]\n", "")

    def test_option_of_any_length(self, capsys, parity5_file):
        cap = "1" + "0" * 5000  # past the default int/str digit limit, as a list entry may be
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "validate", str(parity5_file), "--cap", cap)
        assert (code, err) == (0, "") and json.loads(out)["ok"]
        assert sys.get_int_max_str_digits() == limit

    def test_negative_option(self, capsys):
        code, out, _ = run(capsys, "generate", "--family", "random", "--n", "2", "--seed=-3")
        assert code == 0 and json.loads(out)["points"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("pordering", "--p", "2", "--points", "{}", "--m", "3"),
            ("pordering", "--p", "2", "--points", "1,2", "--check", "{}"),
            ("generate", "--family", "rseq", "--points", "0,1", "--r", "{}", "--c", "1"),
            ("generate", "--family", "padic", "--p", "2", "--points", "{}"),
        ],
        ids=lambda argv: argv[argv.index("{}") - 1],
    )
    @pytest.mark.parametrize("text", ["+1,2_0,\u0663", "1,+2", "2_0", "\uff11"])
    def test_list_refuses(self, capsys, argv, text):
        option = argv[argv.index("{}") - 1]
        code, out, err = run(capsys, *[text if a == "{}" else a for a in argv])
        assert (code, out, err) == (2, "", f"error: {option} must be comma-separated integers, got {text!r}\n")

    def test_list_trims_and_keeps_a_leading_minus(self, capsys):
        code, out, err = run(capsys, "pordering", "--p", "2", "--points= -3 , 5", "--m", "2")
        assert (code, out, err) == (0, "[-3, 5]\n", "")

    def test_distance_outside_the_grammar(self, capsys, tmp_path):
        path = tmp_path / "two.json"
        path.write_text(json.dumps({"points": ["a", "b"], "weights": ["0", "0"], "distances": [[], ["\uff11"]]}))
        code, out, err = run(capsys, "validate", str(path))
        assert (code, out, err) == (2, "", "error: bad rational in distances: '\uff11' is not p/q or integer\n")


def _table(test) -> list:
    """The values of a test's one parametrize mark."""
    (mark,) = [m for m in test.pytestmark if m.name == "parametrize"]
    return mark.args[1]


class TestLibraryGrammar:
    """`rational`, behind every library builder, reads the grammar of the CLI's tables."""

    @pytest.mark.parametrize("text, value", _table(TestRationalGrammar.test_accepted))
    def test_accepted(self, text, value):
        assert rational(text) == _rational(text, "weights") == Fraction(value)

    @pytest.mark.parametrize("text", list(dict.fromkeys(_table(TestRationalGrammar.test_rejected) + OUTSIDE_THE_GRAMMAR)))
    def test_rejected(self, text):
        with pytest.raises(ValueError, match=re.escape(f"{text!r} is not p/q or integer")):
            rational(text)


class TestReadInstance:
    """Each distinct rational string of a file is parsed once, with the same errors."""

    def _write(self, tmp_path, **fields):
        doc = {"points": ["a", "b", "c"], "weights": ["1", "1", "0"], "distances": [[], ["2"], ["2", "1/2"]]}
        doc.update(fields)
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_memoised_read_equals_unmemoised_triple(self, tmp_path):
        doc = {
            "points": ["a", "b", "c", "d"],
            "weights": ["1", 1, "2/4", "1"],
            "distances": [[], [" 2"], ["2", "1/2"], ["2", "2", "1/2"]],
            "selfdist": ["1/2", "0", "1/2", 0],
        }
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        got = read_instance(str(path))
        want = FullUltraTriple(
            tuple(doc["points"]),
            tuple(_rational(x, "weights") for x in doc["weights"]),
            tuple(tuple(_rational(x, "distances") for x in row) for row in doc["distances"]),
            tuple(_rational(x, "selfdist") for x in doc["selfdist"]),
        )
        assert got == want
        # equal strings share one Fraction; JSON numbers are not memoised
        assert got.d(2, 0) is got.d(3, 0) is got.d(3, 1)
        assert got.d(2, 0) is not got.d(1, 0)  # " 2" is another string
        assert got.selfdist[0] is got.selfdist[2] is got.d(2, 1) is got.d(3, 2)
        assert got.weights[0] is got.weights[3] and got.weights[0] == got.weights[1]

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"weights": ["x", "1", "x"]}, "bad rational in weights: 'x' is not p/q or integer"),
            ({"distances": [[], ["1/0"], ["1/0", "1/0"]]}, "bad rational in distances: Fraction(1, 0)"),
            # the first bad entry of the file is reported, under its own field
            ({"weights": ["1", "2", "0"], "distances": [[], ["2.5"], ["2.5", "1"]], "selfdist": ["2.5"] * 3},
             "bad rational in distances: '2.5' is not p/q or integer"),
            ({"weights": ["1", 1.5, "1"]}, "bad rational in weights: expected an exact rational, got 1.5"),
        ],
    )
    def test_repeated_bad_string_same_message(self, capsys, tmp_path, fields, message):
        path = self._write(tmp_path, **fields)
        for _ in range(2):
            code, out, err = run(capsys, "validate", path)
            assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "field, value, message",
        [
            # each of these once iterated as characters or keys into a valid triple
            ("points", "abc", "points must be an array, got str"),
            ("points", {"a": 0, "b": 0, "c": 0}, "points must be an array, got dict"),
            ("weights", "110", "weights must be an array, got str"),
            ("weights", {"1": 0, "1/1": 0, "0": 0}, "weights must be an array, got dict"),
            ("distances", ["", "2"], "each distances row must be an array, got str"),
            ("distances", [{}, {"2": 0}, {"2": 0, "1/2": 0}], "each distances row must be an array, got dict"),
            ("distances", {"": 0, "2": 0}, "distances must be an array, got dict"),
            ("selfdist", "222", "selfdist must be an array, got str"),
            ("selfdist", {"2": 0, "4/2": 0, "2/1": 0}, "selfdist must be an array, got dict"),
        ],
    )
    def test_fields_must_be_arrays(self, capsys, tmp_path, field, value, message):
        path = self._write(tmp_path, **{field: value})
        code, out, err = run(capsys, "greedy", path)
        assert (code, out, err) == (2, "", f"error: {path}: {message}\n")

    @pytest.mark.parametrize(
        "fields, message",
        [
            # row 1 caches "2", so row 2 starts with a string already seen
            ({"distances": [[], ["2"], ["2", 2.5]]}, "bad rational in distances: expected an exact rational, got 2.5"),
            ({"distances": [[], ["2"], ["2", True]]}, "bad rational in distances: expected an exact rational, got True"),
            ({"distances": [[], ["2"], ["2", [1]]]},
             "bad rational in distances: argument should be a string or a Rational instance"),
            ({"distances": [[], ["2"], ["2", {"1": 2}]]},
             "bad rational in distances: argument should be a string or a Rational instance"),
            # the first bad entry of a row is reported, whatever follows it
            ({"distances": [[], ["2"], ["2", 2.5, [1]]]}, "bad rational in distances: expected an exact rational, got 2.5"),
            ({"distances": [[], ["2"], ["2", [1], 2.5]]},
             "bad rational in distances: argument should be a string or a Rational instance"),
            ({"distances": [[], ["2"], ["2", "1/2", "x"]]}, "bad rational in distances: 'x' is not p/q or integer"),
            # a weights row is read first, before any string is cached
            ({"weights": ["1", "1", False]}, "bad rational in weights: expected an exact rational, got False"),
            ({"weights": ["1", {}, 0.5]}, "bad rational in weights: argument should be a string or a Rational instance"),
            ({"selfdist": ["2", "1/2", 0.5]}, "bad rational in selfdist: expected an exact rational, got 0.5"),
            ({"selfdist": ["1/2", [], "2"]}, "bad rational in selfdist: argument should be a string or a Rational instance"),
        ],
    )
    def test_cached_rows_mixed_with_other_entries(self, capsys, tmp_path, fields, message):
        path = self._write(tmp_path, **fields)
        code, out, err = run(capsys, "validate", path)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_cached_rows_with_json_ints(self, tmp_path):
        path = self._write(tmp_path, distances=[[], ["2"], ["2", 1]], selfdist=["2", 0, "2"])
        got = read_instance(path)
        assert got == FullUltraTriple("abc", [1, 1, 0], [[], [2], [2, 1]], [2, 0, 2])
        assert got.d(2, 0) is got.d(1, 0) is got.selfdist[0] is got.selfdist[2]
        assert type(got.d(2, 1)) is Fraction and type(got.selfdist[1]) is Fraction

    @pytest.mark.parametrize("top", ["[1]", '"x"', "3"])
    def test_set_system_top_level_must_be_an_object(self, capsys, tmp_path, top):
        path = tmp_path / "system.json"
        path.write_text(top)
        code, out, err = run(capsys, "greedoid", "--system", str(path))
        assert (code, out, err) == (2, "", f"error: {path}: top level must be an object\n")

    @pytest.mark.parametrize("sets", [{}, "", [""], [{}], [[], "01"], [[], {"0": 1}]])
    def test_sets_must_be_an_array_of_arrays(self, capsys, tmp_path, sets):
        path = tmp_path / "system.json"
        path.write_text(json.dumps({"ground": 2, "sets": sets}))
        code, out, err = run(capsys, "greedoid", "--system", str(path))
        assert (code, out, err) == (2, "", f"error: {path}: bad set system: sets must be an array of arrays\n")

    @pytest.mark.parametrize("doc, key", [({"sets": []}, "ground"), ({"ground": 2}, "sets")])
    def test_set_system_names_a_missing_key(self, capsys, tmp_path, doc, key):
        # worded as the instance reader words it
        path = tmp_path / "system.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "greedoid", "--system", str(path))
        assert (code, out, err) == (2, "", f"error: {path}: bad set system: missing key '{key}'\n")


class TestParsing:
    def test_no_arguments(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize("case, code", [("valid", 0), ("violation", 1), ("missing", 2)])
    def test_module_entry_point(self, capsys, parity5_file, tmp_path, case, code):
        # `python -m ultragreedy` ends through `__main__.run`: the exit code
        # and stdout are those of `main` run in-process
        path = {"valid": parity5_file, "violation": tmp_path / "bad.json", "missing": tmp_path / "missing.json"}[case]
        if case == "violation":
            doc = json.loads(parity5_file.read_text())
            doc["distances"][2][0] = "9"
            path.write_text(json.dumps(doc))
        want = run(capsys, "validate", str(path))
        proc = subprocess.run(
            [sys.executable, "-m", "ultragreedy", "validate", str(path)],
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stdout) == want[:2]
        assert want[0] == code

    def test_instance_read_as_utf8_under_ascii_locale(self, tmp_path):
        # JSON text is UTF-8: a non-ASCII label parses whatever the locale's encoding
        path = tmp_path / "cafe.json"
        path.write_bytes('{"points": ["caf\u00e9", "b"], "weights": ["1", "0"], "distances": [[], ["1"]]}'.encode())
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
        proc = subprocess.run(
            [sys.executable, "-m", "ultragreedy", "greedy", str(path)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)["traces"][0]["points"] == ["caf\u00e9", "b"]

    def test_tree_read_as_utf8_under_ascii_locale(self, tmp_path):
        path = tmp_path / "cafe.txt"
        path.write_bytes("root r\nr caf\u00e9 1\nr b 2\n".encode())
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
        proc = subprocess.run(
            [sys.executable, "-m", "ultragreedy", "tree", str(path)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)["points"] == ["caf\u00e9", "b"]

    @pytest.mark.parametrize("target", ["dir", "missing/out.json"])
    def test_unwritable_out_exits_2(self, capsys, parity5_file, tmp_path, target):
        (tmp_path / "dir").mkdir()
        out_path = tmp_path / target
        # a whole document, and greedy's stream of chunks
        for argv in (["generate", "--family", "constant", "--n", "3"], ["greedy", str(parity5_file), "--ties", "all"]):
            code, out, err = run(capsys, *argv, "--out", str(out_path))
            assert (code, out) == (2, "")
            assert err.startswith(f"error: cannot write {out_path}: ") and err.count("\n") == 1
        assert not (tmp_path / "missing").exists()

    def test_reader_closing_stdout_early_exits_2_without_traceback(self, capsys, tmp_path):
        # `| head -c 100` on about 1 MB of traces: the reader leaves while
        # the command is still writing
        path = tmp_path / "p.json"
        points = ",".join(str(x) for x in range(16))
        assert run(capsys, "generate", "--family", "padic", "--points", points, "--p", "2", "--out", str(path))[0] == 0
        argv = [sys.executable, "-m", "ultragreedy", "greedy", str(path), "--m", "4", "--ties", "all"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            head = proc.stdout.read(100)
            proc.stdout.close()
            err = proc.stderr.read().decode()
            code = proc.wait()
        assert head.startswith(b'{\n  "mode": "permutation",')
        assert (code, err) == (2, "error: stdout closed before all output was written\n")

    def test_reader_closing_stdout_and_stderr_early_exits_2(self, capsys, tmp_path):
        # `2>&1 | head -c 100`: the error line goes to the same closed pipe,
        # and writing it must not fail the exit code
        path = tmp_path / "p.json"
        points = ",".join(str(x) for x in range(16))
        assert run(capsys, "generate", "--family", "padic", "--points", points, "--p", "2", "--out", str(path))[0] == 0
        argv = [sys.executable, "-m", "ultragreedy", "greedy", str(path), "--m", "4", "--ties", "all"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT) as proc:
            head = proc.stdout.read(100)
            proc.stdout.close()
            code = proc.wait(timeout=60)
        assert head.startswith(b'{\n  "mode": "permutation",')
        assert code == 2

    @staticmethod
    def _closed(fd, *args):
        """Run the CLI with descriptor `fd` closed, as `>&-` or `2>&-` do in a
        shell: the interpreter then sets sys.stdout or sys.stderr to None."""
        argv = [sys.executable, "-m", "ultragreedy", *args]
        proc = subprocess.run(argv, capture_output=True, text=True, preexec_fn=lambda: os.close(fd))
        return proc.returncode, proc.stdout, proc.stderr

    def test_closed_stdout_exits_2_with_one_error_line(self, parity5_file):
        got = self._closed(1, "validate", str(parity5_file))
        assert got == (2, "", "error: stdout closed before all output was written\n")

    def test_closed_stdout_keeps_the_exit_code_of_out(self, capsys, parity5_file, tmp_path):
        out = tmp_path / "o.json"
        assert self._closed(1, "validate", str(parity5_file), "--out", str(out)) == (0, "", f"wrote {out}\n")
        assert out.read_text() == run(capsys, "validate", str(parity5_file))[1]
        check = ("pordering", "--p", "2", "--points", "0,1", "--check", "5", "--out", str(out))
        assert self._closed(1, *check) == (1, "", f"wrote {out}\n")
        assert out.read_text() == "false\n"

    def test_closed_stderr_keeps_its_lines_off_stdout(self, parity5_file, tmp_path):
        out = tmp_path / "o.json"
        assert self._closed(2, "validate", str(tmp_path / "missing.json")) == (2, "", "")
        assert self._closed(2, "validate", str(parity5_file), "--out", str(out)) == (0, "", "")
        assert json.loads(out.read_text())["ok"] is True


def _outcome(decode, text):
    try:
        return "value", repr(decode(text))  # repr tells 1, 1.0 and True apart
    except Exception as exc:
        return type(exc), str(exc)


_DEEP = 100_000
# what the sweep's edits write: JSON's own characters, a BOM and non-ASCII
_EDITS = '{}[],:"\\ \t\n\r0123456789-+.eE/abfnrtu\x00\x1f\ufeff\u00e9'


class TestDecoder:
    """`_decode` gives exactly json.loads's value or exception, message included.

    It walks a top-level object with json.decoder's JSONObject and JSONArray,
    which are not in the module's __all__, so CI runs this on every Python
    it supports.
    """

    @pytest.mark.parametrize("name", ["escapes8.json", "padic6.json", "planted5.system.json"])
    def test_sweep_of_truncations_and_edits(self, name):
        text = (GOLDEN / name).read_text(encoding="utf-8")
        compact = json.dumps(json.loads(text))
        rng = random.Random(name)
        cases = [src[:k] for src in (text, compact) for k in range(len(src) + 1)]
        for _ in range(4000):
            chars = list(rng.choice((text, compact)))
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(len(chars))
                op = rng.randrange(3)
                if op == 0:
                    chars[i] = rng.choice(_EDITS)
                elif op == 1:
                    del chars[i]
                else:
                    chars.insert(i, rng.choice(_EDITS))
            cases.append("".join(chars))
        malformed = 0
        for case in cases:
            got = _outcome(_decode, case)
            assert got == _outcome(json.loads, case), case
            malformed += got[0] != "value"
        assert 0 < malformed < len(cases)  # the sweep reaches both outcomes

    @pytest.mark.parametrize(
        "text",
        [
            '\ufeff{"a": ["1"]}',  # a BOM
            '{"a": ["1"]} x', '{"a": ["1"]}{}', '{"a": 1}]', ' \n{"a": [] }\t ',  # trailing data
            '["1", "1"]', '"x"', "3", "null", "", " ", "[", "]",  # not an object
            "[1,]", '{"a": [1,]}', '{"a": 1,}', '{"a": [1 2]}', '{"a": ["1"', '{"a": [', '{"a"', "{", "{}",
            '{"a": ["1"], "a": ["2"], "b": {"c": 1, "c": 2}}',  # duplicate keys
            '{"a": [NaN, Infinity, -Infinity], "b": NaN}', '{"a": [nan]}',
            '{"a": ["\x01"]}', '{"a\n": 1}', '{"a": "\t"}', '{"a": ["\\u00e9", "\\ud800", "\\x"]}',  # control characters, escapes
            '{"d": [["1", 2], [3, "4"], ["5", "5"], [], [[]], ["6", ["6"]], [true, "1", 1.0, 1]]}',  # mixed rows
            '{"a": ["1", 1, 1.0, true, null, {"1": "1"}, "1"]}',
        ],
        ids=repr,
    )
    def test_hand_picked_cases(self, text):
        assert _outcome(_decode, text) == _outcome(json.loads, text)

    @pytest.mark.parametrize(
        "text",
        [
            '{"a": ' + "[" * _DEEP + "]" * _DEEP + "}",
            '{"a": [' + '{"b": ' * _DEEP + "1" + "}" * _DEEP + "]}",
            "[" * _DEEP + "]" * _DEEP,
        ],
        ids=["array-in-object", "object-in-array", "top-level-array"],
    )
    def test_deep_nesting(self, text):
        got = _outcome(_decode, text)
        assert got[0] is RecursionError and got == _outcome(json.loads, text)

    def test_equal_strings_share_one_object(self):
        doc = _decode('{"w": ["1/2", "1/2"], "d": [[], ["1/2"], ["1/2", "3"]]}')
        w, d = doc["w"], doc["d"]
        assert w[0] is w[1] is d[1][0] is d[2][0]

    def test_set_system_files_skip_the_walk(self, capsys, monkeypatch):
        # their arrays hold numbers, with no strings to share: json.loads reads them faster
        monkeypatch.setattr("ultragreedy.cli._decode", None)
        code, out, _ = run(capsys, "greedoid", "--system", str(GOLDEN / "planted5.system.json"))
        assert code == 1 and json.loads(out)["all_hold"] is False

    def test_read_peak_memory(self, tmp_path):
        # json.loads keeps one string per table entry (45k here) until the
        # Fractions replace them; _decode keeps one per distinct value
        path = tmp_path / "padic300.json"
        path.write_text(json.dumps(instance_document(padic_triple(range(300), 2))))
        read_instance(str(path))  # modules loaded before the measured read
        tracemalloc.start()
        try:
            t = read_instance(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_400_000  # 1.98 MB through json.loads, 0.82 MB here
        entries = [x for row in t.dist for x in row]
        assert len({id(x) for x in entries}) == len(set(entries)) == 9  # one Fraction per distinct string


def _per_entry_document(t):
    """The instance document with one `str` call per entry: the reference."""
    doc = {
        "points": list(t.labels),
        "weights": [str(w) for w in t.weights],
        "distances": [[str(x) for x in row] for row in t.dist],
    }
    if isinstance(t, FullUltraTriple):
        doc["selfdist"] = [str(x) for x in t.selfdist]
    return doc


def _fresh(value):
    """An object equal to `value` that is not `value`."""
    return Fraction(value.numerator, value.denominator)


def _star_tree(n):
    # leaf i hangs from the root at weight i/7: every pair meets at the root, one distance object
    return tree_triple(WeightedTree(["r"] + [f"v{i}" for i in range(n)], [("r", f"v{i}", Fraction(i, 7)) for i in range(n)], "r"))


def _unshared(t):
    """t with each distance its own object: n(n-1)/2 of them."""
    return UltraTriple(t.labels, t.weights, [[_fresh(x) for x in row] for row in t.dist])


def _peak(fn, *args):
    """tracemalloc peak of fn(*args), in bytes: its result included."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


_X = Fraction(-7, 3)
_DOCUMENT_CASES = {
    "hierarchy": random_ultra_triple(5, 14, 4),
    "padic": padic_triple(range(40), 2),
    "padic-log": padic_log_triple(range(1, 30), 3, [Fraction(i, 5) for i in range(29)]),
    "full": extend_to_full(padic_triple(range(12), 3), Fraction(1, 9)),
    "equal-distinct-objects": UltraTriple(
        "abcd",
        [_fresh(Fraction(1, 2)) for _ in range(4)],
        [[], [_fresh(Fraction(2, 3))], [_fresh(Fraction(1, 2)), _fresh(Fraction(2, 3))], [_fresh(Fraction(2, 3))] * 3],
    ),
    "one-object-everywhere": FullUltraTriple("abc", [_X] * 3, [[], [_X], [_X, _X]], [_X] * 3),
    "empty": UltraTriple((), (), ()),
    "one-point": FullUltraTriple(("a",), (Fraction(5, 2),), ((),), (Fraction(-1),)),
    "tree": _star_tree(40),
    "tree-unshared": _unshared(_star_tree(40)),
    "shifted-unshared": shift_distances(extend_to_full(padic_triple(range(30), 2), 0), Fraction(1, 3)),
}


class TestInstanceDocument:
    """The writer formats each distinct rational object once, within a
    memo of 2n entries, and gives the per-entry document's exact bytes."""

    @pytest.mark.parametrize("name", list(_DOCUMENT_CASES))
    def test_matches_per_entry_reference(self, name):
        t = _DOCUMENT_CASES[name]
        want = _per_entry_document(t)
        got = instance_document(t)
        assert json.dumps(got) == json.dumps(want)
        assert json.dumps(got, indent=2) == json.dumps(want, indent=2)

    def test_unshared_tables_exceed_the_memo(self):
        # the cases above that the memo cannot hold: more than 2n distinct objects
        for name in ("tree-unshared", "shifted-unshared"):
            t = _DOCUMENT_CASES[name]
            assert len({id(x) for row in t.dist for x in row}) > 2 * t.n

    def test_distance_strings_shared(self):
        t = padic_triple(range(300), 2)
        doc = instance_document(t)
        shown = {id(s) for row in doc["distances"] for s in row}
        assert len(shown) <= t.n - 1  # 9 here; one per entry (44,850) when each is formatted
        assert len(shown) == len({s for row in doc["distances"] for s in row})

    def test_peak_memory_shared(self):
        t = padic_triple(range(300), 2)
        instance_document(padic_triple(range(3), 2))  # modules loaded before the measured call
        peak = _peak(instance_document, t)
        assert peak < 1_200_000  # 0.41 MB; 2.71 MB with one string per entry

    def test_peak_memory_unshared(self):
        # a table of distinct objects costs what one string per entry costs, plus the memo
        t = shift_distances(extend_to_full(padic_triple(range(300), 2), 0), 1)
        ref = _peak(_per_entry_document, t)
        peak = _peak(instance_document, t)
        assert peak <= 1.1 * ref  # 2.76 against 2.73 MB


@contextmanager
def _unlimited_digits():
    # for building and reading the oversized files only; `main` runs under
    # the default int/str digit limit and must lift it itself
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


class TestOversizedAndMalformedInput:
    """No input gives a traceback: exact answers or exit 2 with `error: ...`."""

    def test_5000_digit_weight_exact(self, capsys, tmp_path):
        big = 10**4999 + 7
        path = tmp_path / "big.json"
        with _unlimited_digits():
            path.write_text(
                '{"points": ["a", "b", "c"], "weights": [%d, "0", "1"], '
                '"distances": [[], ["1"], ["1", "1"]]}' % big
            )
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "greedy", str(path))
        assert code == 0 and err == ""
        assert sys.get_int_max_str_digits() == limit
        with _unlimited_digits():
            trace = json.loads(out)["traces"][0]
            assert trace["points"] == ["a", "c", "b"]
            assert trace["increments"] == [str(big), "2", "2"]
            assert trace["prefix_perimeters"] == [str(big), str(big + 2), str(big + 4)]

    def test_5000_digit_set_member_exit_2(self, capsys, tmp_path):
        path = tmp_path / "system.json"
        with _unlimited_digits():
            path.write_text('{"ground": 3, "sets": [[], [%d]]}' % (10**4999 + 7))
        code, out, err = run(capsys, "greedoid", "--system", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "does not fit in ground size 3" in err and len(err) < 200

    @pytest.mark.parametrize("ground", ["1e400", "2.5", "true", '"3"'])
    def test_non_integer_ground_exit_2(self, capsys, tmp_path, ground):
        path = tmp_path / "system.json"
        path.write_text('{"ground": %s, "sets": []}' % ground)
        code, out, err = run(capsys, "greedoid", "--system", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "ground must be an integer" in err

    @pytest.mark.parametrize("member, shown", [("true", "True"), ("1.0", "1.0"), ('"1"', "'1'")])
    def test_non_integer_set_member_exit_2(self, capsys, tmp_path, member, shown):
        path = tmp_path / "system.json"
        path.write_text('{"ground": 3, "sets": [[], [%s]]}' % member)
        code, out, err = run(capsys, "greedoid", "--system", str(path), "--emit", "check")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"point {shown} is not an integer" in err

    def test_large_denominators_exact(self, capsys, tmp_path):
        weights = [Fraction(1, 10**2500 + k) for k in (1, 3, 7)]
        path = tmp_path / "den.json"
        with _unlimited_digits():
            doc = {"points": ["a", "b", "c"], "weights": [str(w) for w in weights], "distances": [[], ["0"], ["0", "0"]]}
            path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "greedy", str(path))
        assert code == 0 and err == ""
        with _unlimited_digits():
            trace = json.loads(out)["traces"][0]
            assert trace["points"] == ["a", "b", "c"]
            assert [Fraction(x) for x in trace["increments"]] == weights
            sums = [sum(weights[: i + 1]) for i in range(3)]
            assert [Fraction(x) for x in trace["prefix_perimeters"]] == sums
            assert len(trace["prefix_perimeters"][2]) > 4300

    @pytest.mark.parametrize("argv", [["validate"], ["greedoid", "--system"]], ids=["instance", "system"])
    def test_invalid_utf8_exit_2(self, capsys, tmp_path, argv):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"points": ["\xff"]}')
        code, out, err = run(capsys, *argv, str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path} is not valid UTF-8: ") and err.count("\n") == 1
        assert "can't decode byte 0xff in position 13" in err

    def test_deep_nesting_exit_2(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, _, err = run(capsys, "greedy", str(path))
        assert code == 2 and "is not valid JSON" in err


# any JSON value, for the fields of an input document
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_RATIONAL = st.sampled_from(["0", "1", "2", "3", "-1", "1/2", "-3/4", " 5 "])
# entries of a weight or distance row: well- and ill-formed rational strings,
# JSON numbers and anything else
_ENTRY = _RATIONAL | st.sampled_from(["1/0", "x", "1.5", "1/-2", ""]) | st.integers(-3, 3) | _JSON
_SMALL = st.none() | st.integers(-2, 3)  # --cap and --m; None keeps the default
_RARELY = st.sampled_from([False, False, False, True])


@st.composite
def _instance_documents(draw):
    """Mostly well-formed instances, so that the commands get past parsing:
    half have only rational strings, and each field is rarely dropped or
    replaced by any JSON value."""
    n = draw(st.integers(0, 5))
    entry = draw(st.sampled_from([_RATIONAL, _ENTRY]))

    def row(size):
        return st.lists(entry, min_size=size, max_size=size)

    doc = {
        "points": [str(a) for a in range(n)],
        "weights": draw(row(n)),
        "distances": [draw(row(i)) for i in range(n)],
        "selfdist": draw(row(n)),
    }
    for key in list(doc):
        if key == "selfdist" and draw(st.booleans()):
            del doc[key]  # a plain triple
        elif draw(_RARELY):
            if draw(st.booleans()):
                del doc[key]
            else:
                doc[key] = draw(_JSON)
    return doc


_SYSTEM_DOCUMENTS = st.fixed_dictionaries(
    {
        "ground": st.integers(-1, 5) | _JSON,
        "sets": st.lists(st.lists(st.integers(-1, 5) | _JSON, max_size=3), max_size=6) | _JSON,
    }
)


# each command with the options drawn for it; "{}" stands for the input file
_COMMANDS = {
    "validate": (["validate", "{}"], ("--cap",)),
    "greedy-first": (["greedy", "{}", "--ties", "first"], ("--m",)),
    "greedy-all": (["greedy", "{}", "--ties", "all"], ("--m", "--cap")),
    "nu": (["nu", "{}"], ("--k",)),
    "greedy-subseq": (["greedy", "{}", "--mode", "subseq"], ("--m",)),
    "nu-subseq": (["nu", "{}", "--mode", "subseq"], ("--k",)),
    "greedoid-sets": (["greedoid", "{}", "--emit", "sets"], ("--cap",)),
    "greedoid-check": (["greedoid", "{}", "--emit", "check"], ("--cap",)),
    "system-sets": (["greedoid", "--system", "{}", "--emit", "sets"], ()),
    "system-check": (["greedoid", "--system", "{}", "--emit", "check"], ()),
}


@st.composite
def _invocations(draw):
    """A command line and the bytes of the file it reads."""
    name = draw(st.sampled_from(sorted(_COMMANDS)))
    argv, options = _COMMANDS[name]
    for option in options:
        value = draw(st.integers(-2, 3) if option == "--k" else _SMALL)  # --k is required
        if name.endswith("subseq") and draw(_RARELY):
            value = 10**6 + 1  # past the subsequence cap
        if value is not None:
            argv = [*argv, f"{option}={value}"]
    if draw(_RARELY):
        doc = draw(_JSON)
    else:
        doc = draw(_SYSTEM_DOCUMENTS if name.startswith("system") else _instance_documents())
    data = json.dumps(doc).encode()
    if draw(_RARELY):  # malformed JSON text
        data = data[: draw(st.integers(0, len(data)))]
    if draw(_RARELY):  # a byte that is never valid UTF-8, anywhere in the file
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3(", b"\x80"])) + data[at:]
    return argv, data


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(invocation=_invocations())
def test_any_input_keeps_the_exit_contract(fuzz_dir, invocation):
    """0, 1 or 2 and never a traceback; a 2 writes nothing to stdout and
    one `error:` line to stderr."""
    argv, data = invocation
    path = fuzz_dir / "input.json"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(path) if a == "{}" else a for a in argv])
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        json.loads(out.getvalue())


def _mostly(usual, edge):
    """A draw of usual, or of edge about one time in four."""
    return st.builds(lambda rare, u, e: e if rare else u, _RARELY, usual, edge)


# words from the edges of the rational grammar: empty, blank, a plus sign, a
# zero denominator, a decimal, a non-ASCII digit, a letter, a huge integer
_EDGE = st.sampled_from(["", " ", "+2", "1/0", "1.5", "٣", "x", " 5 ", str(2**100)])
_INT = st.integers(-3, 9).map(str)
_RAT = st.sampled_from(["-2", "0", "1", "2", "1/2", "-3/4", "7/3"])


@st.composite
def _lists(draw, entry):
    """At most six entries, so repeated points are frequent; rarely one edge word."""
    words = draw(st.lists(entry, max_size=6))
    if draw(_RARELY):
        words.insert(draw(st.integers(0, len(words))), draw(_EDGE))
    return ",".join(words)


# primes, 2**61 - 1 among them; rarely a composite, a unit, a negative, a
# Mersenne prime past the exact range of the primality test or a malformed p
_P = _mostly(
    st.sampled_from(["2", "3", "5", str(2**61 - 1)]),
    st.sampled_from(["4", "9", "1", "0", "-2", str(2**89 - 1), str(10**30), "+2", "1.5"]),
)
# --n (held to 2000 like every built triple), --depth and pordering's --m
# are capped, and their draws go past the caps; so do --points, held to 2000
# too.
_SIZE = _mostly(st.integers(-1, 18).map(str), st.sampled_from(["", "+2", "1.5", "٣"]))
_GENERATE_NEEDS = {
    "constant": ("--n",),
    "mod": ("--points", "--m", "--eps", "--alpha"),
    "padic": ("--points", "--p"),
    "padic-log": ("--points", "--p"),
    "rseq": ("--points", "--r", "--c"),
    "random": ("--n",),
}
_GENERATE_OPTIONS = {
    "--points": _lists(_INT) | st.just(",".join(map(str, range(2001)))),
    "--n": _SIZE | st.sampled_from(["2001", str(10**12)]),
    "--weights": _lists(_RAT), "--m": _mostly(_INT, _EDGE),
    "--eps": _mostly(_RAT, _EDGE), "--alpha": _mostly(_RAT, _EDGE), "--p": _P, "--r": _lists(_INT),
    "--c": _lists(_RAT), "--seed": _mostly(_INT, _EDGE),
    "--depth": _SIZE | st.sampled_from(["1000001", str(10**12)]),
}
_TREE_NAMES = "rabcd"
# a line that breaks a tree file or repeats a directive
_TREE_FAULT = st.sampled_from(
    ["root r", "root", "root r a", "leaves a,a", "leaves", "leaves a,,c", "a b c d", "r r 1", "a b 1", "b x -1", "c d 1/0"]
)


@st.composite
def _tree_files(draw):
    """At most eight lines: a tree on r, a, b, ... rooted at r, sometimes with a
    leaves line, and rarely lines that break it or repeat a directive."""
    k = draw(st.integers(1, len(_TREE_NAMES)))
    weight = _mostly(st.sampled_from(["0", "1", "2", "1/2", "7/3"]), _EDGE)
    lines = ["root r"]
    for i in range(1, k):
        lines.append(f"{_TREE_NAMES[draw(st.integers(0, i - 1))]} {_TREE_NAMES[i]} {draw(weight)}")
    if draw(st.booleans()):
        lines.append("leaves " + ",".join(draw(st.lists(st.sampled_from(_TREE_NAMES[:k]), min_size=1, max_size=3))))
    while len(lines) < 8 and draw(_RARELY):
        lines.insert(draw(st.integers(0, len(lines))), draw(_TREE_FAULT))
    return "\n".join(lines).encode()


@st.composite
def _other_invocations(draw):
    """A `generate`, `tree` or `pordering` command line and the bytes of the
    tree file it may read."""
    command = draw(st.sampled_from(["generate", "tree", "pordering"]))
    data = b""
    if command == "generate":
        family = draw(st.sampled_from(sorted(_GENERATE_NEEDS)))
        argv = ["generate", f"--family={family}"]
        needs = _GENERATE_NEEDS[family]
        missing = draw(st.sampled_from(needs)) if draw(_RARELY) else None  # rarely one needed option
        for option, values in _GENERATE_OPTIONS.items():
            if option != missing and (option in needs or draw(_RARELY)):
                argv.append(f"{option}={draw(values)}")
    elif command == "tree":
        argv = ["tree", "{}"]
        data = draw(_tree_files())
    else:
        argv = ["pordering", f"--p={draw(_P)}"]
        if not draw(_RARELY):
            argv.append(f"--points={draw(_lists(_INT))}")
        for option, values in (("--m", _SIZE | st.just("1000001")), ("--check", _lists(_INT))):
            if draw(st.booleans()):
                argv.append(f"{option}={draw(values)}")
    return argv, data


@settings(max_examples=300, deadline=None, derandomize=True)
@given(invocation=_other_invocations())
def test_any_option_keeps_the_exit_contract(fuzz_dir, invocation):
    """0, 1 or 2 and never a traceback; a 2 writes nothing to stdout and one
    `error:` line to stderr, after argparse's usage lines for a bad option."""
    argv, data = invocation
    path = fuzz_dir / "tree.txt"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(path) if a == "{}" else a for a in argv])
    assert code in (0, 1, 2)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert out.getvalue() == ""
        assert sum("error: " in line for line in lines) == 1 and "Traceback" not in err.getvalue()
        if not lines[0].startswith("usage: "):
            assert len(lines) == 1 and lines[0].startswith("error: ")
    else:
        json.loads(out.getvalue())
