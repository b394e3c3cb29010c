import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from ultragreedy import (
    FullUltraTriple,
    GreedyTrace,
    UltraTriple,
    all_greedy_traces,
    bhargava_greedoid,
    extend_to_full,
    greedy_permutation,
    greedy_subsequence,
    is_pm_ordering,
    level_sets,
    padic_log_triple,
    padic_triple,
    points_from_mask,
    random_ultra_triple,
)
from ultragreedy.cli import _rational, _traces_json, main, parse_tree_file, read_instance

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


def _assert_writer_matches(t, mode, traces):
    # the writer takes (points, increments) pairs and yields the document in chunks
    pairs = [(tr.points, tr.increments) for tr in traces]
    assert "".join(_traces_json(t, mode, pairs)) == _reference_json(t, mode, traces)


class TestTraceWriter:
    """`greedy` output equals `json.dumps(indent=2)` of the full document, byte for byte."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_valid_triples(self, seed):
        t = _relabel(random_ultra_triple(seed, 3 + seed % 6, 1 + seed % 3))
        for m in range(t.n + 1):
            _assert_writer_matches(t, "permutation", all_greedy_traces(t, t.points(), m))
        _assert_writer_matches(t, "permutation", [greedy_permutation(t, t.points(), t.n)])

    @pytest.mark.parametrize("build, p", [(padic_triple, 2), (padic_triple, 3), (padic_log_triple, 2)])
    def test_padic_triples(self, build, p):
        t = _relabel(build(range(9), p))
        for m in (0, 1, 3, 5, 9):
            traces = all_greedy_traces(t, t.points(), m)
            if m >= 3:
                assert len(traces) > 1
            _assert_writer_matches(t, "permutation", traces)

    def test_invalid_ties6(self):
        t = _relabel(read_instance(str(GOLDEN / "ties6.json")))
        for m in range(t.n + 1):
            _assert_writer_matches(t, "permutation", all_greedy_traces(t, t.points(), m))
        for m in (0, 1, 9):
            _assert_writer_matches(t, "subsequence", [greedy_subsequence(t, t.points(), m)])

    def test_empty_selections(self):
        t = _relabel(padic_triple(range(4), 2))
        for pts in ([], [1, 3], t.points()):
            _assert_writer_matches(t, "permutation", all_greedy_traces(t, pts, 0))
        _assert_writer_matches(t, "permutation", all_greedy_traces(t, [], 0) * 3)
        _assert_writer_matches(t, "permutation", [])

    def test_subsequence_mode(self):
        t = _relabel(extend_to_full(padic_triple(range(6), 2), Fraction(1, 4)))
        for m in (0, 1, 4, 11):
            _assert_writer_matches(t, "subsequence", [greedy_subsequence(t, [0, 2, 5], m)])

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
        _assert_writer_matches(t, "permutation", traces)
        _assert_writer_matches(t, "permutation", traces[::-1])


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

    def test_leafset_directive(self, capsys, tmp_path):
        tree = tmp_path / "t.txt"
        tree.write_text("root r\nleaves a,b\nr a 1\na b 1\n")
        code, out, _ = run(capsys, "tree", str(tree))
        assert code == 0
        doc = json.loads(out)
        assert doc["points"] == ["a", "b"]
        assert doc["distances"][1] == ["-2"]

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
        "text", ["1/-2", "-1/-2", "+1", "1.5", "1e3", "1_000", "1 / 2", "", "/2", "2/"]
    )
    def test_rejected(self, capsys, tmp_path, text):
        code, out, err = run(capsys, "nu", _one_point_instance(tmp_path, text), "--k", "1")
        assert (code, out) == (2, "")
        assert err == f"error: bad rational in weights: {text!r} is not p/q or integer\n"

    def test_zero_denominator(self, capsys, tmp_path):
        code, out, err = run(capsys, "nu", _one_point_instance(tmp_path, "1/0"), "--k", "1")
        assert (code, out, err) == (2, "", "error: bad rational in weights: Fraction(1, 0)\n")


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


class TestParsing:
    def test_no_arguments(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_module_entry_point(self, parity5_file):
        proc = subprocess.run(
            [sys.executable, "-m", "ultragreedy", "validate", str(parity5_file)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["ok"] is True

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

    def test_deep_nesting_exit_2(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, _, err = run(capsys, "greedy", str(path))
        assert code == 2 and "is not valid JSON" in err
