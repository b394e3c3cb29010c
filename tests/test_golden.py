"""Byte-for-byte CLI stdout on three tiny instances.

The expected outputs under tests/golden/ pin the exact stdout and exit code
of the selection, increment, greedoid and P-ordering subcommands, so a
rewrite of the kernels behind them cannot change a single byte unnoticed.
`ties6` is an invalid, tie-heavy full triple, so lowest-index tie-breaking
is pinned too; its greedoid fails axioms (ii)-(iv) and two matroid levels,
which pins the checkers' witnesses, and its `validate` report lists
self-distance violations (b, b, a) and exits 1.  `planted5.system.json` is every subset
of size <= 2 of five points plus two 3-sets sharing one point.  `escapes8` is a
valid full triple whose labels need JSON escapes (a quote, a backslash, a
newline, a tab, non-ASCII, U+2028 and a non-BMP emoji), so the `greedy`
writer's escaping is pinned.  `selfdist6` is a full triple that is ultrametric
off the diagonal and fails only through one oversized self-distance, (d, d, r)
for every r; no set perimeter reads a self-distance, so its greedoid is the
cluster tree's.  The `generate` cases cover every family, `random` with
given weights too (its distances are those of the unweighted seed), and
`tree7.txt` is a small weighted tree with fractional edge weights, so the
instance writer behind `generate` and `tree` is pinned too.

Regenerate (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden.py --regen
"""

from __future__ import annotations

import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from ultragreedy.cli import main

GOLDEN = Path(__file__).parent / "golden"
INSTANCES = ("parity5", "padic6", "ties6")
PORDERING = (
    ("p2", ["--p", "2", "--points", "0,1,2,9,17,128"]),
    ("p3", ["--p", "3", "--points", "0,1,2,3,4,5,6,12", "--m", "11"]),
    ("p5", ["--p", "5", "--points=-7,3,8,13,20,33,58", "--m", "4"]),
)
CHECKS = (
    ("p2-good", ["--p", "2", "--points", "0,1,2,9,17,128", "--check", "2,9,0,17,1"]),
    ("p2-bad", ["--p", "2", "--points", "0,1,2,9,17,128", "--check", "2,9,17,0,1"]),
    ("p3-repeat", ["--p", "3", "--points", "0,1,2,3,4,5,6,12", "--check", "0,1,2,3,4,5,6,12,0,0"]),
    ("p3-early-repeat", ["--p", "3", "--points", "0,1,2,3,4,5,6,12", "--check", "0,3,0"]),
)
GENERATE = (
    ("constant-weights", ["--family", "constant", "--n", "5", "--weights", "1/2,-3,0,7,2/3"]),
    ("mod", ["--family", "mod", "--points", "1,2,3,4,5,6,7", "--m", "3", "--eps", "1/2", "--alpha", "2"]),
    ("padic", ["--family", "padic", "--points", "0,1,2,3,4,5,6,7,8,12,16", "--p", "2"]),
    ("padic-log", ["--family", "padic-log", "--points=-3,0,1,3,9,27,30", "--p", "3", "--weights", "1,2,3,4,5,6,-1/7"]),
    ("rseq", ["--family", "rseq", "--points", "0,1,2,3,4,6,8,12", "--r", "1,2,4", "--c", "3,2,1/2"]),
    ("rseq-negative-r0", ["--family", "rseq", "--points=-6,-2,0,4,8,12", "--r=-2,4,0", "--c", "3,2"]),
    ("random-seed7", ["--family", "random", "--n", "7", "--seed", "7"]),
    ("random-seed7-weights", ["--family", "random", "--n", "7", "--seed", "7", "--weights", "1,2,3,4,5,6,-1/7"]),
)


def _cases() -> list[tuple[str, list[str]]]:
    cases = []
    for name in INSTANCES:
        path = str(GOLDEN / f"{name}.json")
        cases += [
            (f"{name}.greedy", ["greedy", path]),
            (f"{name}.greedy-ties-all-m3", ["greedy", path, "--ties", "all", "--m", "3"]),
            (f"{name}.greedy-subseq", ["greedy", path, "--mode", "subseq"]),
            (f"{name}.nu-k3", ["nu", path, "--k", "3"]),
            (f"{name}.nu-subseq-k4", ["nu", path, "--mode", "subseq", "--k", "4"]),
            (f"{name}.greedoid-sets", ["greedoid", path, "--emit", "sets"]),
            (f"{name}.greedoid-check", ["greedoid", path, "--emit", "check"]),
            (f"{name}.validate", ["validate", path]),
        ]
    path = str(GOLDEN / "escapes8.json")
    cases += [
        ("escapes8.greedy", ["greedy", path]),
        ("escapes8.greedy-ties-all-m3", ["greedy", path, "--ties", "all", "--m", "3"]),
        ("escapes8.greedy-subseq", ["greedy", path, "--mode", "subseq"]),
    ]
    path = str(GOLDEN / "selfdist6.json")
    cases += [
        ("selfdist6.greedoid-sets", ["greedoid", path, "--emit", "sets"]),
        ("selfdist6.greedoid-check", ["greedoid", path, "--emit", "check"]),
    ]
    cases.append(("planted5.greedoid-system", ["greedoid", "--system", str(GOLDEN / "planted5.system.json")]))
    cases += [(f"pordering-{name}", ["pordering", *argv]) for name, argv in PORDERING]
    cases += [(f"pordering-check-{name}", ["pordering", *argv]) for name, argv in CHECKS]
    cases += [(f"generate-{name}", ["generate", *argv]) for name, argv in GENERATE]
    cases.append(("tree7.tree", ["tree", str(GOLDEN / "tree7.txt")]))
    return cases


def _run(argv: list[str]) -> str:
    """Exit code on the first line, then stdout exactly as printed."""
    buf = StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return f"exit {code}\n{buf.getvalue()}"


@pytest.mark.parametrize("name,argv", _cases(), ids=[name for name, _ in _cases()])
def test_stdout_matches_golden(name, argv):
    want = (GOLDEN / f"{name}.out").read_text()
    assert _run(argv) == want


if __name__ == "__main__" and sys.argv[1:] == ["--regen"]:
    for name, argv in _cases():
        (GOLDEN / f"{name}.out").write_text(_run(argv))
