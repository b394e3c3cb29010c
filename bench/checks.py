"""Output checks for benchmark jobs, run outside the timed region.

Each `checks.<kind>(...)` call returns a function that takes a job's stdout
and returns an error message, or None when the output is right; output it
cannot parse raises, and the caller counts that as a failure.  The
references here share no code with the package's selection, enumeration,
validity or axiom code:

- greedy traces, `nu` values and tie enumerations are recomputed with an
  incremental gain vector over plain lists (one distance row per pick);
- prefix perimeters are recomputed with the raw `perimeter_set` /
  `perimeter_tuple` on a sample of prefixes (every prefix for tie
  enumerations);
- every greedoid level must share one perimeter, equal to the greedy prefix
  perimeter of that size, and hold every maximum-gain one-point extension
  of the level below; the smallest greedoid is also compared with the
  `brute_max_perimeter` oracle;
- every reported violation and every witness of a planted defect is
  re-checked against the instance or set system that was written;
- P-orderings use a local p-adic valuation.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Callable, Sequence

from ultragreedy.core import FullUltraTriple, UltraTriple, perimeter_set, perimeter_tuple
from ultragreedy.oracle import brute_max_perimeter

Check = Callable[[str], "str | None"]


class Ref:
    """A bench-local copy of a triple: weights and a full symmetric distance matrix."""

    def __init__(self, t: UltraTriple) -> None:
        n = len(t.labels)
        self.n = n
        self.labels = list(t.labels)
        self.w = list(t.weights)
        self.D: list[list[Fraction | None]] = [[None] * n for _ in range(n)]
        for i, row in enumerate(t.dist):
            for j, x in enumerate(row):
                self.D[i][j] = self.D[j][i] = x
        if isinstance(t, FullUltraTriple):
            for i, x in enumerate(t.selfdist):
                self.D[i][i] = x


def _lazy(t: UltraTriple, body: Callable[[Ref, str], "str | None"]) -> Check:
    """A check that builds its `Ref` on first use, outside set-up."""
    ref: list[Ref] = []

    def check(stdout: str) -> str | None:
        if not ref:
            ref.append(Ref(t))
        return body(ref[0], stdout)

    return check


def greedy_ref(r: Ref, pts: Sequence[int], m: int, repeat: bool) -> tuple[list[int], list[Fraction]]:
    """Lowest-index greedy selection with an incremental gain vector."""
    gains = {x: r.w[x] for x in pts}
    taken: set[int] = set()
    chosen: list[int] = []
    increments: list[Fraction] = []
    for _ in range(m):
        best = pick = None
        for x in pts:
            if not repeat and x in taken:
                continue
            if best is None or gains[x] > best:
                best, pick = gains[x], x
        chosen.append(pick)
        increments.append(best)
        taken.add(pick)
        row = r.D[pick]
        for x in pts:
            if repeat or x not in taken:
                gains[x] += row[x]
    return chosen, increments


def all_greedy_ref(r: Ref, pts: Sequence[int], m: int) -> list[tuple[tuple[int, ...], tuple[Fraction, ...]]]:
    """Every greedy m-permutation, in lexicographic order, by depth-first branching."""
    out = []
    stack = [((), (), {x: r.w[x] for x in pts})]
    while stack:
        chosen, increments, gains = stack.pop()
        if len(chosen) == m:
            out.append((chosen, increments))
            continue
        best = max(gains.values())
        children = []
        for x in sorted(gains):
            if gains[x] == best:
                row = r.D[x]
                nxt = {y: g + row[y] for y, g in gains.items() if y != x}
                children.append((chosen + (x,), increments + (best,), nxt))
        stack.extend(reversed(children))
    return out


def _sample(m: int) -> list[int]:
    """Prefix lengths whose perimeter is recomputed from scratch."""
    return sorted({k for k in (1, 2, m // 4, m // 2, 3 * m // 4, m) if 1 <= k <= m})


def _trace_error(r: Ref, t: UltraTriple, doc: dict, seq: Sequence[int], incs: Sequence[Fraction], repeat: bool, prefixes: Sequence[int], memo: dict) -> str | None:
    labels = [r.labels[a] for a in seq]
    if doc["points"] != labels:
        return f"points {doc['points'][:8]}... differ from greedy {labels[:8]}..."
    if doc["increments"] != [str(x) for x in incs]:
        return "increments differ from the incremental-gain greedy"
    total = Fraction(0)
    sums = []
    for x in incs:
        total += x
        sums.append(str(total))
    if doc["prefix_perimeters"] != sums:
        return "prefix perimeters are not the running sums of the increments"
    for k in prefixes:
        key = tuple(seq[:k]) if repeat else frozenset(seq[:k])
        if key not in memo:
            memo[key] = str(perimeter_tuple(t, seq[:k]) if repeat else perimeter_set(t, seq[:k]))
        if memo[key] != sums[k - 1]:
            return f"prefix perimeter {k} is {sums[k - 1]}, raw perimeter is {memo[key]}"
    return None


def greedy_trace(t: UltraTriple, subset: Sequence[int] | None, m: int, repeat: bool = False) -> Check:
    """`greedy` with lowest-index ties: one trace, equal to the local greedy."""

    def body(r: Ref, stdout: str) -> str | None:
        doc = json.loads(stdout)
        mode = "subsequence" if repeat else "permutation"
        if doc["mode"] != mode or len(doc["traces"]) != 1:
            return f"expected one {mode} trace"
        pts = sorted(subset) if subset is not None else list(range(r.n))
        seq, incs = greedy_ref(r, pts, m, repeat)
        return _trace_error(r, t, doc["traces"][0], seq, incs, repeat, _sample(m), {})

    return _lazy(t, body)


def all_traces(t: UltraTriple, m: int) -> Check:
    """`greedy --ties all`: exactly the local enumeration, every prefix re-scored."""

    def body(r: Ref, stdout: str) -> str | None:
        doc = json.loads(stdout)
        expected = all_greedy_ref(r, list(range(r.n)), m)
        if doc["mode"] != "permutation" or len(doc["traces"]) != len(expected):
            return f"{len(doc['traces'])} traces, expected {len(expected)}"
        memo: dict = {}
        for trace, (seq, incs) in zip(doc["traces"], expected):
            err = _trace_error(r, t, trace, seq, incs, False, range(1, m + 1), memo)
            if err:
                return err
        return None

    return _lazy(t, body)


def nu_value(t: UltraTriple, k: int, repeat: bool) -> Check:
    """`nu`: the k-th increment of the local greedy."""

    def body(r: Ref, stdout: str) -> str | None:
        _, incs = greedy_ref(r, list(range(r.n)), k, repeat)
        got = json.loads(stdout)
        return None if got == str(incs[k - 1]) else f"nu is {got}, greedy increment is {incs[k - 1]}"

    return _lazy(t, body)


def violations(t: UltraTriple, planted: Sequence[tuple[int, int]]) -> Check:
    """`validate`: each violation re-checked, and exactly the planted ones reported.

    `t` is the triple as written; every planted pair is farther apart than
    any other pair, so it violates the inequality against every third point.
    """

    def body(r: Ref, stdout: str) -> str | None:
        doc = json.loads(stdout)
        index = {label: i for i, label in enumerate(r.labels)}
        seen = set()
        for v in doc["violations"]:
            p, q, s = (index[x] for x in v["points"])
            lhs, rhs = r.D[p][q], max(r.D[p][s], r.D[q][s])
            if str(lhs) != v["lhs"] or str(rhs) != v["rhs"] or not lhs > rhs:
                return f"reported violation {v} does not hold"
            seen.add((p, q, s))
        expected = {(p, q, s) for p, q in planted for s in range(r.n) if s not in (p, q)}
        if seen != expected or len(seen) != len(doc["violations"]):
            return f"{len(doc['violations'])} violations reported, {len(expected)} planted"
        if doc["ok"] != (not planted):
            return "ok flag disagrees with the violation list"
        return None

    return _lazy(t, body)


def greedoid_sets(t: UltraTriple, brute: bool) -> Check:
    """`greedoid --emit sets`: one perimeter per level, equal to the greedy prefix perimeter."""

    def body(r: Ref, stdout: str) -> str | None:
        doc = json.loads(stdout)
        if doc["ground"] != r.n or doc["labels"] != r.labels:
            return "ground or labels differ from the instance"
        if [lv["k"] for lv in doc["levels"]] != list(range(r.n + 1)):
            return "a cardinality level is missing"
        seq, incs = greedy_ref(r, list(range(r.n)), r.n, False)
        levels = [{frozenset(s) for s in lv["sets"]} for lv in doc["levels"]]
        best = Fraction(0)
        for k, lv in enumerate(doc["levels"]):
            if k:
                best += incs[k - 1]
            members = [tuple(s) for s in lv["sets"]]
            if len(levels[k]) != len(members) or any(len(set(s)) != k for s in members):
                return f"level {k} has repeated or wrong-sized sets"
            if any(perimeter_set(t, s) != best for s in members):
                return f"level {k} has a set whose perimeter is not the greedy prefix perimeter {best}"
            if frozenset(seq[:k]) not in levels[k]:
                return f"level {k} misses the greedy prefix"
            # completeness: on a valid triple every maximum (k+1)-set is a
            # maximum-gain extension of a maximum k-set
            for A in levels[k] if k < r.n else ():
                for x in range(r.n):
                    if x not in A and r.w[x] + sum(r.D[a][x] for a in A) == incs[k] and A | {x} not in levels[k + 1]:
                        return f"level {k + 1} misses the maximum extension {sorted(A | {x})}"
            if brute and levels[k] != set(brute_max_perimeter(t, range(r.n), k).argmax):
                return f"level {k} differs from the brute-force maximum sets"
        return None

    return _lazy(t, body)


def greedoid_holds(n: int) -> Check:
    """`greedoid --emit check` on a valid triple: every axiom and level holds."""

    def check(stdout: str) -> str | None:
        doc = json.loads(stdout)
        axioms = [(a["axiom"], a["holds"]) for a in doc["axioms"]]
        if axioms != [("i", True), ("ii", True), ("iii", True), ("iv", True)]:
            return f"axioms {axioms} on a valid triple"
        if [(lv["k"], lv["holds"]) for lv in doc["matroid"]] != [(k, True) for k in range(n + 1)]:
            return "a matroid level fails on a valid triple"
        return None if doc["all_hold"] is True else "all_hold is not true"

    return check


def _witness_error(S: set[frozenset[int]], axiom: str, w: dict) -> str | None:
    """None when the witness really breaks the axiom in S."""
    if axiom == "i":
        return None if frozenset() not in S else "empty set is present"
    if axiom == "ii":
        B = frozenset(w["B"])
        if B in S and B and not any(B - {b} in S for b in B):
            return None
        return "axiom ii witness does not fail"
    if axiom in ("iii", "iv"):
        A, B = frozenset(w["A"]), frozenset(w["B"])
        if A not in S or B not in S or len(B) != len(A) + 1:
            return f"axiom {axiom} witness is not a pair of members"
        ok = [x for x in B - A if A | {x} in S and (axiom == "iii" or B - {x} in S)]
        return None if not ok else f"axiom {axiom} witness has exchange element {ok[0]}"
    B1, B2, x = frozenset(w["B1"]), frozenset(w["B2"]), w["x"]
    if B1 not in S or B2 not in S or x not in B1 - B2:
        return "matroid witness is not a pair of members with x in B1 - B2"
    ok = [y for y in B2 - B1 if (B1 - {x}) | {y} in S]
    return None if not ok else f"matroid witness has exchange element {ok[0]}"


def planted_report(ground: int, sets: list[list[int]], rank: int) -> Check:
    """`greedoid --system` on a planted defect: found, and every witness re-checked."""
    S = {frozenset(s) for s in sets}

    def check(stdout: str) -> str | None:
        doc = json.loads(stdout)
        axioms = [(a["axiom"], a["holds"]) for a in doc["axioms"]]
        if axioms != [("i", True), ("ii", True), ("iii", False), ("iv", False)]:
            return f"axiom verdicts {axioms} miss the planted defect"
        levels = [(lv["k"], lv["holds"]) for lv in doc["matroid"]]
        if levels != [(k, k <= rank) for k in range(rank + 2)]:
            return f"matroid verdicts {levels} miss the planted defect"
        for a in doc["axioms"]:
            if not a["holds"] and (err := _witness_error(S, a["axiom"], a["witness"])):
                return err
        for lv in doc["matroid"]:
            if not lv["holds"] and (err := _witness_error(S, "matroid", lv["witness"])):
                return err
        return None if doc["all_hold"] is False else "all_hold is not false"

    return check


def _vp(p: int, x: int) -> int | None:
    if x == 0:
        return None
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _valuations(pool: Sequence[int], p: int, prefix: Sequence[int]) -> list[float]:
    out = []
    for x in pool:
        parts = [_vp(p, x - a) for a in prefix]
        out.append(float("inf") if None in parts else sum(parts))
    return out


def pm_ordering_ref(E: Sequence[int], p: int, m: int) -> list[int]:
    """Each entry minimizes the valuation of its difference product; ties to the smallest."""
    pool = sorted(set(E))
    seq: list[int] = []
    for _ in range(m):
        vals = _valuations(pool, p, seq)
        seq.append(min(zip(vals, pool))[1])
    return seq


def is_pm_ordering_ref(E: Sequence[int], p: int, seq: Sequence[int]) -> bool:
    pool = sorted(set(E))
    for k, c in enumerate(seq):
        vals = _valuations(pool, p, seq[:k])
        if min(vals) < vals[pool.index(c)]:
            return False
    return True


def spoil(E: Sequence[int], p: int, seq: Sequence[int]) -> list[int]:
    """The longest prefix of a P-ordering, extended by one entry that is not minimal."""
    pool = sorted(set(E))
    for k in range(len(seq) - 1, -1, -1):
        vals = _valuations(pool, p, seq[:k])
        worse = [x for v, x in zip(vals, pool) if v > min(vals) and v != float("inf")]
        if worse:
            return list(seq[:k]) + [worse[0]]
    raise ValueError("every step of the sequence is a forced choice")


def pordering(E: Sequence[int], p: int, m: int) -> Check:
    expected = []

    def check(stdout: str) -> str | None:
        if not expected:
            expected.append(pm_ordering_ref(E, p, m))
        got = json.loads(stdout)
        return None if got == expected[0] else f"P-ordering {got[:8]}... differs from {expected[0][:8]}..."

    return check


def verdict(expected: bool) -> Check:
    def check(stdout: str) -> str | None:
        return None if json.loads(stdout) is expected else f"verdict is not {expected}"

    return check

