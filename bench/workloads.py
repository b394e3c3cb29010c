"""Seeded instances and fixed job lists for the three benchmark workloads.

Every instance is built with the package's own constructors and written
with `cli.instance_document`, the same JSON a user would feed the CLI.
Sizes are fixed per job slot; the seed only changes the random structure
(partitions, distances, weights, integer pools, planted defects), so a run
on any seed does about the same amount of work.

Each job carries the exit code it must return and a check of its stdout.
The checks live in `checks.py` and are run outside the timed region.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import Callable

from ultragreedy import EquivHierarchy, eqrel_triple, extend_to_full, padic_triple
from ultragreedy.cli import instance_document
from ultragreedy.core import UltraTriple

import checks

@dataclass
class Job:
    """One `python -m ultragreedy <argv>` invocation and how to judge it."""

    name: str
    argv: list[str]
    expect_exit: int
    check: Callable[[str], str | None]  # stdout -> error message, or None if right


class Setup:
    """Writes instance files into `workdir` and times the two halves of set-up."""

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        self.build_s = 0.0  # the constructions layer
        self.write_s = 0.0  # instance_document plus the JSON dump

    def construct(self, fn, *args):
        start = perf_counter()
        out = fn(*args)
        self.build_s += perf_counter() - start
        return out

    def write_instance(self, name: str, t: UltraTriple) -> str:
        start = perf_counter()
        with open(os.path.join(self.workdir, name), "w") as f:
            json.dump(instance_document(t), f)
        self.write_s += perf_counter() - start
        return name

    def write_system(self, name: str, ground: int, sets: list[list[int]]) -> str:
        start = perf_counter()
        with open(os.path.join(self.workdir, name), "w") as f:
            json.dump({"ground": ground, "sets": sets}, f)
        self.write_s += perf_counter() - start
        return name


def random_hierarchy_triple(rng: random.Random, n: int, depth: int = 4) -> UltraTriple:
    """A valid triple from a random depth-`depth` refinement chain on n points.

    `random_ultra_triple` stops at 16 points, so larger hierarchies are drawn
    here and handed to `EquivHierarchy` / `eqrel_triple`.  Distances strictly
    decrease with depth and carry denominators up to 3, so the exact
    arithmetic is not all integers.
    """
    levels = [[list(range(n))]]
    for _ in range(depth - 1):
        nxt = []
        for block in levels[-1]:
            if len(block) == 1:
                nxt.append(block)
                continue
            parts = rng.randint(2, min(len(block), 6))
            buckets: dict[int, list[int]] = {}
            for e in block:
                buckets.setdefault(rng.randrange(parts), []).append(e)
            nxt.extend(sorted(buckets.values(), key=min))
        levels.append(nxt)
    levels.append([[e] for e in range(n)])
    c = []
    value = Fraction(rng.randint(60, 90), rng.choice((1, 2, 3)))
    for _ in range(len(levels) - 1):
        c.append(value)
        value -= Fraction(rng.randint(2, 9), rng.choice((1, 2, 3)))
    weights = [Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3))) for _ in range(n)]
    h = EquivHierarchy(tuple(tuple(map(frozenset, lv)) for lv in levels), tuple(c))
    return eqrel_triple(h, weights)


def planted_violations(rng: random.Random, t: UltraTriple, pairs: int) -> tuple[UltraTriple, list]:
    """Raise `pairs` disjoint distances above every other distance.

    Each raised pair (p, q) then violates the inequality against every third
    point r and nothing else does, so the full violation list is known.
    """
    top = max(x for row in t.dist for x in row) + 1
    chosen = rng.sample(range(t.n), 2 * pairs)
    planted = [tuple(sorted(chosen[2 * i : 2 * i + 2])) for i in range(pairs)]
    dist = [list(row) for row in t.dist]
    for p, q in planted:
        dist[q][p] = top
    return UltraTriple(t.labels, t.weights, tuple(map(tuple, dist))), planted


def affine_points(rng: random.Random, n: int, p: int) -> list[int]:
    """a + b*i for i < n, with b prime to p: the p-adic distances of range(n), relabelled."""
    b = rng.choice([x for x in range(1, 200) if x % p])
    a = rng.randrange(10**6)
    return [a + b * i for i in range(n)]


def planted_system(rng: random.Random, ground: int, rank: int) -> list[list[int]]:
    """Every subset of size <= rank, plus two (rank+1)-sets X and Y with |X - Y| = 2.

    The lower levels form a strong greedoid with uniform-matroid levels.  The
    top level breaks axioms (iii) and (iv) (X and Y have too few subsets
    below them) and the matroid exchange (X - x + y is never a member).
    """
    x = sorted(rng.sample(range(ground), rank + 1))
    rest = [e for e in range(ground) if e not in x]
    y = sorted(x[2:] + rng.sample(rest, 2))
    sets = [[e for e in range(ground) if mask >> e & 1] for mask in range(1 << ground) if mask.bit_count() <= rank]
    return sets + [x, y]


def greedy_scale(setup: Setup, rng: random.Random, smoke: bool) -> list[Job]:
    """Greedy selection, nu increments and P-orderings at growing n."""
    sc = 4 if smoke else 1
    jobs: list[Job] = []
    for n in (30, 40, 50, 60, 70, 80, 90):
        n //= sc
        t = setup.construct(random_hierarchy_triple, rng, n)
        f = setup.write_instance(f"gs-perm-{n}.json", t)
        jobs.append(Job(f"greedy n={n}", ["greedy", f], 0, checks.greedy_trace(t, None, n)))
    for n, m in ((200, 30), (300, 30)):
        n //= sc
        t = setup.construct(random_hierarchy_triple, rng, n)
        f = setup.write_instance(f"gs-part-{n}.json", t)
        jobs.append(Job(f"greedy n={n} m={m}", ["greedy", f, "--m", str(m)], 0, checks.greedy_trace(t, None, m)))
    subset = sorted(rng.sample(range(t.n), t.n // 2))
    jobs.append(
        Job(
            f"greedy --subset n={t.n}",
            ["greedy", f, "--subset", ",".join(t.labels[a] for a in subset), "--m", str(len(subset) // 4)],
            0,
            checks.greedy_trace(t, subset, len(subset) // 4),
        )
    )
    for n in (80, 100, 120):
        n //= sc
        t = setup.construct(random_hierarchy_triple, rng, n)
        f = setup.write_instance(f"gs-nu-{n}.json", t)
        jobs.append(Job(f"nu n={n} k={n // 2}", ["nu", f, "--k", str(n // 2)], 0, checks.nu_value(t, n // 2, False)))
    for n, m in ((30, 30), (40, 40), (40, 80), (50, 50)):
        n //= sc
        m //= sc
        base = setup.construct(random_hierarchy_triple, rng, n)
        t = setup.construct(extend_to_full, base, min(x for row in base.dist for x in row))
        f = setup.write_instance(f"gs-full-{n}-{m}.json", t)
        jobs.append(
            Job(f"greedy subseq n={n} m={m}", ["greedy", f, "--mode", "subseq", "--m", str(m)], 0, checks.greedy_trace(t, None, m, repeat=True))
        )
    jobs.append(Job(f"nu subseq n={t.n} k={t.n}", ["nu", f, "--mode", "subseq", "--k", str(t.n)], 0, checks.nu_value(t, t.n, True)))
    for p, size, ms in ((2, 300, (20, 40, 60)), (3, 300, (40,)), (5, 200, (40,))):
        pool = rng.sample(range(4096), size // sc)
        for m in ms:
            m //= sc
            jobs.append(
                Job(f"pordering p={p} |E|={len(pool)} m={m}", ["pordering", "--p", str(p), "--points", ",".join(map(str, pool)), "--m", str(m)], 0, checks.pordering(pool, p, m))
            )
    pool = rng.sample(range(4096), 120 // sc)
    good = checks.pm_ordering_ref(pool, 3, 30 // sc)
    for seq in (good, checks.spoil(pool, 3, good)):
        verdict = checks.is_pm_ordering_ref(pool, 3, seq)
        jobs.append(
            Job(
                f"pordering --check |E|={len(pool)} {verdict}",
                ["pordering", "--p", "3", "--points", ",".join(map(str, pool)), "--check", ",".join(map(str, seq))],
                0 if verdict else 1,
                checks.verdict(verdict),
            )
        )
    return jobs


def greedoid_levels(setup: Setup, rng: random.Random, smoke: bool) -> list[Job]:
    """The Bhargava greedoid: 2**n set scoring, then the axiom and matroid checkers."""
    shrink = 3 if smoke else 0
    jobs: list[Job] = []
    sizes = [n - shrink for n in (8, 9, 10, 11, 12, 12, 13, 13)]
    for i, n in enumerate(sizes):
        t = setup.construct(random_hierarchy_triple, rng, n)
        f = setup.write_instance(f"gl-sets-{i}.json", t)
        jobs.append(
            Job(f"greedoid sets n={n}", ["greedoid", f, "--emit", "sets"], 0, checks.greedoid_sets(t, brute=i == 0))
        )
    for n in (10, 11, 12):
        n -= shrink
        t = setup.construct(random_hierarchy_triple, rng, n)
        f = setup.write_instance(f"gl-check-{n}.json", t)
        jobs.append(Job(f"greedoid check n={n}", ["greedoid", f, "--emit", "check"], 0, checks.greedoid_holds(n)))
    for n in (6, 7, 8, 9, 10, 11):
        n -= shrink
        t = setup.construct(padic_triple, affine_points(rng, n, 2), 2)
        f = setup.write_instance(f"gl-padic-{n}.json", t)
        jobs.append(Job(f"greedoid check 2-adic n={n}", ["greedoid", f, "--emit", "check"], 0, checks.greedoid_holds(n)))
        if n >= 8 - shrink:
            jobs.append(Job(f"greedoid sets 2-adic n={n}", ["greedoid", f, "--emit", "sets"], 0, checks.greedoid_sets(t, brute=False)))
    for ground in (6, 7, 8, 9):
        ground = max(5, ground - shrink)
        rank = ground // 2
        sets = planted_system(rng, ground, rank)
        f = setup.write_system(f"gl-planted-{len(jobs)}.json", ground, sets)
        jobs.append(
            Job(f"greedoid --system planted ground={ground}", ["greedoid", "--system", f, "--emit", "check"], 1, checks.planted_report(ground, sets, rank))
        )
    return jobs


def validate_ties(setup: Setup, rng: random.Random, smoke: bool) -> list[Job]:
    """The O(n**3) validity scan, and tie enumeration with heavy emit."""
    sc = 4 if smoke else 1
    jobs: list[Job] = []
    for n in (24, 32, 40, 48, 56):
        n //= sc
        t = setup.construct(random_hierarchy_triple, rng, n)
        f = setup.write_instance(f"vt-valid-{n}.json", t)
        jobs.append(Job(f"validate n={n}", ["validate", f, "--cap", str(n)], 0, checks.violations(t, [])))
        bad, planted = setup.construct(planted_violations, rng, t, 3)
        f = setup.write_instance(f"vt-planted-{n}.json", bad)
        jobs.append(Job(f"validate planted n={n}", ["validate", f, "--cap", str(n)], 1, checks.violations(bad, planted)))
    # p-adic ties: the tie structure, and so the trace count, depends only on
    # n, p and m; the seed moves the points by an affine map that keeps it.
    for n, p, ms in ((16, 2, (1, 2, 3, 4)), (27, 3, (1, 2, 3)), (25, 5, (2, 3)), (32, 2, (3,)), (12, 2, (4, 5))):
        if smoke:
            n, ms = n // 2, [min(m, 3) for m in ms]
        t = setup.construct(padic_triple, affine_points(rng, n, p), p)
        f = setup.write_instance(f"vt-padic{p}-{n}.json", t)
        for m in ms:
            jobs.append(Job(f"greedy --ties all {p}-adic n={n} m={m}", ["greedy", f, "--m", str(m), "--ties", "all"], 0, checks.all_traces(t, m)))
        jobs.append(Job(f"greedy {p}-adic n={n}", ["greedy", f], 0, checks.greedy_trace(t, None, n)))
        jobs.append(Job(f"validate {p}-adic n={n}", ["validate", f, "--cap", str(n)], 0, checks.violations(t, [])))
    return jobs


BUILDERS = {
    "greedy-scale": greedy_scale,
    "greedoid-levels": greedoid_levels,
    "validate-ties": validate_ties,
}
WORKLOADS = tuple(BUILDERS)


def build(workload: str, seed: int, workdir: str, smoke: bool) -> tuple[list[Job], Setup]:
    """Generate and write one workload's instances; the same seed gives the same files."""
    setup = Setup(workdir)
    jobs = BUILDERS[workload](setup, random.Random(f"{workload}:{seed}"), smoke)
    return jobs, setup
