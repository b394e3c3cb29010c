"""Run one CLI job in this fresh interpreter with per-layer spans and counts.

    python3 bench/tracer.py SUMMARY.json <ultragreedy arguments...>

Imports `ultragreedy.cli` (timed as `cli.import`), then wraps the public
functions of each layer from outside: every module that imported a
function gets the wrapper under the same name.  `UltraTriple.d`/`.w` and
`FullUltraTriple.d` are wrapped for call counts only.  `cli.main(argv)` is
the root span; its self time is `cli.emit`.

A call into the layer of the innermost open span (`nu_bar` ->
`greedy_permutation`, `check_equivalence` -> `is_pm_ordering`) stays inside
that span, so each piece of work is counted once, at the outermost span.  A
call into another layer (`bhargava_greedoid` -> `perimeter_set`) opens a
child span; a span's self time is its duration minus its children's.

Spans are aggregated per layer in memory and written once, after the root
span ends.  The job's stdout is the CLI's stdout, unchanged; the exit code
is the CLI's.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

ROOT = "cli.emit"

LAYERS = {
    "cli.parse": ("cli", ("read_instance", "read_set_system")),
    "core.validate": ("core", ("validate",)),
    "core.perimeter": ("core", ("perimeter_set", "perimeter_tuple")),
    "greedy.select": ("greedy", ("greedy_permutation", "greedy_subsequence", "nu_bar", "nu")),
    "greedy.enumerate": ("greedy", ("all_greedy_permutations",)),
    "greedoid.build": ("greedoid", ("bhargava_greedoid",)),
    "greedoid.axiom": ("greedoid", ("check_axiom_i", "check_axiom_ii", "check_axiom_iii", "check_axiom_iv")),
    "greedoid.matroid": ("greedoid", ("level_sets", "check_matroid_bases")),
    "bhargava.pordering": ("bhargava", ("pm_ordering", "is_pm_ordering", "check_equivalence")),
}


class Tracer:
    """Per-layer self times and call counts of one job, kept in memory."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # open spans: [layer, time covered by children]
        self.layer = ROOT  # layer of the innermost open span
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)  # "layer<parent" -> spans opened
        self.d_calls: dict[str, int] = defaultdict(int)  # innermost layer -> d() calls
        self.w_calls: dict[str, int] = defaultdict(int)
        self.results: list[tuple[str, tuple, object]] = []  # kernel results, counted after the run

    def span(self, layer: str, fn, args: tuple, kwargs: dict):
        stack = self.stack
        parent = stack[-1]
        if parent[0] == layer:
            return fn(*args, **kwargs)
        frame = [layer, 0.0]
        stack.append(frame)
        self.layer = layer
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = perf_counter() - start
            stack.pop()
            self.layer = parent[0]
            parent[1] += dur
            self.self_s[layer] += dur - frame[1]
            self.calls[f"{layer}<{parent[0]}"] += 1

    def wrap(self, layer: str, fn):
        keep = layer in ("greedy.select", "greedy.enumerate", "greedoid.build")

        def wrapper(*args, **kwargs):
            outer = self.stack[-1][0] != layer
            result = self.span(layer, fn, args, kwargs)
            if keep and outer:
                self.results.append((fn.__name__, args, result))
            return result

        return wrapper

    def install(self) -> None:
        from ultragreedy import core

        mods = [m for name, m in sys.modules.items() if name == "ultragreedy" or name.startswith("ultragreedy.")]
        for layer, (home, names) in LAYERS.items():
            for name in names:
                orig = getattr(sys.modules[f"ultragreedy.{home}"], name)
                wrapper = self.wrap(layer, orig)
                for mod in mods:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
        d_plain, w_plain, d_full = core.UltraTriple.d, core.UltraTriple.w, core.FullUltraTriple.d
        d_calls, w_calls = self.d_calls, self.w_calls

        def d(t, a, b):
            d_calls[self.layer] += 1
            return d_plain(t, a, b)

        def w(t, a):
            w_calls[self.layer] += 1
            return w_plain(t, a)

        def full_d(t, a, b):
            # FullUltraTriple.d defers to UltraTriple.d off the diagonal: count once
            before = d_calls[self.layer]
            out = d_full(t, a, b)
            d_calls[self.layer] = before + 1
            return out

        core.UltraTriple.d, core.UltraTriple.w, core.FullUltraTriple.d = d, w, full_d

    def run(self, main, argv: list[str]) -> tuple[int, float]:
        frame = [ROOT, 0.0]
        self.stack.append(frame)
        start = perf_counter()
        try:
            code = main(argv)
            sys.stdout.flush()
        finally:
            dur = perf_counter() - start
            self.stack.pop()
            self.self_s[ROOT] += dur - frame[1]
        return code, dur

    def counts(self) -> dict[str, int]:
        """Kernel outcome counts, from the results of the outermost spans."""
        out = {"greedy.steps": 0, "greedy.sequences": 0, "greedoid.sets": 0}
        for name, args, result in self.results:
            if name in ("nu_bar", "nu"):
                out["greedy.steps"] += args[2]
                out["greedy.sequences"] += 1
            elif name in ("greedy_permutation", "greedy_subsequence"):
                out["greedy.steps"] += len(result)
                out["greedy.sequences"] += 1
            elif name == "all_greedy_permutations":
                # one selection step per edge of the branching tree
                out["greedy.steps"] += len({seq[:k] for seq in result for k in range(1, len(seq) + 1)})
                out["greedy.sequences"] += len(result)
            else:
                out["greedoid.sets"] += len(result)
        return out


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    start = perf_counter()
    import ultragreedy.cli as cli

    import_s = perf_counter() - start
    tracer = Tracer()
    tracer.install()
    code, main_s = tracer.run(cli.main, argv)
    import json

    summary = {
        "total_s": import_s + main_s,
        "self_s": {"cli.import": import_s, **tracer.self_s},
        "calls": tracer.calls,
        "d_calls": tracer.d_calls,
        "w_calls": tracer.w_calls,
        "counts": tracer.counts(),
    }
    with open(summary_path, "w") as f:
        json.dump(summary, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
