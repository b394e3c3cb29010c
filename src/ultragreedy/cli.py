"""Command-line front end.

Instances travel as JSON with rationals encoded as strings like "-7/2", so
exactness survives serialization; the distance table is lower-triangular,
making asymmetric input unrepresentable.  Every subcommand prints JSON to
stdout (or --out) and logs to stderr.  Exit codes: 0 success or property
holds, 1 property fails, 2 usage or parse error, or stdout closed by its
reader before all output was written.

A rational string is an integer or "p/q" with surrounding whitespace
trimmed: decimal digits, a minus sign only in front, and an unsigned
denominator.  Each enumerating subcommand takes its limit from --cap alone:
validate 64 points, greedy --ties all 10**6 sequences, greedoid 16 ground
elements.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from importlib.util import LazyLoader, find_spec, module_from_spec
from json.encoder import encode_basestring_ascii

TYPE_CHECKING = False  # type checkers read it as True; `typing` is never loaded


def _lazy(name: str) -> ModuleType:
    """The package module `name`, executed on its first attribute access,
    so that a command compiles and runs only the modules it uses.

    A module already imported is returned as it is, so every caller shares
    one of each class; a new one is bound on the package, as an import
    binds it.  Lazy modules rather than imports inside the handlers, because
    bench/tracer.py finds these four in sys.modules right after
    `import ultragreedy.cli`; once the tracer no longer patches them, plain
    local imports can replace this.
    """
    full = f"{__package__}.{name}"
    module = sys.modules.get(full)
    if module is None:
        spec = find_spec(full)
        spec.loader = LazyLoader(spec.loader)
        module = sys.modules[full] = module_from_spec(spec)
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


if TYPE_CHECKING:
    from types import ModuleType

    from . import bhargava, core, greedoid, greedy
    from .constructions import WeightedTree
else:
    core, greedy, greedoid, bhargava = map(_lazy, ("core", "greedy", "greedoid", "bhargava"))


class InputError(Exception):
    """Anything wrong with arguments or input files; maps to exit code 2."""


_RATIONAL_FORM = re.compile(r"(-?\d+)(?:/(\d+))?")


def _rational(value: str | int, what: str) -> Fraction:
    try:
        if not isinstance(value, str):
            return core.rational(value)  # a JSON number: floats and bools are refused
        match = _RATIONAL_FORM.fullmatch(value.strip())
        if match is not None:
            num, den = match.groups()
            return Fraction(int(num)) if den is None else Fraction(int(num), int(den))
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational in {what}: {exc}") from None
    raise InputError(f"bad rational in {what}: {value!r} is not p/q or integer")


def _split(text: str) -> list[str]:
    """The non-blank parts of a comma-separated list, as given: messages quote them."""
    return [part for part in str(text).split(",") if part.strip() != ""]


def _int_list(text: str, what: str) -> list[int]:
    try:
        return [int(part) for part in _split(text)]
    except ValueError:
        raise InputError(f"{what} must be comma-separated integers, got {text!r}") from None


def _rational_list(text: str, what: str) -> list[Fraction]:
    return [_rational(part, what) for part in _split(text)]


def _load_json(path: str) -> object:
    try:
        with open(path, encoding="utf-8") as f:  # JSON text is UTF-8, whatever the locale
            return json.load(f)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON and, outside `main`, integers
        # longer than the int/str digit limit; RecursionError deep nesting
        raise InputError(f"{path} is not valid JSON: {exc}") from None


def read_instance(path: str) -> core.UltraTriple:
    # core is loaded before the document exists, not while it is alive
    plain, full = core.UltraTriple, core.FullUltraTriple
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise InputError(f"{path}: top level must be an object")
    memo: dict[str, Fraction] = {}

    def rat(x: object, what: str) -> Fraction:
        # an ultrametric has few distinct distances: each string is parsed
        # once per file, and equal strings share one Fraction
        if not isinstance(x, str):
            return _rational(x, what)
        value = memo.get(x)
        if value is None:
            value = memo[x] = _rational(x, what)
        return value

    try:
        labels = tuple(str(x) for x in doc["points"])
        weights = tuple(rat(x, "weights") for x in doc["weights"])
        dist = tuple(tuple(rat(x, "distances") for x in row) for row in doc["distances"])
        if "selfdist" in doc:
            selfdist = tuple(rat(x, "selfdist") for x in doc["selfdist"])
            return full(labels, weights, dist, selfdist)
        return plain(labels, weights, dist)
    except KeyError as exc:
        raise InputError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from None


def instance_document(t: core.UltraTriple) -> dict:
    doc: dict = {
        "points": list(t.labels),
        "weights": [str(w) for w in t.weights],
        "distances": [[str(x) for x in row] for row in t.dist],
    }
    if isinstance(t, core.FullUltraTriple):
        doc["selfdist"] = [str(x) for x in t.selfdist]
    return doc


def read_set_system(path: str) -> greedoid.SetSystem:
    system = greedoid.SetSystem  # loaded before the document exists
    doc = _load_json(path)
    try:
        ground = doc["ground"]
        if not isinstance(ground, int) or isinstance(ground, bool):
            raise ValueError(f"ground must be an integer, got {ground!r}")
        return system.from_point_sets(ground, doc["sets"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: bad set system: {exc}") from None


def _resolve_subset(t: core.UltraTriple, arg: str | None) -> list[int]:
    if arg is None:
        return list(t.points())
    out = []
    for part in _split(arg):
        label = part.strip()
        try:
            out.append(t.index_of(label))
        except KeyError:
            raise InputError(f"unknown point label {label!r}") from None
    return list(dict.fromkeys(out))  # the library reads C as a set


def _emit(text: str | Iterable[str], out: str | None) -> None:
    """Write text, or its chunks in order, and a newline to stdout or to out."""
    chunks = (text,) if isinstance(text, str) else text
    if out is None:
        write = sys.stdout.write
        for chunk in chunks:
            write(chunk)
        write("\n")
    else:
        with open(out, "w") as f:
            f.writelines(chunks)
            f.write("\n")
        print(f"wrote {out}", file=sys.stderr)


def _json_list(items: list[str]) -> str:
    """A list of encoded JSON strings at the depth of a trace's fields."""
    return "[\n        " + ",\n        ".join(items) + "\n      ]" if items else "[]"


def _traces_json(
    t: core.UltraTriple, mode: str, traces: Iterable[tuple[Sequence[int], Sequence[Fraction]]]
) -> Iterator[str]:
    """{"mode", "traces": [{"points", "increments", "prefix_perimeters"}]}
    for (points, increments) pairs, in chunks, one per trace, whose
    concatenation is exactly `json.dumps(doc, indent=2)`.

    A tie enumeration hands each set's gain to every path through it, so
    consecutive traces share leading increment objects.  The previous
    trace's rendered increments and running sums are kept up to its first
    increment that is not the same object as this trace's, so each shared
    prefix is summed and formatted once.  Identity implies equality, so the
    output is right for any pairs.
    """
    labels = [encode_basestring_ascii(label) for label in t.labels]
    kept: Sequence | None = None  # not (): an m = 0 trace must still be rendered
    sums = [Fraction(0)]
    inc_items: list[str] = []
    sum_items: list[str] = []
    blocks = ""
    sep = "[\n"
    yield f'{{\n  "mode": {encode_basestring_ascii(mode)},\n  "traces": '
    for points, incs in traces:
        if incs is not kept:
            old = kept or ()
            k, top = 0, min(len(incs), len(old))
            while k < top and incs[k] is old[k]:
                k += 1
            del sums[k + 1 :], inc_items[k:], sum_items[k:]
            for x in incs[k:]:
                sums.append(sums[-1] + x)
                inc_items.append(encode_basestring_ascii(str(x)))
                sum_items.append(encode_basestring_ascii(str(sums[-1])))
            kept = incs
            blocks = f'{_json_list(inc_items)},\n      "prefix_perimeters": {_json_list(sum_items)}'
        shown = _json_list([labels[a] for a in points])
        yield f'{sep}    {{\n      "points": {shown},\n      "increments": {blocks}\n    }}'
        sep = ",\n"
    yield "[]\n}" if sep == "[\n" else "\n  ]\n}"


def cmd_validate(args: argparse.Namespace) -> int:
    t = read_instance(args.instance)
    if t.n > args.cap:
        raise InputError(f"{t.n} points exceed the validate cap {args.cap}")
    report = core.validate(t)
    doc = {
        "ok": report.ok,
        "violations": [
            {
                "points": [t.labels[a] for a in v.points],
                "lhs": str(v.lhs),
                "rhs": str(v.rhs),
            }
            for v in report.violations
        ],
    }
    _emit(json.dumps(doc, indent=2), args.out)
    return 0 if report.ok else 1


def cmd_greedy(args: argparse.Namespace) -> int:
    t = read_instance(args.instance)
    pts = _resolve_subset(t, args.subset)
    m = len(pts) if args.m is None else args.m
    if args.mode == "subseq":
        if not isinstance(t, core.FullUltraTriple):
            raise InputError("subsequence mode needs a full triple (selfdist field)")
        if args.ties == "all":
            raise InputError("--ties all supports permutation mode only")
        trace = greedy.greedy_subsequence(t, pts, m)
        paths = [(trace.points, trace.increments)]
        mode = "subsequence"
    else:
        if args.ties == "all":
            # counted and held to the cap here, before the first byte is written
            paths = greedy._greedy_paths(t, pts, m, args.cap)
        else:
            trace = greedy.greedy_permutation(t, pts, m)
            paths = [(trace.points, trace.increments)]
        mode = "permutation"
    _emit(_traces_json(t, mode, paths), args.out)
    return 0


def cmd_nu(args: argparse.Namespace) -> int:
    t = read_instance(args.instance)
    pts = _resolve_subset(t, args.subset)
    if args.mode == "subseq":
        if not isinstance(t, core.FullUltraTriple):
            raise InputError("subsequence mode needs a full triple (selfdist field)")
        value = greedy.nu(t, pts, args.k)
    else:
        value = greedy.nu_bar(t, pts, args.k)
    _emit(json.dumps(str(value)), args.out)
    return 0


def _axiom_documents(s: greedoid.SetSystem) -> tuple[list[dict], bool]:
    reports = [
        greedoid.check_axiom_i(s),
        greedoid.check_axiom_ii(s),
        greedoid.check_axiom_iii(s),
        greedoid.check_axiom_iv(s),
    ]
    docs = [{"axiom": r.axiom, "holds": r.holds, "witness": r.witness} for r in reports]
    return docs, all(r.holds for r in reports)


def _matroid_documents(s: greedoid.SetSystem) -> tuple[list[dict], bool]:
    cards = sorted({m.bit_count() for m in s.sets})
    docs = []
    ok = True
    for k in cards:
        report = greedoid.check_matroid_bases(greedoid.level_sets(s, k))
        docs.append({"k": k, "holds": report.holds, "witness": report.witness})
        ok = ok and report.holds
    return docs, ok


def cmd_greedoid(args: argparse.Namespace) -> int:
    if (args.instance is None) == (args.system is None):
        raise InputError("give exactly one of an instance file or --system")
    labels = None
    if args.system is not None:
        s = read_set_system(args.system)
    else:
        t = read_instance(args.instance)
        s = greedoid.bhargava_greedoid(t, cap=args.cap)
        labels = list(t.labels)
    if args.emit == "sets":
        levels = []
        for k in sorted({m.bit_count() for m in s.sets}):
            members = [list(greedoid.points_from_mask(m)) for m in greedoid.level_sets(s, k).members()]
            levels.append({"k": k, "sets": members})
        doc: dict = {"ground": s.ground, "levels": levels}
        if labels is not None:
            doc["labels"] = labels
        _emit(json.dumps(doc, indent=2), args.out)
        return 0
    axiom_docs, axioms_ok = _axiom_documents(s)
    matroid_docs, matroid_ok = _matroid_documents(s)
    doc = {"axioms": axiom_docs, "matroid": matroid_docs, "all_hold": axioms_ok and matroid_ok}
    _emit(json.dumps(doc, indent=2), args.out)
    return 0 if axioms_ok and matroid_ok else 1


def cmd_generate(args: argparse.Namespace) -> int:
    from .constructions import constant_triple, mod_triple, padic_log_triple, padic_triple, rseq_triple

    family = args.family
    weights = None
    if args.weights is not None:
        weights = _rational_list(args.weights, "--weights")
    if family == "constant":
        if args.n is None:
            raise InputError("--family constant needs --n")
        t = constant_triple(args.n, weights)
    elif family == "mod":
        if args.points is None or args.m is None or args.eps is None or args.alpha is None:
            raise InputError("--family mod needs --points, --m, --eps, --alpha")
        t = mod_triple(
            _int_list(args.points, "--points"),
            args.m,
            _rational(args.eps, "--eps"),
            _rational(args.alpha, "--alpha"),
            weights,
        )
    elif family in ("padic", "padic-log"):
        if args.points is None or args.p is None:
            raise InputError(f"--family {family} needs --points and --p")
        build = padic_triple if family == "padic" else padic_log_triple
        t = build(_int_list(args.points, "--points"), args.p, weights)
    elif family == "rseq":
        if args.points is None or args.r is None or args.c is None:
            raise InputError("--family rseq needs --points, --r, --c")
        t = rseq_triple(
            _int_list(args.points, "--points"),
            _int_list(args.r, "--r"),
            _rational_list(args.c, "--c"),
            weights,
        )
    else:  # random
        from .oracle import random_ultra_triple

        if args.n is None:
            raise InputError("--family random needs --n")
        t = random_ultra_triple(args.seed, args.n, args.depth)
    _emit(json.dumps(instance_document(t), indent=2), args.out)
    return 0


def parse_tree_file(path: str) -> WeightedTree:
    from .constructions import WeightedTree

    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    edges: list[tuple[str, str, Fraction]] = []
    root = None
    leaves: tuple[str, ...] | None = None
    vertices: dict[str, None] = {}  # insertion-ordered set: first-seen order
    note = vertices.setdefault

    for lineno, line in enumerate(lines, start=1):
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "root":
            if len(parts) != 2:
                raise InputError(f"{path}:{lineno}: root line needs exactly one vertex")
            root = parts[1]
            note(root)
        elif parts[0] == "leaves":
            if len(parts) != 2:
                raise InputError(f"{path}:{lineno}: leaves line needs a comma-separated list")
            leaves = tuple(_split(parts[1]))
            for v in leaves:
                note(v)
        elif len(parts) == 3:
            u, v, raw = parts
            note(u)
            note(v)
            edges.append((u, v, _rational(raw, f"{path}:{lineno}")))
        else:
            raise InputError(f"{path}:{lineno}: expected 'u v weight', 'root r', or 'leaves ...'")
    if root is None:
        raise InputError(f"{path}: missing 'root' directive")
    try:
        return WeightedTree(tuple(vertices), tuple(edges), root, leaves)
    except (ValueError, TypeError) as exc:
        raise InputError(f"{path}: {exc}") from None


def cmd_tree(args: argparse.Namespace) -> int:
    from .constructions import tree_triple

    t = tree_triple(parse_tree_file(args.tree))
    _emit(json.dumps(instance_document(t), indent=2), args.out)
    return 0


def cmd_pordering(args: argparse.Namespace) -> int:
    points = _int_list(args.points, "--points")
    if not points:
        raise InputError("--points must name at least one integer")
    if args.check is not None:
        verdict = bhargava.is_pm_ordering(points, args.p, _int_list(args.check, "--check"))
        _emit(json.dumps(verdict), args.out)
        return 0 if verdict else 1
    m = len(points) if args.m is None else args.m
    seq = bhargava.pm_ordering(points, args.p, m)
    _emit(json.dumps(seq), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ultragreedy",
        description=(
            "Greedy maximum-perimeter analysis of weighted point sets with "
            "ultrametric distances"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the ultrametric inequality of an instance")
    p.add_argument("instance")
    p.add_argument("--cap", type=int, default=64, help="maximum point count (default: %(default)s)")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("greedy", help="run or enumerate greedy selections")
    p.add_argument("instance")
    p.add_argument("--subset", help="comma-separated point labels (default: all)")
    p.add_argument("--m", type=int, help="selection length (default: subset size)")
    p.add_argument("--mode", choices=("perm", "subseq"), default="perm")
    p.add_argument("--ties", choices=("first", "all"), default="first")
    p.add_argument("--cap", type=int, default=10**6, help="enumeration cap for --ties all (default: %(default)s)")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_greedy)

    p = sub.add_parser("nu", help="k-th greedy perimeter increment")
    p.add_argument("instance")
    p.add_argument("--subset")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=("perm", "subseq"), default="perm")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_nu)

    p = sub.add_parser("greedoid", help="emit or check the maximum-perimeter set system")
    p.add_argument("instance", nargs="?")
    p.add_argument("--system", help="check a set-system JSON file instead of an instance")
    p.add_argument("--emit", choices=("sets", "check"), default="check")
    p.add_argument("--cap", type=int, default=16, help="ground-size cap for materialization (default: %(default)s)")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_greedoid)

    p = sub.add_parser("generate", help="write an instance of a standard family")
    p.add_argument("--family", required=True, choices=("constant", "mod", "padic", "padic-log", "rseq", "random"))
    p.add_argument("--points", help="comma-separated integers; --points=-3,5 when the first is negative")
    p.add_argument("--n", type=int)
    p.add_argument("--weights", help="comma-separated rationals; --weights=-1,2 when the first is negative")
    p.add_argument("--m", type=int, help="modulus for --family mod")
    p.add_argument("--eps", help="rational; --eps=-1/2 when negative")
    p.add_argument("--alpha", help="rational; --alpha=-2 when negative")
    p.add_argument("--p", type=int)
    p.add_argument("--r", help="comma-separated divisibility chain")
    p.add_argument("--c", help="comma-separated weakly decreasing rationals; --c=-1,-2 when the first is negative")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--out")
    p.set_defaults(handler=cmd_generate)

    p = sub.add_parser("tree", help="instance from a weighted tree file")
    p.add_argument("tree")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_tree)

    p = sub.add_parser("pordering", help="compute or check integer P-orderings")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--points", required=True, help="comma-separated integers; --points=-3,5 when the first is negative")
    p.add_argument("--m", type=int)
    p.add_argument("--check", help="comma-separated sequence to test; --check=-3,5 when the first is negative")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_pordering)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # exact rationals may carry integers of any length, in and out; the
    # caller's int/str digit limit comes back on return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe shows here, not in the final flush at exit
        return code
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout early; what is still buffered goes to the
        # null device, so the interpreter's flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout closed before all output was written", file=sys.stderr)
        return 2
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
