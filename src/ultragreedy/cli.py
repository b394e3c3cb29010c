"""Command-line front end.

Instances travel as JSON with rationals encoded as strings like "-7/2", so
exactness survives serialization; the distance table is lower-triangular,
making asymmetric input unrepresentable.  Every subcommand prints JSON to
stdout (or --out) and logs to stderr.  Exit codes: 0 success or property
holds, 1 property fails, 2 usage or parse error, an --out that cannot be
written, or stdout closed (by its reader, or at start) before all output
was written.
Each handler computes and returns its output and exit code; `main` alone
writes the output and maps errors to exit codes.  The package hands out
its modules unexecuted, so a command runs only the modules it uses.

A rational string is an integer or "p/q" as `core.rational` reads it, and
integer options and lists take its integers.  Each enumerating subcommand
takes its limit from --cap alone; pordering --m, and greedy --m and nu --k
in subsequence mode, are held to 10**6.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from fractions import Fraction
from json.decoder import WHITESPACE, JSONArray, JSONObject
from json.encoder import encode_basestring_ascii

# the package hands out all five unexecuted; bench/tracer.py needs the four
# besides constructions in sys.modules right after `import ultragreedy.cli`
from . import bhargava, constructions, core, greedoid, greedy


class InputError(Exception):
    """Anything wrong with arguments or input files; maps to exit code 2."""


_INTEGER_FORM = re.compile(r"-?[0-9]+")  # ASCII: \d matches any Unicode digit


def _rational(value: str | int, what: str) -> Fraction:
    try:
        return core.rational(value)  # a JSON number too: floats and bools are refused
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational in {what}: {exc}") from None


def _split(text: str) -> list[str]:
    """The non-blank parts of a comma-separated list, as given: messages quote them."""
    return [part for part in str(text).split(",") if part.strip() != ""]


def _integer(text: str) -> int:
    """A rational string with no denominator: every integer option and list."""
    if (match := _INTEGER_FORM.fullmatch(text.strip())) is None:
        raise ValueError(f"{text!r} is not an integer")  # argparse: exit 2
    return int(match[0])


_integer.__name__ = "int"  # argparse names it in its message: "invalid int value: '+2'"


def _int_list(text: str, what: str) -> list[int]:
    try:
        return [_integer(part) for part in _split(text)]
    except ValueError:
        raise InputError(f"{what} must be comma-separated integers, got {text!r}") from None


def _rational_list(text: str, what: str) -> list[Fraction]:
    return [_rational(part, what) for part in _split(text)]


def _decode(text: str) -> object:
    """json.loads(text), with each string in the arrays of a top-level object,
    or in a list of strings inside them, shared with every equal one before
    it: an ultrametric on n points has at most n - 1 distinct distances, not
    n(n-1)/2.  The memo takes strings only (JSON 1, 1.0 and true are equal
    keys).  Values and errors are json's own: its Python walkers, its C scanner."""
    scan = json.JSONDecoder().scan_once
    share = {}.setdefault

    def element(s: str, end: int) -> tuple[object, int]:
        value, end = scan(s, end)
        if type(value) is str:
            value = share(value, value)
        elif type(value) is list:
            try:
                "".join(value)  # a TypeError unless every entry is a string
                value = list(map(share, value, value))
            except TypeError:  # kept as decoded
                pass
        return value, end

    def member(s: str, end: int) -> tuple[object, int]:
        return JSONArray((s, end + 1), element) if s[end : end + 1] == "[" else scan(s, end)

    start = WHITESPACE.match(text).end()
    if text[start : start + 1] != "{":
        return json.loads(text)
    doc, end = JSONObject((text, start + 1), True, member, None, None)
    end = WHITESPACE.match(text, end).end()
    if end != len(text):
        raise json.JSONDecodeError("Extra data", text, end)
    return doc


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:  # UTF-8, whatever the locale
            return f.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not valid UTF-8: {exc}") from None


def _load_json(path: str, decode: Callable[[str], object] = json.loads) -> dict:
    """The JSON object in the file at path: instances and set systems are objects."""
    try:
        doc = decode(_read_text(path))
    except (ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON and, outside `main`, integers
        # longer than the int/str digit limit; RecursionError deep nesting
        raise InputError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InputError(f"{path}: top level must be an object")
    return doc


def read_instance(path: str) -> core.UltraTriple:
    # core is loaded before the document exists, not while it is alive
    plain, full = core.UltraTriple, core.FullUltraTriple
    doc = _load_json(path, _decode)
    memo: dict[str, Fraction] = {}

    def rat(x: object, what: str) -> Fraction:
        # each distinct string is parsed once; equal strings share one Fraction
        if not isinstance(x, str):
            return _rational(x, what)
        value = memo.get(x)
        if value is None:
            value = memo[x] = _rational(x, what)
        return value

    def array(x: object, what: str) -> list:
        # a string or an object would iterate as characters or keys
        if not isinstance(x, list):
            raise InputError(f"{path}: {what} must be an array, got {type(x).__name__}")
        return x

    def rats(row: list, what: str) -> tuple[Fraction, ...]:
        # a row of strings already seen is read at C speed; any other row
        # goes through `rat`, so errors and their order are those of `rat`
        try:
            return tuple(map(memo.__getitem__, row))
        except (KeyError, TypeError):
            return tuple(rat(x, what) for x in row)

    try:
        labels = tuple(str(x) for x in array(doc["points"], "points"))
        weights = rats(array(doc["weights"], "weights"), "weights")
        rows = array(doc["distances"], "distances")
        dist = tuple(rats(array(row, "each distances row"), "distances") for row in rows)
        if "selfdist" in doc:
            selfdist = rats(array(doc["selfdist"], "selfdist"), "selfdist")
            return full(labels, weights, dist, selfdist)
        return plain(labels, weights, dist)
    except KeyError as exc:
        raise InputError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from None


def instance_document(t: core.UltraTriple) -> dict:
    """The instance file's document for `t`, each distinct rational object
    formatted once: the constructors share one object per distinct value.
    `shown` maps id(x) to str(x) (`t` keeps every x alive) and holds at most
    2n entries: a row that might not fit is formatted entry by entry, so
    distinct objects cost about one string per entry."""
    shown: dict[int, str] = {}

    def strs(row: tuple) -> list[str]:
        try:
            return list(map(shown.__getitem__, map(id, row)))
        except KeyError:
            if len(shown) + len(row) > 2 * t.n:
                return [str(x) for x in row]
            for x in row:
                if id(x) not in shown:
                    shown[id(x)] = str(x)
            return list(map(shown.__getitem__, map(id, row)))

    doc: dict = {"points": list(t.labels), "weights": strs(t.weights), "distances": list(map(strs, t.dist))}
    if isinstance(t, core.FullUltraTriple):
        doc["selfdist"] = strs(t.selfdist)
    return doc


def read_set_system(path: str, cap: int) -> greedoid.SetSystem:
    system = greedoid.SetSystem  # loaded before the document exists
    doc = _load_json(path)
    try:
        ground = doc["ground"]
        greedoid._check_ground(ground)
        if ground > cap:  # before any mask: a mask has `ground` bits
            raise InputError(f"ground size {core._shown(ground)} exceeds cap {cap}")
        sets = doc["sets"]
        if not isinstance(sets, list) or not all(isinstance(f, list) for f in sets):
            raise ValueError("sets must be an array of arrays")
        return system.from_point_sets(ground, sets)
    except KeyError as exc:
        raise InputError(f"{path}: bad set system: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}: bad set system: {exc}") from None


def _hold(length: int, flag: str, what: str) -> None:
    """Refuse more than 10**6 picks before the first: the sequence is held in memory."""
    if length > 10**6:
        raise InputError(f"--{flag} exceeds the {what} cap 1000000")


def _selection(args: argparse.Namespace, flag: str) -> tuple[core.UltraTriple, list[int]]:
    """The instance and the --subset points of `greedy` and `nu`; subsequence
    mode needs a full triple, and its length, the option `flag`, is held."""
    t = read_instance(args.instance)
    if args.subset is None:
        pts = list(t.points())
    else:
        index = {label: i for i, label in enumerate(t.labels)}  # one lookup per label, not a scan
        chosen = []
        for part in _split(args.subset):
            label = part.strip()
            if label not in index:
                raise InputError(f"unknown point label {label!r}")
            chosen.append(index[label])
        pts = list(dict.fromkeys(chosen))  # the library reads C as a set
    if args.mode == "subseq":
        if not isinstance(t, core.FullUltraTriple):
            raise InputError("subsequence mode needs a full triple (selfdist field)")
        _hold(getattr(args, flag) or 0, flag, "subsequence")  # greedy's default m is |C|
    return t, pts


def _note(line: str) -> None:
    """Print a line to stderr; with stderr closed (None) it is dropped, as
    `print` would write it to stdout, which carries JSON alone."""
    if sys.stderr is not None:
        print(line, file=sys.stderr, flush=True)


def _emit(text: str | Iterable[str], out: str | None) -> None:
    """Write text, or its chunks in order, and a newline to stdout or to out;
    a file that cannot be written is an InputError, and a closed stdout
    (None, or a reader gone) a BrokenPipeError."""
    chunks = (text,) if isinstance(text, str) else text
    if out is None:
        if sys.stdout is None:
            raise BrokenPipeError
        sys.stdout.writelines(chunks)
        sys.stdout.write("\n")
        sys.stdout.flush()  # a closed pipe shows here, not in the final flush at exit
    else:
        try:
            with open(out, "w") as f:
                f.writelines(chunks)
                f.write("\n")
        except OSError as exc:
            raise InputError(f"cannot write {out}: {exc}") from None
        _note(f"wrote {out}")


def _json_list(items: list[str]) -> str:
    """A list of encoded JSON strings at the depth of a trace's fields."""
    return "[\n        " + ",\n        ".join(items) + "\n      ]" if items else "[]"


def _traces_json(
    t: core.UltraTriple, mode: str, groups: Iterable[tuple[Sequence[int], Sequence[Fraction], Sequence[int]]]
) -> Iterator[str]:
    """{"mode", "traces": [{"points", "increments", "prefix_perimeters"}]}
    for the groups (picks, increments, winners) of `greedy._paths`, one chunk
    per group, whose concatenation is exactly `json.dumps(doc, indent=2)`.
    A group's traces are picks + (x,) for each winner x, or picks alone.

    Rendered increments and running sums are kept whole for an equal next
    group, else up to its first entry that is not the same object: greedy's
    set DAG makes a level's equal increments one object.  A group's traces
    differ only in their last label: one join renders them.
    """
    labels = [encode_basestring_ascii(label) for label in t.labels]
    picked = [f"{label},\n        " for label in labels]  # a pick before the last
    kept = None  # not (): an m = 0 trace must still be rendered
    sums, inc_items, sum_items = [Fraction(0)], [], []
    sep = "[\n"
    yield f'{{\n  "mode": {encode_basestring_ascii(mode)},\n  "traces": '
    for picks, incs, winners in groups:
        if incs != kept:
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
            blocks = f'{_json_list(inc_items)},\n      "prefix_perimeters": {_json_list(sum_items)}\n    }}'
            tail = f'\n      ],\n      "increments": {blocks}'
        if winners:
            head = '    {\n      "points": [\n        ' + "".join(map(picked.__getitem__, picks))
            yield sep + head + (tail + ",\n" + head).join(map(labels.__getitem__, winners)) + tail
        else:
            yield f'{sep}    {{\n      "points": {_json_list([labels[a] for a in picks])},\n      "increments": {blocks}'
        sep = ",\n"
    yield "[]\n}" if sep == "[\n" else "\n  ]\n}"


def cmd_validate(args: argparse.Namespace) -> tuple[str, int]:
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
    return json.dumps(doc, indent=2), 0 if report.ok else 1


def cmd_greedy(args: argparse.Namespace) -> tuple[Iterator[str], int]:
    t, pts = _selection(args, "m")
    m = len(pts) if args.m is None else args.m
    if args.ties == "all":
        if args.mode == "subseq":
            raise InputError("--ties all supports permutation mode only")
        # counted and held to the cap here, before the first byte is written
        groups = greedy._paths(greedy._set_dag(t, pts, m, args.cap)[0])
    else:
        select = greedy.greedy_subsequence if args.mode == "subseq" else greedy.greedy_permutation
        trace = select(t, pts, m)
        groups = [(trace.points[:-1], trace.increments, trace.points[-1:])]
    return _traces_json(t, "subsequence" if args.mode == "subseq" else "permutation", groups), 0


def cmd_nu(args: argparse.Namespace) -> tuple[str, int]:
    t, pts = _selection(args, "k")
    value = (greedy.nu if args.mode == "subseq" else greedy.nu_bar)(t, pts, args.k)
    return json.dumps(str(value)), 0


def cmd_greedoid(args: argparse.Namespace) -> tuple[str, int]:
    if (args.instance is None) == (args.system is None):
        raise InputError("give exactly one of an instance file or --system")
    if args.system is not None:
        s = read_set_system(args.system, args.cap)
    else:
        t = read_instance(args.instance)
        s = greedoid.bhargava_greedoid(t, cap=args.cap)
    levels = s.levels()
    if args.emit == "sets":
        sets = [{"k": k, "sets": [list(greedoid.points_from_mask(m)) for m in masks]} for k, masks in levels.items()]
        doc: dict = {"ground": s.ground, "levels": sets}
        if args.system is None:
            doc["labels"] = list(t.labels)
        return json.dumps(doc, indent=2), 0
    checks = (greedoid.check_axiom_i, greedoid.check_axiom_ii, greedoid.check_axiom_iii, greedoid.check_axiom_iv)
    axioms = [check(s) for check in checks]
    matroid = {k: greedoid.check_matroid_bases(greedoid.SetSystem(s.ground, masks)) for k, masks in levels.items()}
    ok = all(r.holds for r in axioms) and all(r.holds for r in matroid.values())
    doc = {
        "axioms": [{"axiom": r.axiom, "holds": r.holds, "witness": r.witness} for r in axioms],
        "matroid": [{"k": k, "holds": r.holds, "witness": r.witness} for k, r in matroid.items()],
        "all_hold": ok,
    }
    return json.dumps(doc, indent=2), 0 if ok else 1


# family -> its `constructions` builder, whose parameters the options name, the
# options it needs (in its error's order), and those with defaults
_FAMILIES = {
    "constant": ("constant_triple", ("n",), ()),
    "mod": ("mod_triple", ("points", "m", "eps", "alpha"), ()),
    "padic": ("padic_triple", ("points", "p"), ()),
    "padic-log": ("padic_log_triple", ("points", "p"), ()),
    "rseq": ("rseq_triple", ("points", "r", "c"), ()),
    "random": ("random_ultra_triple", ("n",), ("seed", "depth")),
}
_OPTION_PARSERS = {"points": _int_list, "r": _int_list, "c": _rational_list, "eps": _rational, "alpha": _rational}


def cmd_generate(args: argparse.Namespace) -> tuple[str, int]:
    builder, needs, defaulted = _FAMILIES[args.family]
    weights = None if args.weights is None else _rational_list(args.weights, "--weights")
    if any(getattr(args, name) is None for name in needs):
        flags = [f"--{name}" for name in needs]
        raise InputError(f"--family {args.family} needs " + (" and " if len(flags) == 2 else ", ").join(flags))
    options = {}
    for name in needs + defaulted:  # parsed in the builder's order: its first error is reported
        value = getattr(args, name)
        parse = _OPTION_PARSERS.get(name)
        options[name] = value if parse is None else parse(value, f"--{name}")
    t = getattr(constructions, builder)(**options, weights=weights)
    return json.dumps(instance_document(t), indent=2), 0


def parse_tree_file(path: str) -> constructions.WeightedTree:
    lines = _read_text(path).splitlines()
    edges: list[tuple[str, str, Fraction]] = []
    root = None
    leaves: tuple[str, ...] | None = None
    vertices: dict[str, None] = {}  # insertion-ordered set
    note = vertices.setdefault

    for lineno, line in enumerate(lines, start=1):
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "root":
            if len(parts) != 2:
                raise InputError(f"{path}:{lineno}: root line needs exactly one vertex")
            if root is not None:
                raise InputError(f"{path}:{lineno}: duplicate 'root' directive")
            root = parts[1]
            note(root)
        elif parts[0] == "leaves":
            if len(parts) != 2:
                raise InputError(f"{path}:{lineno}: leaves line needs a comma-separated list")
            if leaves is not None:
                raise InputError(f"{path}:{lineno}: duplicate 'leaves' directive")
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
        return constructions.WeightedTree(tuple(vertices), tuple(edges), root, leaves)
    except (ValueError, TypeError) as exc:
        raise InputError(f"{path}: {exc}") from None


def cmd_tree(args: argparse.Namespace) -> tuple[str, int]:
    t = constructions.tree_triple(parse_tree_file(args.tree))
    return json.dumps(instance_document(t), indent=2), 0


def cmd_pordering(args: argparse.Namespace) -> tuple[str, int]:
    points = _int_list(args.points, "--points")
    if not points:
        raise InputError("--points must name at least one integer")
    if args.check is not None:
        verdict = bhargava.is_pm_ordering(points, args.p, _int_list(args.check, "--check"))
        return json.dumps(verdict), 0 if verdict else 1
    m = len(set(points)) if args.m is None else args.m  # the library reads E as a set
    _hold(m, "m", "pordering")
    return json.dumps(bhargava.pm_ordering(points, args.p, m)), 0


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
    p.add_argument("--cap", type=_integer, default=64, help="maximum point count (default: %(default)s)")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("greedy", help="run or enumerate greedy selections")
    p.add_argument("instance")
    p.add_argument("--subset", help="comma-separated point labels (default: all)")
    p.add_argument("--m", type=_integer, help="selection length (default: subset size)")
    p.add_argument("--mode", choices=("perm", "subseq"), default="perm")
    p.add_argument("--ties", choices=("first", "all"), default="first")
    p.add_argument("--cap", type=_integer, default=10**6, help="enumeration cap for --ties all (default: %(default)s)")
    p.set_defaults(handler=cmd_greedy)

    p = sub.add_parser("nu", help="k-th greedy perimeter increment")
    p.add_argument("instance")
    p.add_argument("--subset")
    p.add_argument("--k", type=_integer, required=True)
    p.add_argument("--mode", choices=("perm", "subseq"), default="perm")
    p.set_defaults(handler=cmd_nu)

    p = sub.add_parser("greedoid", help="emit or check the maximum-perimeter set system")
    p.add_argument("instance", nargs="?")
    p.add_argument("--system", help="check a set-system JSON file instead of an instance")
    p.add_argument("--emit", choices=("sets", "check"), default="check")
    p.add_argument("--cap", type=_integer, default=16, help="ground-size cap, for an instance or --system (default: %(default)s)")
    p.set_defaults(handler=cmd_greedoid)

    p = sub.add_parser("generate", help="write an instance of a standard family")
    p.add_argument("--family", required=True, choices=("constant", "mod", "padic", "padic-log", "rseq", "random"))
    p.add_argument("--points", help="comma-separated integers; --points=-3,5 when the first is negative")
    p.add_argument("--n", type=_integer)
    p.add_argument("--weights", help="comma-separated rationals; --weights=-1,2 when the first is negative")
    p.add_argument("--m", type=_integer, help="modulus for --family mod")
    p.add_argument("--eps", help="rational; --eps=-1/2 when negative")
    p.add_argument("--alpha", help="rational; --alpha=-2 when negative")
    p.add_argument("--p", type=_integer)
    p.add_argument("--r", help="comma-separated divisibility chain")
    p.add_argument("--c", help="comma-separated weakly decreasing rationals; --c=-1,-2 when the first is negative")
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--depth", type=_integer, default=3)
    p.set_defaults(handler=cmd_generate)

    p = sub.add_parser("tree", help="instance from a weighted tree file")
    p.add_argument("tree")
    p.set_defaults(handler=cmd_tree)

    p = sub.add_parser("pordering", help="compute or check integer P-orderings")
    p.add_argument("--p", type=_integer, required=True)
    p.add_argument("--points", required=True, help="comma-separated integers; --points=-3,5 when the first is negative")
    p.add_argument("--m", type=_integer)
    p.add_argument("--check", help="comma-separated sequence to test; --check=-3,5 when the first is negative")
    p.set_defaults(handler=cmd_pordering)

    for p in sub.choices.values():  # every command's output goes through `main`'s one write
        p.add_argument("--out")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    # exact rationals may carry integers of any length, in input and output;
    # the caller's int/str digit limit comes back on return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        args = parser.parse_args(argv)
        payload, code = args.handler(args)
        _emit(payload, args.out)
        return code
    except SystemExit as exc:  # argparse: a usage error or --help
        return int(exc.code or 0)
    except (InputError, ValueError) as exc:
        _note(f"error: {exc}")
        return 2
    except BrokenPipeError:
        # the reader closed stdout early (and stderr, after `2>&1`), or it was
        # closed at start: what is still buffered goes to the null device, so
        # the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        if sys.stdout is not None:
            os.dup2(devnull, sys.stdout.fileno())
        try:
            _note("error: stdout closed before all output was written")
        except OSError:
            os.dup2(devnull, sys.stderr.fileno())
        os.close(devnull)
        return 2
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
