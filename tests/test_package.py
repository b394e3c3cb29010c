"""The package surface and what a CLI run imports.

The import checks run in a fresh interpreter: in this process pytest and
the other test modules have long since imported everything.
"""

import gc
import importlib
import json
import subprocess
import sys
import tomllib
from fractions import Fraction
from pathlib import Path

import pytest

import ultragreedy
from ultragreedy.cli import main, read_instance
from ultragreedy.constructions import padic_triple
from ultragreedy.greedy import nu_bar
from ultragreedy.oracle import brute_max_perimeter

GOLDEN = Path(__file__).parent / "golden"
PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"


def _fresh(code: str) -> dict:
    """Run `code` in a new interpreter; it must print one JSON document last."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_import_loads_only_what_commands_share():
    got = _fresh(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import ultragreedy.cli\n"
        "import json\n"
        "print(json.dumps({'new': sorted(set(sys.modules) - before), 'all': sorted(sys.modules)}))\n"
    )
    for name in ("dataclasses", "inspect", "ultragreedy.constructions", "ultragreedy.oracle"):
        assert name not in got["new"], f"import ultragreedy.cli loaded {name}"
    # bench/tracer.py wraps the layer functions of these four modules right
    # after `import ultragreedy.cli`, finding each one in sys.modules: they
    # must stay loaded by that import
    for name in ("core", "greedy", "greedoid", "bhargava"):
        assert f"ultragreedy.{name}" in got["all"]


# subcommand arguments (instance names under tests/golden) -> the exit code
# and the package modules the run executes
EXECUTED = [
    (["validate", "padic6.json"], 0, {"cli", "core"}),
    (["greedy", "padic6.json"], 0, {"cli", "core", "greedy"}),
    (["greedy", "padic6.json", "--m", "3", "--ties", "all"], 0, {"cli", "core", "greedy"}),
    (["nu", "padic6.json", "--k", "3"], 0, {"cli", "core", "greedy"}),
    (["pordering", "--p", "2", "--points", "0,1,2,9,17"], 0, {"cli", "bhargava"}),
    (["pordering", "--p", "2", "--points", "0,1,2,9,17", "--check", "0,1,2"], 0, {"cli", "bhargava"}),
    (["greedoid", "padic6.json"], 0, {"cli", "core", "greedoid"}),
    (["greedoid", "--system", "planted5.system.json"], 1, {"cli", "core", "greedoid"}),
]


@pytest.mark.parametrize(("argv", "code", "modules"), EXECUTED, ids=[" ".join(a) for a, _, _ in EXECUTED])
def test_command_executes_only_its_modules(argv, code, modules):
    argv = [str(GOLDEN / a) if a.endswith(".json") else a for a in argv]
    got = _fresh(
        "import io, json, sys, types\n"
        "from contextlib import redirect_stdout\n"
        "from ultragreedy.cli import main\n"
        "with redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        "# a lazy module still to run is not a plain module; this test runs none\n"
        "run = [n for n, m in sys.modules.items() if n.startswith('ultragreedy.') and type(m) is types.ModuleType]\n"
        "print(json.dumps({'code': code, 'run': sorted(run)}))\n"
    )
    assert got == {"code": code, "run": sorted(f"ultragreedy.{name}" for name in modules)}


def test_cli_uses_a_core_imported_before_it():
    instance = str(GOLDEN / "padic6.json")
    got = _fresh(
        "import json\n"
        "import ultragreedy.core as core\n"
        "import ultragreedy\n"
        "import ultragreedy.cli as cli\n"
        f"t = cli.read_instance({instance!r})\n"
        "print(json.dumps([cli.core is core, ultragreedy.core is core, isinstance(t, core.UltraTriple)]))\n"
    )
    assert got == [True, True, True]


def test_submodule_import_after_cli_binds_the_loaded_module():
    got = _fresh(
        "import json\n"
        "import ultragreedy.cli\n"
        "import ultragreedy.greedy\n"
        "from ultragreedy.greedy import nu_bar\n"
        "from ultragreedy import padic_triple\n"
        "t = padic_triple([0, 1, 2, 3], 2)\n"
        "print(json.dumps([str(ultragreedy.greedy.nu_bar(t, range(4), 2)),\n"
        "                  ultragreedy.greedy is ultragreedy.cli.greedy,\n"
        "                  nu_bar is ultragreedy.greedy.nu_bar is ultragreedy.nu_bar]))\n"
    )
    assert got[1:] == [True, True]
    assert Fraction(got[0]) == nu_bar(padic_triple([0, 1, 2, 3], 2), range(4), 2)


def test_cli_import_never_loads_typing():
    # -S: no site module, so nothing but the package can bring `typing` in
    src = str(Path(ultragreedy.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import ultragreedy.cli; print('typing' in sys.modules)"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def test_star_import_binds_all():
    namespace: dict = {}
    exec("from ultragreedy import *", namespace)
    assert sorted(ultragreedy.__all__) == ultragreedy.__all__
    for name in ultragreedy.__all__:
        assert namespace[name] is getattr(ultragreedy, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ultragreedy.no_such_name  # noqa: B018
    assert not hasattr(ultragreedy, "no_such_name")
    assert set(ultragreedy.__all__) <= set(dir(ultragreedy))


def test_greedoid_sets_on_invalid_instance_reaches_oracle():
    """`ties6` fails validation, so its greedoid comes from the brute-force
    oracle, which the CLI module does not import up front."""
    instance = GOLDEN / "ties6.json"
    got = _fresh(
        "import io, json, sys\n"
        "from contextlib import redirect_stdout\n"
        "from ultragreedy.cli import main\n"
        "loaded = 'ultragreedy.oracle' in sys.modules\n"
        "out = io.StringIO()\n"
        "with redirect_stdout(out):\n"
        f"    code = main(['greedoid', {str(instance)!r}, '--emit', 'sets'])\n"
        "print(json.dumps({'before': loaded, 'after': 'ultragreedy.oracle' in sys.modules,\n"
        "                  'code': code, 'doc': json.loads(out.getvalue())}))\n"
    )
    assert (got["before"], got["after"], got["code"]) == (False, True, 0)
    t = read_instance(str(instance))
    levels = {entry["k"]: sorted(entry["sets"]) for entry in got["doc"]["levels"]}
    assert levels == {
        k: sorted(list(A) for A in brute_max_perimeter(t, range(t.n), k).argmax) for k in range(t.n + 1)
    }


def test_run_returns_mains_code_and_freezes_the_heap():
    instance = str(GOLDEN / "ties6.json")  # fails validate: exit 1
    got = _fresh(
        "import gc, io, json, sys\n"
        "from contextlib import redirect_stdout\n"
        "from ultragreedy.__main__ import run\n"
        f"sys.argv = ['ultragreedy', 'validate', {instance!r}]\n"
        "before = gc.get_freeze_count()\n"
        "with redirect_stdout(io.StringIO()):\n"
        "    code = run()\n"
        "print(json.dumps({'code': code, 'before': before, 'after': gc.get_freeze_count()}))\n"
    )
    assert got["code"] == 1
    assert got["after"] > got["before"]


def test_main_freezes_nothing(capsys):
    # tests, bench/tracer.py and the benchmark call `main` in-process
    before = gc.get_freeze_count()
    assert main(["validate", str(GOLDEN / "ties6.json")]) == 1
    assert main(["greedoid", str(GOLDEN / "padic6.json")]) == 0
    assert gc.get_freeze_count() == before


def test_atexit_handlers_run_after_run():
    instance = str(GOLDEN / "ties6.json")
    code = (
        "import atexit, sys\n"
        "atexit.register(lambda: sys.stderr.write('atexit handler ran\\n'))\n"
        "from ultragreedy.__main__ import run\n"
        f"sys.argv = ['ultragreedy', 'validate', {instance!r}]\n"
        "raise SystemExit(run())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (1, "atexit handler ran\n")
    assert json.loads(proc.stdout)["ok"] is False


def test_console_script_is_run():
    target = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]["ultragreedy"]
    module, _, name = target.partition(":")
    # imported here, not at the top: importing the module must not run the CLI
    from ultragreedy.__main__ import run

    assert getattr(importlib.import_module(module), name) is run
