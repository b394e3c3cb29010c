"""The package surface and what a CLI run imports.

The import checks run in a fresh interpreter: in this process pytest and
the other test modules have long since imported everything.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import ultragreedy
from ultragreedy.cli import read_instance
from ultragreedy.oracle import brute_max_perimeter

GOLDEN = Path(__file__).parent / "golden"


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
