"""`console_check.py`, the helper that judges each console run in CI.

Every fault below must fail the helper: one that always passed would
quietly drop the checks the workflow hands it.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
HELPER = ROOT / "tests" / "console_check.py"

REFUSE = "import sys; sys.stderr.write('error: no\\n'); sys.exit(2)"
INDENTED = f"print({json.dumps(json.dumps({'a': [1, 2]}, indent=2))})"


def check(flags, code, tmp_path, prefix=()):
    argv = [sys.executable, str(HELPER), *flags, "--", *prefix, sys.executable, "-c", code]
    return subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize(
    "flags, code",
    [
        pytest.param(["--peak", "30", "--indent2"], INDENTED, id="success"),
        pytest.param(["--refused"], REFUSE, id="refusal"),
        pytest.param(["--exit", "1"], "raise SystemExit(1)", id="expected-exit-1"),
    ],
)
def test_clean_runs_pass(flags, code, tmp_path):
    result = check(flags, code, tmp_path)
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.endswith(": ok\n")


@pytest.mark.parametrize(
    "flags, code",
    [
        pytest.param([], "raise SystemExit(1)", id="wrong-exit"),
        pytest.param(["--refused"], "print('[]'); " + REFUSE, id="stdout-under-refused"),
        pytest.param(["--refused"], "import sys; sys.stderr.write('usage: x\\n'); " + REFUSE, id="two-stderr-lines"),
        pytest.param(["--refused"], "import sys; sys.stderr.write('error: no'); sys.exit(2)", id="no-newline"),
        pytest.param(["--refused"], "import sys; sys.stderr.write('no\\n'); sys.exit(2)", id="no-error-prefix"),
        pytest.param([], "import sys; sys.stderr.write('Traceback (most recent call last):\\n')", id="traceback"),
        pytest.param(["--peak", "30"], "b = b'x' * (60 << 20)", id="peak"),
        pytest.param(["--indent2"], "print('{\"a\": [1, 2]}')", id="compact-json"),
        pytest.param(["--indent2"], "print('not json')", id="not-json"),
    ],
)
def test_faults_fail(flags, code, tmp_path):
    result = check(flags, code, tmp_path)
    assert result.returncode == 1, result.stdout + result.stderr
    assert ": FAIL: " in result.stdout and "Traceback" not in result.stdout


def test_time_bound_written_in_the_command(tmp_path):
    quick = check(["--peak", "30"], "pass", tmp_path, prefix=["timeout", "30"])
    assert quick.returncode == 0 and quick.stdout.endswith(": ok\n"), quick.stdout + quick.stderr
    slow = check([], "import time; time.sleep(30)", tmp_path, prefix=["timeout", "1"])
    assert slow.returncode == 1 and "FAIL: expected exit 0" in slow.stdout, slow.stdout + slow.stderr
    # wait4's peak covers the command that `timeout` waited for.
    held = check(["--peak", "30"], "b = b'x' * (60 << 20)", tmp_path, prefix=["timeout", "30"])
    assert held.returncode == 1 and "FAIL: peak not under 30 MB" in held.stdout, held.stdout + held.stderr


def test_one_expected_exit_code(tmp_path):
    result = check(["--exit", "1", "--refused"], "open('ran', 'w')", tmp_path)
    assert result.returncode == 2 and "not allowed with argument" in result.stderr
    assert not (tmp_path / "ran").exists()


def test_stdout_kept_and_stderr_shown(tmp_path):
    result = check(["--stdout", "out.json", "--indent2"], INDENTED + "; import sys; sys.stderr.write('note\\n')", tmp_path)
    assert result.returncode == 0, result.stdout + result.stderr
    assert json.loads((tmp_path / "out.json").read_text()) == {"a": [1, 2]}
    assert result.stderr == "note\n"


def test_workflow_checks_console_runs_through_the_helper():
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    for hand_written in ("posix_spawnp", "wait4", "json.dumps(json.loads"):
        assert hand_written not in workflow
    assert "tests/console_check.py" in workflow
