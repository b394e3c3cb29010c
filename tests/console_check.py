"""Run one console command and judge how it ended.

    python tests/console_check.py [--exit N | --refused] [--peak MB]
        [--indent2] [--stdout PATH] -- COMMAND [ARG ...]

The command runs through `os.posix_spawnp` with stdout and stderr sent to
files; a time bound is written in the command (`-- timeout 60 ultragreedy
…`).  Its exit code and peak RSS come from `os.wait4`, whose peak covers a
reaped `timeout` and the command it waited for.  The command's stderr is
copied to stderr and one summary line goes to stdout.  The exit status is 1
unless the exit code is N (default 0), the peak is under MB, stderr holds no
`Traceback`, under `--refused` the command exits 2 with empty stdout and
exactly one stderr line starting with `error: `, and under `--indent2`
stdout is json's own indent=2 dump of the document it holds.  `--stdout`
keeps stdout in PATH.
"""

import argparse
import json
import os
import sys
import tempfile


def _indent2(out: str) -> bool:
    try:
        return out == json.dumps(json.loads(out), indent=2) + "\n"
    except ValueError:
        return False


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one console command and judge how it ended.")
    expected = parser.add_mutually_exclusive_group()
    expected.add_argument("--exit", type=int, help="the expected exit code (default 0)")
    expected.add_argument("--refused", action="store_true", help="exit 2, empty stdout, one `error: ` line")
    parser.add_argument("--peak", type=float, help="the peak RSS must stay under this many MB")
    parser.add_argument("--indent2", action="store_true", help="stdout is json.dumps(..., indent=2)")
    parser.add_argument("--stdout", help="keep the command's stdout in this file")
    parser.add_argument("command", nargs="+")
    args = parser.parse_args()
    with (open(args.stdout, "w+b") if args.stdout else tempfile.TemporaryFile()) as out_file, \
            tempfile.TemporaryFile() as err_file:
        actions = [(os.POSIX_SPAWN_DUP2, out_file.fileno(), 1), (os.POSIX_SPAWN_DUP2, err_file.fileno(), 2)]
        _, status, usage = os.wait4(os.posix_spawnp(args.command[0], args.command, os.environ, file_actions=actions), 0)
        out_file.seek(0)
        err_file.seek(0)
        out = out_file.read().decode(errors="replace")
        err = err_file.read().decode(errors="replace")
    code, peak = os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024
    want = 2 if args.refused else args.exit or 0
    faults = []
    if code != want:
        faults.append(f"expected exit {want}")
    if args.peak is not None and peak >= args.peak:
        faults.append(f"peak not under {args.peak:g} MB")
    if "Traceback" in err:
        faults.append("a traceback on stderr")
    if args.refused and out:
        faults.append("stdout not empty")
    if args.refused and not (err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1):
        faults.append("stderr not one `error: ` line")
    if args.indent2 and not _indent2(out):
        faults.append("stdout not json.dumps(indent=2)")
    sys.stderr.write(err)
    shown = " ".join(a if len(a) <= 40 else a[:37] + "..." for a in args.command)
    verdict = "FAIL: " + "; ".join(faults) if faults else "ok"
    print(f"{shown}: exit {code}, peak {peak:.1f} MB, {len(out)} chars of stdout: {verdict}")
    return 1 if faults else 0


if __name__ == "__main__":
    raise SystemExit(main())
