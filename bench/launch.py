"""Start benchmark jobs and report their wall time, exit code and peak RSS.

Reads one JSON request per line on stdin, `{"cmd", "cwd", "stdout",
"stderr"}`, runs the command with its output going to the two files, and
answers with one JSON line, `{"wall", "code", "maxrss_kb", "cal"}`.  Exits
at end of input.

A child's `ru_maxrss` starts from the resident size of the process it was
forked from, so the benchmark, which grows while it checks outputs, does
not fork jobs itself: this small process forks them all.

`cal` is the mean of `calibrate()` run just before and just after the job,
on the same CPU: how much slower than the reference host the host ran
while the job ran.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from time import perf_counter


SPAWN_REF_S = 0.010  # a bare interpreter start on the reference host, uncontended
LOOP_REF_S = 0.004  # the loop below there


def calibrate() -> float:
    """How many times slower than the reference host this host runs now.

    The mean of two probes: starting a bare interpreter, which is most of a
    short job, and a fixed pure-Python Fraction and dict loop, which is most
    of a long one.  Neither touches the package.
    """
    start = perf_counter()
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)
    spawn = perf_counter() - start
    start = perf_counter()
    total = Fraction(0)
    seen = {}
    for i in range(1, 1500):
        total += Fraction(i % 7 + 1, i % 5 + 2)
        seen[i % 97] = total
    loop = perf_counter() - start
    return (spawn / SPAWN_REF_S + loop / LOOP_REF_S) / 2


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        before = calibrate()
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(req["cmd"], cwd=req["cwd"], stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        cal = (before + calibrate()) / 2
        print(json.dumps({"wall": wall, "code": proc.returncode, "maxrss_kb": usage.ru_maxrss, "cal": cal}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
