"""Benchmark for the ultragreedy CLI: one closed-loop client, one job at a time.

    python3 bench/run.py --workload greedy-scale --seed 1 --seconds 24 --trace 0

Set-up generates the workload's instances from the seed with the package's
own constructors and writes them as JSON under `.bench_work/`; it is
repeated and its median reported.  The run then executes the workload's
fixed job list, pass after pass, until at least `--seconds` of job time and
at least three passes are measured.  Each job is a fresh `python -m
ultragreedy <cmd>` process, exactly what a user runs; its wall time covers
process start to exit, and its peak RSS is read per child with `os.wait4`
(by `launch.py`, so the figure is the job's own).
Outputs are checked outside the timed region (see `checks.py`).

End-to-end times are reported at reference host speed: each measured time
is divided by the slowdown `launch.calibrate` measured around it, on the
same CPU.  The reference host, two shared vCPUs, slows down by up to
2.1 times for seconds to minutes at a time, which raw times follow and
scaled times do not.  Raw times are printed alongside.

`--trace 1` instead runs each job twice per pass, untraced and then under
`tracer.py`, and reports per-layer self times and counts plus the tracing
overhead.  `--workload all` runs the three workloads in turn, and `--smoke`
shrinks every instance so a full run with checks takes seconds.

The last line of stdout is one JSON object: `correct`, `attempted`,
`failed` and `metrics`.  The lines before it name every metric with its
unit and sample count, the environment, and the per-job medians.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from math import ceil

from launch import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
TRACER = os.path.join(HERE, "tracer.py")
LAUNCH = os.path.join(HERE, "launch.py")

MIN_PASSES = 3  # end-to-end passes; each job is timed by its median
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it

TIMED_LAYERS = (
    "cli.import",
    "cli.parse",
    "cli.emit",
    "core.validate",
    "core.perimeter",
    "greedy.select",
    "greedy.enumerate",
    "greedoid.build",
    "greedoid.axiom",
    "greedoid.matroid",
    "bhargava.pordering",
)


class BenchError(Exception):
    """The benchmark cannot run here; exit without a result."""


def load_package():
    """Import the checkout's own package, never an installed copy."""
    sys.path.insert(0, SRC)
    try:
        import ultragreedy
    except ImportError as exc:
        raise BenchError(f"cannot import ultragreedy from {SRC}: {exc}") from None
    if not os.path.abspath(ultragreedy.__file__).startswith(SRC + os.sep):
        raise BenchError(f"ultragreedy was imported from {ultragreedy.__file__}, not from {SRC}")


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "ULTRAGREEDY_CAP")}
    env["PYTHONPATH"] = SRC
    return env


def warm_up(env: dict[str, str]) -> None:
    """Import the CLI once in a child: writes bytecode caches and proves where it loads from."""
    proc = subprocess.run(
        [sys.executable, "-c", "import ultragreedy.cli as c; print(c.__file__)"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    if proc.returncode != 0 or not os.path.abspath(proc.stdout.strip()).startswith(SRC + os.sep):
        raise BenchError(f"child cannot import ultragreedy.cli from {SRC}: {proc.stderr.strip()[-300:]}")


def environment(args: argparse.Namespace) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "pinned_cpu": min(os.sched_getaffinity(0)),
        "host": platform.node(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


class Sample:
    __slots__ = ("wall", "code", "rss_mb", "stdout", "scaled")

    def __init__(self, wall: float, code: int, rss_mb: float, stdout: bytes, cal: float) -> None:
        self.wall, self.code, self.rss_mb, self.stdout = wall, code, rss_mb, stdout
        self.scaled = wall / cal  # wall time at reference host speed


class Launcher:
    """The `launch.py` process that starts and times every job of a run."""

    def __init__(self, env: dict[str, str]) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, LAUNCH], cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def run(self, cmd: list[str], workdir: str) -> Sample:
        """One job, timed by the launcher from spawn to reaped exit."""
        out_path = os.path.join(workdir, "stdout.bin")
        request = {"cmd": cmd, "cwd": workdir, "stdout": out_path, "stderr": os.path.join(workdir, "stderr.txt")}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise BenchError(f"launcher exited with code {self.proc.wait()} on {cmd[:4]}")
        r = json.loads(reply)
        with open(out_path, "rb") as f:
            out = f.read()
        return Sample(r["wall"], r["code"], r["maxrss_kb"] / 1024, out, r["cal"])

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()


class Judge:
    """Checks each job's exit code and stdout; identical output is judged once."""

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        self.verdicts: dict[tuple, str | None] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def __call__(self, job, sample: Sample) -> None:
        self.attempted += 1
        key = (job.name, sample.code, hashlib.sha256(sample.stdout).digest())
        if key not in self.verdicts:
            if sample.code != job.expect_exit:
                with open(os.path.join(self.workdir, "stderr.txt"), errors="replace") as f:
                    tail = f.read()[-300:].strip()
                err = f"exit {sample.code}, expected {job.expect_exit}: {tail}"
            else:
                try:
                    err = job.check(sample.stdout.decode(errors="replace"))
                except (ValueError, KeyError, TypeError, IndexError) as exc:
                    err = f"malformed output: {exc!r}"
            self.verdicts[key] = err
        if self.verdicts[key] is not None:
            self.failures.append(f"{job.name}: {self.verdicts[key]}")


def set_up(workload: str, seed: int, smoke: bool, workdir: str):
    """Build the instances SETUP_REPEATS times; keep the last job list.

    Returns the jobs, the set-up times at reference host speed, and the
    raw constructor times.
    """
    import workloads

    setup_s, build_s = [], []
    for _ in range(1 if smoke else SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        before = calibrate()
        jobs, setup = workloads.build(workload, seed, workdir, smoke)
        cal = (before + calibrate()) / 2
        setup_s.append((setup.build_s + setup.write_s) / cal)
        build_s.append(setup.build_s)
    return jobs, setup_s, build_s


def tail(values: list[float]) -> tuple[int, float]:
    """The highest whole percentile with TAIL_BEYOND values above it, and its value."""
    q = max(0, int(100 * (len(values) - TAIL_BEYOND) / len(values)))
    ordered = sorted(values)
    return q, ordered[max(0, ceil(q / 100 * len(ordered)) - 1)]


def end_to_end(args, jobs, workdir, launcher, judge, setup_s) -> tuple[dict, list[str]]:
    """Passes over the job list; each job is timed by its median scaled time."""
    samples: list[list[Sample]] = [[] for _ in jobs]
    measured = 0.0
    min_passes = 1 if args.smoke else MIN_PASSES
    while len(samples[0]) < min_passes or measured < args.seconds:
        for i, job in enumerate(jobs):
            s = launcher.run([sys.executable, "-m", "ultragreedy", *job.argv], workdir)
            measured += s.wall
            judge(job, s)
            s.stdout = b""
            samples[i].append(s)
    per_job = [statistics.median(s.scaled for s in runs) for runs in samples]
    raw = [statistics.median(s.wall for s in runs) for runs in samples]
    passes, count = len(samples[0]), len(jobs) * len(samples[0])
    q, tail_s = tail(per_job)
    how = f"of {len(jobs)} jobs, each the median of {passes} passes"
    metrics = {
        "wall_s": (sum(per_job), "s", f"sum {how}; raw {sum(raw):.4f} s"),
        "job_p50_s": (statistics.median(per_job), "s", f"median {how}; raw {statistics.median(raw):.4f} s"),
        "job_tail_s": (tail_s, "s", f"p{q} {how}, >= {TAIL_BEYOND} beyond; raw {tail(raw)[1]:.4f} s"),
        "peak_rss_mb": (max(s.rss_mb for runs in samples for s in runs), "MB", f"max of {count} job runs"),
        "setup_s": (statistics.median(setup_s), "s", f"median of {len(setup_s)} set-ups"),
    }
    rows = [
        f"  {job.name:<44} {scaled:9.4f} {wall:9.4f} {max(s.rss_mb for s in runs):8.1f} {runs[0].code:5d}"
        for job, scaled, wall, runs in zip(jobs, per_job, raw, samples)
    ]
    return metrics, ["  job                                           scaled_s     raw_s   rss_mb  exit", *rows]


def traced(args, jobs, workdir, launcher, judge, build_s) -> tuple[dict, list[str]]:
    summary_path = os.path.join(workdir, "trace.json")
    per_pass: list[dict[str, float]] = []
    measured = 0.0
    while not per_pass or measured < args.seconds:
        agg: dict[str, float] = {}
        plain_s = traced_s = 0.0
        for job in jobs:
            s = launcher.run([sys.executable, "-m", "ultragreedy", *job.argv], workdir)
            plain_s += s.wall
            judge(job, s)
            t = launcher.run([sys.executable, TRACER, summary_path, *job.argv], workdir)
            traced_s += t.wall
            judge(job, t)
            with open(summary_path) as f:
                summary = json.load(f)
            layers = sum(summary["self_s"].values())
            if abs(layers - summary["total_s"]) > 1e-6 * max(1.0, summary["total_s"]):
                judge.failures.append(f"{job.name}: layer self times {layers} != traced total {summary['total_s']}")
            add_summary(agg, summary, len(t.stdout))
        steps, sets, evals = agg["greedy.steps"], agg["greedoid.sets"], agg["build_perimeter_calls"]
        agg["greedy.d_calls_per_step"] = agg["greedy_d_calls"] / steps if steps else 0.0
        agg["greedoid.sets_per_perimeter_eval"] = sets / evals if evals else 0.0
        agg["trace.overhead_ratio"] = traced_s / plain_s
        per_pass.append(agg)
        measured += plain_s + traced_s
    metrics = {}
    for name, unit in PER_LAYER:
        if name == "constructions.build_s":
            value = statistics.median(build_s)
        else:
            value = statistics.median(p.get(name, 0.0) for p in per_pass)
        metrics[name] = (value, unit, f"median of {len(per_pass)} traced passes over {len(jobs)} jobs")
    return metrics, []


def add_summary(agg: dict[str, float], s: dict, stdout_bytes: int) -> None:
    """Add one traced job's summary to the pass totals, named as reported."""

    def add(name: str, value: float) -> None:
        agg[name] = agg.get(name, 0.0) + value

    for layer in TIMED_LAYERS:
        add(f"{layer}_s", s["self_s"].get(layer, 0.0))
    add("trace.total_s", s["total_s"])
    add("cli.stdout_bytes", stdout_bytes)
    add("core.perimeter_calls", sum(v for k, v in s["calls"].items() if k.startswith("core.perimeter<")))
    add("core.d_calls", sum(s["d_calls"].values()))
    add("core.w_calls", sum(s["w_calls"].values()))
    kernel = ("greedy.select", "greedy.enumerate")
    add("greedy.gain_evals", sum(s["w_calls"].get(k, 0) for k in kernel))
    add("greedy_d_calls", sum(s["d_calls"].get(k, 0) for k in kernel))
    add("build_perimeter_calls", s["calls"].get("core.perimeter<greedoid.build", 0))
    for name, value in s["counts"].items():
        add(name, value)


PER_LAYER = (
    ("cli.import_s", "s"),
    ("cli.parse_s", "s"),
    ("cli.emit_s", "s"),
    ("cli.stdout_bytes", "count"),
    ("core.validate_s", "s"),
    ("core.perimeter_s", "s"),
    ("core.perimeter_calls", "count"),
    ("core.d_calls", "count"),
    ("core.w_calls", "count"),
    ("greedy.select_s", "s"),
    ("greedy.enumerate_s", "s"),
    ("greedy.steps", "count"),
    ("greedy.sequences", "count"),
    ("greedy.gain_evals", "count"),
    ("greedy.d_calls_per_step", "calls/step"),
    ("greedoid.build_s", "s"),
    ("greedoid.sets", "count"),
    ("greedoid.sets_per_perimeter_eval", "ratio"),
    ("greedoid.axiom_s", "s"),
    ("greedoid.matroid_s", "s"),
    ("bhargava.pordering_s", "s"),
    ("constructions.build_s", "s"),
    ("trace.total_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def run_workload(args: argparse.Namespace, workload: str, launcher: Launcher) -> None:
    workdir = os.path.join(WORK, workload)
    jobs, setup_s, build_s = set_up(workload, args.seed, args.smoke, workdir)
    judge = Judge(workdir)
    if args.trace:
        metrics, rows = traced(args, jobs, workdir, launcher, judge, build_s)
    else:
        metrics, rows = end_to_end(args, jobs, workdir, launcher, judge, setup_s)
    failed = len(judge.failures)
    print(f"# {workload}: {json.dumps(environment(args) | {'workload': workload})}")
    for line in rows:
        print(line)
    for name, (value, unit, how) in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {unit:<10} {how}")
    print(f"  {'fail_ratio':<34} {failed / judge.attempted:>14.6g} {'ratio':<10} {failed} of {judge.attempted} jobs")
    for msg in judge.failures[:10]:
        print(f"  FAILED {msg}")
    result = {
        "correct": failed == 0,
        "attempted": judge.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result), flush=True)


def main(argv: list[str] | None = None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="smallest sizes: every job and check in seconds")
    args = parser.parse_args(argv)
    # jobs, the launcher's calibration and set-up share one CPU, so that the
    # calibration sees the speed the job ran at
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    env = child_env()
    warm_up(env)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    launcher = Launcher(env)
    try:
        for name in names:
            run_workload(args, name, launcher)
    finally:
        launcher.close()
    return 0


if __name__ == "__main__":
    try:
        load_package()
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
