"""Closed-loop task runner, outcome counting and percentile arithmetic.

A workload hands the runner a fixed task list (one round).  The runner issues
one task at a time and times it; the check of its output runs after the
timed span.  Whole rounds are run while the next one is projected to end
before the deadline, and at least one round always runs, so every run of a
workload does the same mix of work however fast the program is.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

OK = "ok"
FAIL = "fail"
UNDECIDED = "undecided"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Task spans are CPU time of this thread.  The tasks are single-threaded,
# CPU-bound and closed-loop, so this is their wall time on an idle machine;
# on a shared VM wall time also counts time the host gives to other guests
# (steal), which moves from second to second by more than the bounds.
task_clock = time.thread_time


@dataclass(frozen=True)
class Task:
    """One unit of closed-loop work.

    `label` groups tasks for reporting (a subcommand, a form stratum);
    `input` reproduces the task on its own when it fails; `payload` is what
    the workload's run function consumes.  `known_defect` names a documented
    defect of the program that makes this task fail today: such a failure
    still counts in `failed`, but does not mark the run incorrect.
    """

    label: str
    input: str
    payload: object = field(default=None, compare=False, repr=False)
    known_defect: str | None = None


@dataclass
class Record:
    task: Task
    seconds: float
    status: str
    message: str = ""


def import_grammate():
    """Import the package from this checkout's src/, and only from there."""
    if not (SRC / "grammate" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no grammate sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import grammate

    if Path(grammate.__file__).resolve().parent != SRC / "grammate":
        raise SystemExit(f"perfbench: grammate imported from {grammate.__file__}, not {SRC}")
    return grammate


def execute(workload, task: Task, tracer=None) -> Record:
    """Run one task, timed, then check its output outside the timed span."""
    out, err = None, None
    if tracer is not None:
        tracer.begin_task(task)
    t0 = task_clock()
    try:
        out = workload.run(task)
    except Exception as exc:  # a raise is a task failure, reported with its input
        err = exc
    dt = task_clock() - t0
    if tracer is not None:
        tracer.end_task()
    if err is not None:
        return Record(task, dt, FAIL, f"raised {type(err).__name__}: {err}")
    try:
        status, message = workload.check(task, out)
    except Exception as exc:
        status, message = FAIL, f"check raised {type(exc).__name__}: {exc}"
    return Record(task, dt, status, message)


def run_rounds(workload, tasks: list[Task], seconds: float, max_rounds: int | None = None,
               tracer=None) -> tuple[list[Record], float, int]:
    """Run whole rounds of `tasks` in a closed loop.

    Returns (records, wall seconds, rounds run).
    """
    records: list[Record] = []
    start = time.perf_counter()
    rounds = 0
    while True:
        for task in tasks:
            records.append(execute(workload, task, tracer))
        rounds += 1
        wall = time.perf_counter() - start
        if max_rounds is not None and rounds >= max_rounds:
            break
        if wall + wall / rounds > seconds:
            break
    return records, time.perf_counter() - start, rounds


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% of the
    samples at or below it."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    k = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[k - 1]


def median(values) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


@dataclass
class Summary:
    attempted: int
    failed: int
    undecided: int
    correct: bool
    tasks_per_s: float
    p50_ms: float
    p99_ms: float
    failures: dict[str, tuple[int, str, str | None]]

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted

    @property
    def undecided_frac(self) -> float:
        return self.undecided / self.attempted


def summarize(records: list[Record]) -> Summary:
    """Counts and timing statistics of a list of records.

    tasks_per_s divides the task count by the summed task spans, so the
    checks that run between tasks are not charged to the program.
    """
    if not records:
        raise ValueError("no tasks ran")
    times = [r.seconds for r in records]
    failures: dict[str, tuple[int, str, str | None]] = {}
    failed = undecided = 0
    correct = True
    for r in records:
        if r.status == UNDECIDED:
            undecided += 1
        elif r.status == FAIL:
            failed += 1
            if r.task.known_defect is None:
                correct = False
            n, _, _ = failures.get(r.task.input, (0, "", None))
            failures[r.task.input] = (n + 1, r.message, r.task.known_defect)
    return Summary(
        attempted=len(records),
        failed=failed,
        undecided=undecided,
        correct=correct,
        tasks_per_s=len(records) / sum(times),
        p50_ms=percentile(times, 50) * 1e3,
        p99_ms=percentile(times, 99) * 1e3,
        failures=failures,
    )


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "grammate").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(blas_env: dict[str, str], grammate_threads_was: str | None) -> dict:
    """Where and on what a result was measured."""
    import numpy

    return {
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "blas_threads": blas_env,
        "GRAMMATE_THREADS": os.environ.get("GRAMMATE_THREADS"),
        "GRAMMATE_THREADS_unset_from": grammate_threads_was,
    }
