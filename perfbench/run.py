"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload rank2-audit --seed 1 --seconds 15 --trace 0

Run from the repository root; grammate is imported from ./src.  With
--trace 0 the last stdout line is a JSON object with the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced run,
and the spans are written to .perfbench_out/.  All load is closed-loop
in this one process.
"""

import time

# set-up is timed from here, before numpy or grammate load, in process CPU
# time for the reason harness.task_clock gives
_T0 = time.process_time()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import harness  # noqa: E402
from perfbench.workloads import MODULES  # noqa: E402

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5
OUT_DIR = harness.ROOT / ".perfbench_out"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(MODULES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time as JSON and exit")
    return ap.parse_args(argv)


def set_up(args, workdir: Path):
    """Import grammate, build the workload's inputs and warm up."""
    harness.import_grammate()
    from perfbench import workloads

    wl = workloads.load(args.workload)(args.seed, workdir)
    for task in wl.warmup():  # unchecked: the checks are not the program's set-up
        try:
            wl.run(task)
        except Exception:  # counted when the task runs for real
            pass
    return wl, time.process_time() - _T0


def setup_samples(args) -> list[float]:
    """Set-up time of fresh processes, one after another."""
    out = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=harness.ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def print_failures(summary) -> None:
    for text, (n, message, defect) in sorted(summary.failures.items()):
        tag = f" [known defect: {defect}]" if defect else ""
        print(f"FAIL x{n}: {text} -- {message}{tag}")


def measure(args, wl, setup_s: list[float]) -> dict:
    from perfbench.metrics import END_TO_END

    records, wall, rounds = harness.run_rounds(wl, wl.tasks(), args.seconds)
    s = harness.summarize(records)
    values = {
        "setup_s": harness.median(setup_s),
        "tasks_per_s": s.tasks_per_s,
        "task_p50_ms": s.p50_ms,
        "task_p99_ms": s.p99_ms,
        "ok_frac": 1.0 - s.fail_frac,
        "decided_frac": 1.0 - s.undecided_frac,
        "peak_rss_mb": harness.peak_rss_mb(),
    }
    print(f"# {len(records)} tasks in {rounds} round(s) of {len(wl.tasks())}, "
          f"{wall:.2f} s wall; set-up samples {[round(x, 4) for x in setup_s]}")
    print(f"{'fail_frac':<16}{s.fail_frac:>14.6f} ratio")
    print(f"{'undecided_frac':<16}{s.undecided_frac:>14.6f} ratio")
    for name, unit, _, _ in END_TO_END:
        print(f"{name:<16}{values[name]:>14.6f} {unit}")
    print_failures(s)
    return {"correct": s.correct, "attempted": s.attempted, "failed": s.failed,
            "metrics": {n: {"value": values[n], "unit": u} for n, u, _, _ in END_TO_END}}


def traced(args, wl) -> dict:
    """Untraced rounds, then the same rounds traced: per-layer metrics and
    the tracing overhead."""
    from perfbench import selfcheck
    from perfbench.metrics import per_layer_values
    from perfbench.tracer import Tracer

    count_ok, count_msg = selfcheck.wrapped_call_counts()
    print(f"# traced-run call-count check: {'ok' if count_ok else 'FAILED'} ({count_msg})")
    plain, _, rounds = harness.run_rounds(wl, wl.tasks(), args.seconds / 2)
    tracer = Tracer()
    with tracer:
        spans, _, _ = harness.run_rounds(wl, wl.tasks(), float("inf"), rounds, tracer)
    overhead = sum(r.seconds for r in spans) / sum(r.seconds for r in plain) - 1.0
    by_label: dict[str, list[float]] = {}
    for r in plain:
        by_label.setdefault(r.task.label, []).append(r.seconds)
    p50 = {k: harness.percentile(v, 50) * 1e3 for k, v in by_label.items()}
    metrics = per_layer_values(tracer, p50, overhead)
    s = harness.summarize(plain + spans)

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "layers": [{"name": n, "parent": p, "calls": c, "self_s": st, "total_s": tt}
                   for (n, p), (c, st, tt) in sorted(tracer.agg.items())],
        "counters": dict(tracer.counters), "tasks": tracer.tasks}), encoding="utf-8")
    top = sorted(tracer.agg.items(), key=lambda kv: -kv[1][1])[:15]
    print(f"# {len(spans)} traced tasks; spans written to {path.relative_to(harness.ROOT)}")
    for (name, parent), (calls, self_s, _) in top:
        print(f"#   {name:<36} from {parent:<32} calls {calls:>9}  self {self_s:9.4f} s")
    for name, m in metrics.items():
        print(f"{name:<40}{m['value']:>16.6f} {m['unit']}")
    print_failures(s)
    return {"correct": s.correct and count_ok, "attempted": s.attempted, "failed": s.failed,
            "metrics": metrics}


def pin_environment() -> str | None:
    """One BLAS thread (two cores, closed loop) and no GRAMMATE_THREADS, so a
    stray setting cannot change enumeration timing.  Must run before numpy
    is imported; returns the GRAMMATE_THREADS value that was removed."""
    for var in BLAS_VARS:
        os.environ[var] = "1"
    return os.environ.pop("GRAMMATE_THREADS", None)


def main(argv=None) -> int:
    grammate_threads_was = pin_environment()
    args = parse_args(argv)
    # The run keeps its input files, so a failure line's argv can be rerun;
    # set-up samples write to their own directory and remove it.
    root = OUT_DIR / "work"
    root.mkdir(parents=True, exist_ok=True)
    if args.setup_only:
        work = Path(tempfile.mkdtemp(prefix="setup-", dir=root))
    else:
        work = root / f"{args.workload}-seed{args.seed}"
        shutil.rmtree(work, ignore_errors=True)
    try:
        wl, setup_s = set_up(args, work)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        print(f"# perfbench workload={args.workload} seed={args.seed} trace={args.trace}")
        print("# stamp " + json.dumps(harness.stamp({v: os.environ[v] for v in BLAS_VARS},
                                                     grammate_threads_was)))
        if args.trace:
            result = traced(args, wl)
        else:
            result = measure(args, wl, [setup_s] + setup_samples(args))
    finally:
        if args.setup_only:
            shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
