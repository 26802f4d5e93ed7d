"""Run one knotlab benchmark workload for one seed.

    python3 perfbench/run.py --workload family_jones --seed 1 --seconds 36 --trace 0

Run it from the root of a checkout; it imports knotlab from ``src/``.
The workload's items run in passes until ``--seconds`` is spent (at
least three, or four when traced), and every output is checked against
``reference.py`` after the pass.  Set-up is timed in fresh interpreters,
a few at the start and two after every pass.

On a shared host the CPU's speed drifts by up to 1.5x in phases of
ten seconds or more.  Every timing is therefore a median over the whole
run: set-up is the median interpreter, each item's time is its median
across the passes (the query median and tail are taken over those), and
``wall_s`` is the median full pass.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics from the
traced ones, plus the tracing overhead.  Either way the run prints every
metric it measured by name with its unit, writes the full record
(machine, versions, seed, crossing cap, counted work) to
``perfbench/results/``, and ends stdout with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.

Exit status: 0 when every item passed its check, 1 when any failed,
2 when the checkout holds no knotlab sources.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"

# The default cap of 32 crossings refuses lambda(n, m, p) from |p| = 7 on;
# the largest item here has 492 crossings.  A refusal counts as a failure.
CROSSING_CAP = "1024"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_FIRST = 3
SETUP_PER_PASS = 2
MIN_PASSES = 3
# a traced run alternates, and needs two passes of each kind for a median
MIN_TRACED_PASSES = 4
TAIL_BEYOND = 10
SETUP_SCRIPT = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import knotlab\n"
    "knotlab.jones(knotlab.parse_pd('X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]'))\n"
    "print(time.perf_counter() - t)\n"
)

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "query_p50_ms": "ms", "query_tail_ms": "ms",
    "correct_rate": "ratio", "peak_rss_mb": "MB",
}


def fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "knotlab" / "__init__.py").is_file():
    fail_setup(f"no knotlab sources under {SRC}")
os.environ["KNOTLAB_CROSSING_CAP"] = CROSSING_CAP
# one single-threaded process: numpy's BLAS pool would start a thread per
# core at import, in the benchmark and in every set-up interpreter
for var in THREAD_VARS:
    os.environ[var] = "1"
sys.path.insert(0, str(SRC))

import knotlab  # noqa: E402

if not Path(knotlab.__file__).resolve().is_relative_to(SRC):
    fail_setup(f"imported knotlab from {knotlab.__file__}, not from {SRC}")

import spans  # noqa: E402
import workloads  # noqa: E402


def time_setup(count: int) -> list[float]:
    """Seconds to import knotlab and make one trivial call, each in a
    fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(count):
        done = subprocess.run([sys.executable, "-c", SETUP_SCRIPT], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout))
    return times


def run_pass(items) -> tuple[float, list[float], list]:
    gc.collect()
    times, outputs = [], []
    clock = time.perf_counter
    t0 = clock()
    for item in items:
        s = clock()
        try:
            out = item.run()
        except Exception as e:  # a raising item is a failed item, not a crash
            out = e
        times.append(clock() - s)
        outputs.append(out)
    return clock() - t0, times, outputs


def check_pass(items, outputs) -> list[str]:
    failures = []
    for item, out in zip(items, outputs):
        try:
            if isinstance(out, Exception):
                raise out
            item.check(out)
        except Exception as e:
            failures.append(f"{item.label}: {type(e).__name__}: {e}")
    return failures


def tail(times: list[float]) -> tuple[float, float]:
    """(milliseconds, percentile) at the highest percentile that still has
    TAIL_BEYOND items above it."""
    xs = sorted(times)
    i = max(len(xs) - TAIL_BEYOND - 1, 0)
    return xs[i] * 1000, 100.0 * (i + 1) / len(xs)


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "knotlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "knotlab_crossing_cap": CROSSING_CAP,
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    time_setup(1)  # untimed: writes the bytecode cache
    setup_runs = time_setup(SETUP_FIRST)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    tracer = spans.Tracer() if args.trace else None

    # untimed: let lazy state and caches in the program fill first
    run_pass(wl.warmup)

    min_passes = MIN_TRACED_PASSES if tracer else MIN_PASSES
    deadline = time.perf_counter() + args.seconds
    walls = {False: [], True: []}
    item_times, layer_runs, failures = [], [], []
    attempted = 0
    while True:
        done = len(walls[False]) + len(walls[True])
        typical = statistics.median(walls[False] + walls[True]) if done else 0.0
        if done >= min_passes and time.perf_counter() + typical > deadline:
            break
        traced = tracer is not None and done % 2 == 1
        if traced:
            tracer.install()
            lo = tracer.mark()
        try:
            wall, times, outputs = run_pass(wl.items)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            layer_runs.append(tracer.layer_metrics(lo))
        walls[traced].append(wall)
        if not traced:
            item_times.append(times)
        attempted += len(wl.items)
        failures += check_pass(wl.items, outputs)
        setup_runs += time_setup(SETUP_PER_PASS)

    per_item = [statistics.median(ts) for ts in zip(*item_times)]
    tail_ms, tail_pct = tail(per_item)
    end_to_end = {
        "setup_s": statistics.median(setup_runs),
        "wall_s": statistics.median(walls[False]),
        "query_p50_ms": statistics.median(per_item) * 1000,
        "query_tail_ms": tail_ms,
        "correct_rate": (attempted - len(failures)) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    reported = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end.items()}
    per_layer = {}
    if tracer:
        for name in layer_runs[0]:
            per_layer[name] = statistics.median(run[name] for run in layer_runs)
        per_layer["trace.overhead_pct"] = (
            statistics.median(walls[True]) / statistics.median(walls[False]) - 1) * 100
        reported = {k: {"value": v, "unit": spans.unit_of(k)} for k, v in per_layer.items()}

    notes = {
        "query_p50_ms": f"median over items of each item's median of {len(item_times)} passes",
        "query_tail_ms": f"p{tail_pct:.1f} of {len(wl.items)} items' median times, "
                         f"{TAIL_BEYOND} beyond",
        "setup_s": f"median of {len(setup_runs)} fresh interpreters",
        "wall_s": f"median of {len(walls[False])} untraced passes",
        "sequiv.oracle_candidates": "computed as (2b+1)^(n^2) per call, not counted",
    }
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(walls[False])} untraced + {len(walls[True])} traced")
    print(f"counted work: {json.dumps(wl.work)}")
    shown = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end.items()}
    shown.update({k: (v, spans.unit_of(k)) for k, v in per_layer.items()})
    for name, (value, unit) in shown.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<36} {value:>14.6g} {unit:<6}{note}")
    print(f"  error_rate {len(failures) / attempted:.6g} ({len(failures)} of {attempted} items)")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "work": wl.work,
        "setup_runs_s": setup_runs,
        "pass_walls_s": walls[False], "traced_pass_walls_s": walls[True],
        "query_tail": {"percentile": tail_pct, "items_per_pass": len(wl.items),
                       "beyond": TAIL_BEYOND},
        "end_to_end": end_to_end, "per_layer": per_layer,
        "item_times_s": item_times,
        "error_rate": len(failures) / attempted, "failures": failures[:50],
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")

    if failures:
        print(f"perfbench: {len(failures)} of {attempted} items FAILED; first: {failures[0]}",
              file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": reported}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
