"""Repository benchmark: host time of the ``repro`` CLI, end to end and
layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {fig6-cold,zoo-warm,cli-read} \\
        --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all --seed N   # every workload,
                                                       # untraced and traced

Set-up runs three times (once when tracing) and ``setup_s`` is its
median; passes then go on until they have taken ``--seconds`` in all
and the workload's minimum number of passes has run.  ``--trace 0``
reports the end-to-end metrics declared in ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  Each
run also writes its samples and config stamp to
``.perfbench-work/results/`` for ``perfbench/compare.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import metrics  # noqa: E402
from perfbench.workloads import MACHINE, WORKERS, WORKLOADS, Context  # noqa: E402

SETUP_REPS = 3
#: Every process is killed at this many seconds after start, so a run
#: ends well inside its 180-second limit.
DEADLINE_S = 165.0
WORK_DIR = ROOT / ".perfbench-work"


def _tree_sha256(files) -> str:
    digest = hashlib.sha256()
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _commit() -> "str | None":
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
    except OSError:  # no git on this host
        return None
    return out.stdout.strip() or None


def config_stamp(workload, seed: int, seconds: int, trace: int) -> dict:
    """Everything a result depends on besides the code under test."""
    import numpy

    bench = ROOT / "perfbench"
    return {
        "workload": workload.name,
        "machine": MACHINE,
        "refs_per_core": workload.refs,
        "seed": seed,
        "workers": WORKERS,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "run_seconds": seconds,
        "trace": trace,
        "benchmark_sha256": _tree_sha256(
            [*bench.glob("*.py"), bench / "references.json",
             ROOT / "BENCHMARK.json"]),
        "commit": _commit(),
        "source_sha256": _tree_sha256((ROOT / "src" / "repro").rglob("*.py")),
    }


def measure(workload, ctx: Context, seconds: int, trace: bool) -> tuple:
    """Set-ups, then passes until they have taken ``seconds`` in all and
    at least ``workload.min_passes`` have run (pairs when tracing).  A
    pass that could not finish by the deadline is not started."""
    setup = []
    for rep in range(1 if trace else SETUP_REPS):
        setup.append(workload.setup(ctx, rep))
        # Flush the set-up's writes (the zoo-warm stream cache is ~50 MB)
        # so their write-back does not land inside a timed pass.
        os.sync()
    untraced, traced = [], []
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        untraced.append(workload.run_pass(ctx, len(untraced) + len(traced), False))
        if trace:
            traced.append(workload.run_pass(ctx, len(untraced) + len(traced), True))
        longest = max(longest, time.perf_counter() - t0)
        measured = sum(p.wall for p in untraced + traced)
        if (time.perf_counter() + 1.2 * longest > ctx.deadline
                or (measured >= seconds
                    and (trace or len(untraced) >= workload.min_passes))):
            break
    return setup, untraced, traced


def end_to_end(setup: list, untraced: list) -> dict:
    walls = [p.wall for p in untraced]
    return {
        "wall_s": metrics.median(walls),
        "wall_tail_s": metrics.tail(walls),
        "setup_s": metrics.median(setup),
        "peak_rss_mb": metrics.median([p.peak_rss_mb for p in untraced]),
    }


def per_layer(workload, ctx: Context, untraced: list, traced: list) -> dict:
    breakdowns = []
    for index, p in enumerate(traced):
        procs = [{"t_spawn": q.t_spawn, "t_reaped": q.t_reaped, "trace": q.trace}
                 for q in p.procs if q.trace is not None]
        if len(procs) < len(p.procs):
            continue  # already counted as failed when the trace was missing
        b = metrics.pass_breakdown(procs)
        gap = metrics.layer_sum_gap(b, p.wall)
        ctx.ops.check(gap <= metrics.LAYER_SUM_TOLERANCE,
                      f"traced pass {index}: layer self times + other differ "
                      f"from wall by {gap:.2%}")
        b["gap"] = gap
        breakdowns.append(b)
    if not breakdowns:
        return {}
    verb_walls: dict = {}
    for p in untraced:
        for proc in p.procs:
            verb_walls.setdefault(proc.verb, []).append(proc.wall)
    merged = metrics.merge(breakdowns)
    m = metrics.layer_metrics(merged, len(breakdowns), verb_walls)
    problems = metrics.traffic_problems(workload.name, merged["self_s"],
                                        merged["calls"])
    ctx.ops.check(not problems, "; ".join(problems))
    plain = metrics.median([p.wall for p in untraced])
    m["trace_overhead_frac"] = (
        metrics.median([p.wall for p in traced]) - plain) / plain
    m["layer_sum_gap_frac"] = max(b["gap"] for b in breakdowns)
    return m


def run_workload(name: str, seed: int, seconds: int, trace: int,
                 declared: dict, references: dict) -> dict:
    """One run of one workload: measure, check, record, print a summary.
    Returns the object printed as the last line of output."""
    wanted = declared["per_layer" if trace else "end_to_end"]
    workload = WORKLOADS[name]()
    work = WORK_DIR / f"{name}-{os.getpid()}"
    ops = metrics.Ops()
    ctx = Context(ROOT, work, seed, time.perf_counter() + DEADLINE_S, ops,
                  references)
    try:
        setup, untraced, traced = measure(workload, ctx, seconds, bool(trace))
        values = (per_layer(workload, ctx, untraced, traced) if trace
                  else end_to_end(setup, untraced))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    ops.check(not missing, f"metrics not measured: {missing}")
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0),
                                "unit": m["unit"]} for m in wanted},
    }
    record = {
        "config": config_stamp(workload, seed, seconds, trace),
        **result,
        "failures": ops.reasons,
        "passes": len(untraced),
        "traced_passes": len(traced),
        "samples": {"setup_s": setup,
                    "wall_s": [p.wall for p in untraced],
                    "peak_rss_mb": [p.peak_rss_mb for p in untraced]},
    }
    results = WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{trace}-{time.time_ns()}.json"
     ).write_text(json.dumps(record, indent=1))

    for reason in ops.reasons:
        print(f"FAILED {reason}")
    print(f"{name}: seed {seed}, {len(untraced)} pass(es)"
          + (f" + {len(traced)} traced" if traced else "")
          + f", {ops.attempted} operations, {ops.failed} failed")
    for m in wanted:
        print(f"  {m['name']:32s} {values.get(m['name'], float('nan')):14.6g} "
              f"{m['unit']}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*sorted(WORKLOADS), "all"],
                        help="'all' runs every workload, untraced then traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    references = json.loads((ROOT / "perfbench" / "references.json").read_text())

    # Byte-compile once, outside every timed region: the first import in
    # a fresh checkout would otherwise charge compilation to a pass.
    compiled = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
        capture_output=True, text=True)
    if compiled.returncode:
        print(f"error: byte-compiling src failed:\n{compiled.stdout}"
              f"{compiled.stderr}", file=sys.stderr)
        return 2

    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds,
                                      args.trace, declared, references)))
        return 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            result = run_workload(name, args.seed, args.seconds, trace,
                                  declared, references)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            combined["metrics"].update(
                {f"{name}:{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
