"""``repro watch``: a live (or snapshot) view of a sweep's journal + store.

The journal carries the lifecycle stream; the store carries the durable
rows and the wall-time history.  Joining them answers the operational
questions a thousand-cell grid raises: how far along is it, how fast is
it moving, which workers are alive, what broke.  The view is built from
plain files — no IPC with the running sweep — so it works identically on
an in-progress, killed, or long-finished run, and on a bare store whose
journal was deleted (degraded: counts only, no event history).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.results.store import ResultsStore
from repro.sweep.journal import JOURNAL_SUFFIX, journal_path, read_journal
from repro.util.validation import ReproError

__all__ = ["SweepView", "build_view", "render_view", "resolve_paths"]


def resolve_paths(target: "str | Path") -> tuple:
    """Map a store *or* journal path to the ``(store, journal)`` pair.

    Either file may be missing (a journal-only post-mortem of a deleted
    store; a store swept before journals existed) — callers check
    existence; at least one must exist.
    """
    target = Path(target)
    if target.name.endswith(JOURNAL_SUFFIX):
        stem = target.name[: -len(JOURNAL_SUFFIX)]
        return target.with_name(stem + ".sqlite"), target
    return target, journal_path(target)


def percentile_exact(values, q: float) -> float:
    """Nearest-rank percentile over raw samples (watch has the journal's
    exact per-cell walls in hand, so no sketch is needed here)."""
    if not values:
        return 0.0
    ranked = sorted(values)
    rank = max(1, math.ceil(q * len(ranked)))
    return ranked[rank - 1]


@dataclass
class SweepView:
    """Everything one ``repro watch`` frame renders."""

    store_path: Path
    journal_path: Path
    sweep: str = ""
    # current (latest run_started) run
    run_pid: int = 0
    run_started_t: float = 0.0
    run_total: int = 0
    run_shards: int = 0
    run_workers: int = 0
    finished: bool = False
    run_wall_s: float = 0.0
    digest: str = ""
    # cumulative across every run in the journal
    runs: int = 0
    completed: set = field(default_factory=set)
    resumed: set = field(default_factory=set)
    failed: dict = field(default_factory=dict)       # fingerprint -> reason
    dispatched: set = field(default_factory=set)     # current run only
    # movement + tails (journal cell_completed payloads); the plain
    # lists cover the current run (throughput), the all_* ones every run
    # in the journal (the report's post-mortem percentiles)
    walls: list = field(default_factory=list)
    stage_walls: dict = field(default_factory=dict)  # stage -> [seconds]
    all_walls: list = field(default_factory=list)
    all_stage_walls: dict = field(default_factory=dict)
    last_event_t: float = 0.0
    # worker liveness (current run heartbeats)
    workers: dict = field(default_factory=dict)      # shard -> last beat
    stalled: set = field(default_factory=set)
    lost: list = field(default_factory=list)         # (shard, reason)
    fallbacks: list = field(default_factory=list)    # (scope, reason)
    # trouble tail: (t, kind, detail), most recent last
    events: list = field(default_factory=list)
    heartbeats: int = 0
    truncated_lines: int = 0
    journal_present: bool = False
    journal_records: int = 0
    # store side
    store_rows: int = 0
    store_wall: dict = field(default_factory=dict)

    @property
    def done(self) -> int:
        return len(self.completed | self.resumed)

    @property
    def in_flight(self) -> int:
        if self.finished:
            return 0
        settled = self.completed | self.resumed | set(self.failed)
        return len(self.dispatched - settled)

    @property
    def remaining(self) -> int:
        return max(0, self.run_total - self.done - len(self.failed))

    def rate(self) -> float:
        """Completed cells per second over the current run so far."""
        if not self.run_started_t:
            return 0.0
        window = (self.run_wall_s if self.finished
                  else max(self.last_event_t - self.run_started_t, 1e-9))
        produced = len(self.walls)   # current run's completions only
        if produced == 0 or window <= 0:
            return 0.0
        return produced / window

    def eta_s(self) -> "float | None":
        """Remaining-cell estimate from the store's wall-time history."""
        mean = self.store_wall.get("mean_s", 0.0)
        if not mean or self.finished or self.remaining == 0:
            return None
        lanes = max(1, self.run_workers)
        return self.remaining * mean / lanes


def _reset_run(view: SweepView, record: dict) -> None:
    view.runs += 1
    view.sweep = str(record.get("sweep", view.sweep))
    view.run_pid = int(record.get("pid", 0))
    view.run_started_t = float(record.get("t", 0.0))
    view.run_total = int(record.get("total", 0))
    view.run_shards = int(record.get("shards", 0))
    view.run_workers = int(record.get("workers", 0))
    view.finished = False
    view.run_wall_s = 0.0
    view.dispatched = set()
    view.workers = {}
    view.stalled = set()
    view.lost = []
    view.fallbacks = []
    view.walls = []
    view.stage_walls = {}


def build_view(target: "str | Path", events: int = 5) -> SweepView:
    """Fold the journal (if any) and store (if any) into one view."""
    store_p, journal_p = resolve_paths(target)
    if not store_p.exists() and not journal_p.exists():
        raise ReproError(
            f"nothing to watch: neither store {store_p} nor journal "
            f"{journal_p} exists"
        )
    view = SweepView(store_path=store_p, journal_path=journal_p)

    if journal_p.exists():
        records, bad = read_journal(journal_p)
        view.journal_present = True
        view.journal_records = len(records)
        view.truncated_lines = len(bad)
        trouble: list = []
        for rec in records:
            kind = rec.get("event")
            t = float(rec.get("t", 0.0))
            view.last_event_t = max(view.last_event_t, t)
            if kind == "run_started":
                _reset_run(view, rec)
            elif kind == "shard_dispatched":
                view.dispatched.update(rec.get("fingerprints", []))
            elif kind == "cell_completed":
                view.completed.add(rec.get("fingerprint"))
                view.failed.pop(rec.get("fingerprint"), None)
                wall = float(rec.get("wall_s", 0.0))
                view.walls.append(wall)
                view.all_walls.append(wall)
                for stage, secs in (rec.get("stages") or {}).items():
                    view.stage_walls.setdefault(stage, []).append(float(secs))
                    view.all_stage_walls.setdefault(stage, []).append(
                        float(secs))
            elif kind == "cell_resumed":
                view.resumed.add(rec.get("fingerprint"))
            elif kind == "cell_failed":
                view.failed[rec.get("fingerprint")] = str(rec.get("reason", ""))
                trouble.append((t, "cell_failed",
                                f"{rec.get('cell')}: {rec.get('reason')}"))
            elif kind == "heartbeat":
                view.heartbeats += 1
                view.workers[rec.get("shard")] = rec
                view.stalled.discard(rec.get("shard"))
            elif kind == "worker_stalled":
                view.stalled.add(rec.get("shard"))
                trouble.append((t, "worker_stalled",
                                f"shard {rec.get('shard')} "
                                f"({rec.get('workload')}) silent "
                                f"{rec.get('silent_s')}s"))
            elif kind == "worker_recovered":
                view.stalled.discard(rec.get("shard"))
            elif kind == "worker_lost":
                view.lost.append((rec.get("shard"), str(rec.get("reason"))))
                view.stalled.discard(rec.get("shard"))
                trouble.append((t, "worker_lost",
                                f"shard {rec.get('shard')} "
                                f"({rec.get('workload')}): "
                                f"{rec.get('reason')}"))
            elif kind == "fallback_serial":
                view.fallbacks.append((str(rec.get("scope")),
                                       str(rec.get("reason"))))
                trouble.append((t, "fallback_serial",
                                f"{rec.get('scope')}: {rec.get('reason')}"))
            elif kind == "fault_handled":
                trouble.append((t, "fault_handled",
                                f"{rec.get('site')} -> {rec.get('action')}"))
            elif kind == "run_finished":
                view.finished = True
                view.run_wall_s = float(rec.get("wall_s", 0.0))
                view.digest = str(rec.get("digest", ""))
        view.events = trouble[-events:] if events > 0 else []

    if store_p.exists():
        with ResultsStore(store_p) as store:
            view.store_rows = len(store)
            view.store_wall = store.wall_stats()
    return view


def _fmt_eta(seconds: "float | None") -> str:
    if seconds is None:
        return "-"
    if seconds < 120:
        return f"{seconds:.0f}s"
    if seconds < 7200:
        return f"{seconds / 60:.1f}m"
    return f"{seconds / 3600:.1f}h"


def render_view(view: SweepView, now: "float | None" = None) -> str:
    """One text frame; pure function of the view for testability."""
    now = now if now is not None else time.time()
    lines = []
    title = view.sweep or view.store_path.stem
    if not view.journal_present:
        # A store whose journal is gone: its rows are settled cells, and
        # nothing is known about runs, so no run counts are invented.
        lines.append(f"sweep {title} [no journal]  "
                     f"(journal: missing at {view.journal_path})")
        lines.append(f"  cells: {view.store_rows} settled in the store")
    else:
        state = "finished" if view.finished else (
            "running" if view.in_flight else "idle/killed")
        lines.append(f"sweep {title} [{state}]  "
                     f"(journal: {view.journal_records} records, "
                     f"{view.runs} run(s)"
                     + (f", {view.truncated_lines} truncated line(s)"
                        if view.truncated_lines else "")
                     + ")")
        lines.append(
            f"  cells: {len(view.completed)} completed, {len(view.resumed)} "
            f"resumed, {len(view.failed)} failed, {view.in_flight} in "
            f"flight, {view.remaining} remaining of "
            f"{view.run_total or view.store_rows}"
        )
    rate = view.rate()
    pieces = [f"store rows {view.store_rows}"]
    if rate > 0:
        pieces.append(f"{rate:.2f} cells/s")
    pieces.append(f"eta {_fmt_eta(view.eta_s())}")
    if view.finished:
        pieces.append(f"run wall {view.run_wall_s:.2f}s")
    lines.append("  " + " | ".join(pieces))
    if view.walls:
        lines.append(
            f"  cell wall: p50 {percentile_exact(view.walls, 0.50):.3f}s "
            f"p95 {percentile_exact(view.walls, 0.95):.3f}s "
            f"(n={len(view.walls)})"
        )
    for stage in ("walk", "replay", "charge"):
        samples = view.stage_walls.get(stage)
        if samples:
            lines.append(
                f"  stage {stage}: p50 "
                f"{percentile_exact(samples, 0.50):.3f}s p95 "
                f"{percentile_exact(samples, 0.95):.3f}s (n={len(samples)})"
            )
    if view.workers and not view.finished:
        for shard in sorted(view.workers, key=lambda s: (s is None, s)):
            beat = view.workers[shard]
            age = max(0.0, now - float(beat.get("t", now)))
            flag = " STALLED" if shard in view.stalled else ""
            lines.append(
                f"  worker shard {shard} ({beat.get('workload')}): "
                f"cell {beat.get('cell') or '-'} "
                f"[{beat.get('done')}/{beat.get('cells')}] "
                f"rss {int(beat.get('rss_kb', 0)) // 1024} MiB, "
                f"beat {age:.1f}s ago{flag}"
            )
    if view.digest:
        lines.append(f"  digest {view.digest}")
    if view.events:
        lines.append(f"  last {len(view.events)} event(s):")
        for t, kind, detail in view.events:
            lines.append(f"    [{kind}] {detail}")
    return "\n".join(lines)
