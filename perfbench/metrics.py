"""Metric arithmetic of the benchmark: order statistics, per-layer
reduction of traced passes, the layer-sum and traffic checks, and
failure accounting.  Pure functions over plain data, so the tests can
drive them without running the simulator."""

from __future__ import annotations

import math
import statistics

#: Share of a pass's wall time by which the layer self times plus
#: ``other`` may disagree with the wall time measured by the parent.
LAYER_SUM_TOLERANCE = 0.01

#: Replay schemes reported by name (the layer total covers any other).
REPLAY_SCHEMES = ("redhip", "cbf", "levelpred", "ehc")

#: CLI verbs timed as whole processes (``cli.<verb>_s``).
VERBS = ("run", "sweep", "query_digest", "query_csv", "watch", "report")


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> float:
    """The highest order statistic with at least ten samples above it.

    With fewer than 21 samples that statistic lies at or below the
    median, so the median is reported instead: a run that collects fewer
    passes has no supported tail beyond its middle.
    """
    ordered = sorted(values)
    mid = median(ordered)
    if len(ordered) < 11:
        return mid
    return max(mid, float(ordered[len(ordered) - 11]))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return float(ordered[rank - 1])


def spread(values) -> float:
    """Distance between the first and third quartile, as a share of the
    median (``statistics.quantiles(values, n=4)``)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


def rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


class Ops:
    """Operations attempted and failed; every failure keeps its reason."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(what)
        return ok

    def cells(self, total: int, failed: int, what: str) -> None:
        self.attempted += total
        self.failed += failed
        if failed:
            self.reasons.append(f"{failed} failed cell(s): {what}")


# ------------------------------------------------------------ layers
def group(layer: str) -> str:
    """The module a layer name belongs to (``replay.cbf`` -> ``replay``);
    interpreter boot and import are the CLI's start-up."""
    if layer in ("cli.boot", "cli.import"):
        return "startup"
    return layer.split(".")[0]


def pass_breakdown(procs: list) -> dict:
    """Reduce one traced pass to per-layer self time.

    ``procs`` are the pass's processes in order, each a dict with the
    parent's ``t_spawn``/``t_reaped`` and the child's ``trace`` record
    (see ``trace_child.py``).  Boot (spawn to the child's first line,
    plus its end to the reap) and import are layers of their own;
    ``other`` is accumulated directly: the children's time outside every
    span plus the parent's time between processes.
    """
    parts = []
    for index, proc in enumerate(procs):
        tr = proc["trace"]
        boot = (tr["t_first"] - proc["t_spawn"]) + (proc["t_reaped"] - tr["t_end"])
        between = proc["t_spawn"] - procs[index - 1]["t_reaped"] if index else 0.0
        parts.append({
            "self_s": {"cli.boot": boot,
                       "cli.import": tr["t_imported"] - tr["t_first"],
                       **tr["self_s"]},
            "calls": tr["calls"], "work": tr["work"], "samples": tr["samples"],
            "other_s": tr["other_s"] + between,
        })
    return merge(parts)


def layer_sum_gap(breakdown: dict, wall: float) -> float:
    """|sum of layer self times + other - wall| as a share of wall."""
    total = sum(breakdown["self_s"].values()) + breakdown["other_s"]
    return abs(total - wall) / wall


def group_totals(self_s: dict) -> dict:
    totals: dict = {}
    for layer, secs in self_s.items():
        key = group(layer)
        totals[key] = totals.get(key, 0.0) + secs
    return totals


def traffic_problems(workload: str, self_s: dict, calls: dict) -> list:
    """Contradictions between a trace and the traffic its workload was
    chosen for (empty when the trace agrees)."""
    totals = group_totals(self_s)
    largest = max(totals, key=totals.get) if totals else None
    problems = []
    if workload == "zoo-warm" and calls.get("content.walk", 0):
        problems.append(f"zoo-warm walked {calls['content.walk']} time(s); "
                        "its stream cache should serve every trajectory")
    if workload == "fig6-cold" and largest != "content":
        problems.append(f"fig6-cold: largest layer is {largest}, not content")
    if workload == "cli-read" and largest != "startup":
        problems.append(f"cli-read: largest layer is {largest}, not startup")
    return problems


def merge(breakdowns: list) -> dict:
    """Sum the breakdowns of several passes (samples concatenate)."""
    merged = {"self_s": {}, "calls": {}, "work": {}, "samples": {},
              "other_s": 0.0}
    for b in breakdowns:
        for part in ("self_s", "calls", "work"):
            for key, value in b[part].items():
                merged[part][key] = merged[part].get(key, 0) + value
        for key, vals in b["samples"].items():
            merged["samples"].setdefault(key, []).extend(vals)
        merged["other_s"] += b["other_s"]
    return merged


def layer_metrics(merged: dict, n: int, verb_walls: dict) -> dict:
    """Per-pass means of the layer metrics over ``n`` traced passes
    (``merged`` is their :func:`merge`).

    ``verb_walls`` maps each verb to its process walls (one per pass
    that ran it); verbs a workload does not run report 0.
    """
    self_s, calls = merged["self_s"], merged["calls"]
    work, samples = merged["work"], merged["samples"]

    def s(layer):
        return self_s.get(layer, 0.0) / n

    def count(name):
        return calls.get(name, 0) / n

    def total(name):
        return work.get(name, 0.0)

    mb = 1e6
    walks = calls.get("content.walk", 0)
    lookups = total("streamcache.load.lookups")
    cell_walls = samples.get("scheduler.cell_wall_s", [])
    m = {
        "workloads.build_s": s("workloads.build"),
        "workloads.builds": count("workloads.build"),
        "workloads.refs_per_s": rate(total("workloads.build.refs"),
                                     self_s.get("workloads.build", 0.0)),
        "content.walk_s": s("content.walk"),
        "content.walks": count("content.walk"),
        "content.refs_per_s": rate(total("content.walk.refs"),
                                   self_s.get("content.walk", 0.0)),
        "content.vector_share": total("content.vector_walks") / walks if walks else 0.0,
        "streamcache.save_s": s("streamcache.save"),
        "streamcache.save_mb_per_s": rate(total("streamcache.save.bytes") / mb,
                                          self_s.get("streamcache.save", 0.0)),
        "streamcache.load_s": s("streamcache.load"),
        "streamcache.load_mb_per_s": rate(total("streamcache.load.bytes") / mb,
                                          self_s.get("streamcache.load", 0.0)),
        "streamcache.hit_ratio": total("streamcache.load.hits") / lookups if lookups else 0.0,
    }
    for scheme in REPLAY_SCHEMES:
        layer = f"replay.{scheme}"
        m[f"{layer}_s"] = s(layer)
        m[f"{layer}.misses_per_s"] = rate(total(f"{layer}.misses"),
                                          self_s.get(layer, 0.0))
    m.update({
        "charging.s": s("charging"),
        "charging.cells_per_s": rate(total("charging.cells"),
                                     self_s.get("charging", 0.0)),
        "scheduler.cells": total("scheduler.cells") / n,
        "scheduler.self_s": s("scheduler"),
        "scheduler.cell_wall_p50_s": percentile(cell_walls, 0.50),
        "scheduler.cell_wall_p95_s": percentile(cell_walls, 0.95),
        "store.append_s": s("store.append"),
        "store.rows_per_s": rate(total("store.rows"),
                                 self_s.get("store.append", 0.0)),
        "store.open_s": s("store.open"),
        "store.read_s": s("store.read"),
        "store.digest_s": s("store.digest"),
        "journal.append_s": s("journal.append"),
        "journal.events": total("journal.events") / n,
        "journal.read_s": s("journal.read"),
        "experiments.driver_s": s("experiments.driver"),
        "experiments.render_s": s("experiments.render"),
        "cli.boot_s": s("cli.boot"),
        "cli.import_s": s("cli.import"),
    })
    for verb in VERBS:
        walls = verb_walls.get(verb, [])
        m[f"cli.{verb}_s"] = sum(walls) / len(walls) if walls else 0.0
    m["other_s"] = merged["other_s"] / n
    return m
