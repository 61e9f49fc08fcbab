"""Benchmark trend folding: every ``BENCH_*.json`` into one table.

Each perf PR leaves a flat ``BENCH_<tag>.json`` artifact at the repo
root (PR 2's replay-kernel numbers, PR 6's cold-path contract, …).
Individually they answer "was that PR fast enough"; folded into one
table they answer "is the repo getting faster" — the regression context
``repro report`` and ``scripts/bench_trend.py`` attach to every run.

Files are treated as opaque flat JSON: a known-metric allowlist picks
the comparable columns, everything else stays available under ``raw``.
Numbers are only comparable within one configuration, so every row
carries its ``config`` key — ``(benchmark, machine, refs_per_core)`` —
and the table renders one block per key: a 20k-ref scaled run and a
6k-ref tiny run never share a column.
A file that fails to parse becomes an ``error`` row rather than sinking
the table — bench artifacts are hand-edited often enough to be hostile
input.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

__all__ = ["BENCH_GLOB", "TREND_METRICS", "collect_bench", "render_trend"]

BENCH_GLOB = "BENCH_*.json"

#: Flat keys worth comparing across bench files, in display order.
TREND_METRICS = (
    "fig6_cold_s",
    "fig6_warm_s",
    "fig6_warm_speedup",
    "cold_warm_ratio",
    "replay_sequential_s",
    "replay_vectorized_s",
    "replay_speedup",
    "pass",
)


def collect_bench(root: "str | Path" = ".") -> list:
    """One trend row per ``BENCH_*.json`` under ``root``, name-sorted
    (the ``prN`` tags sort chronologically by construction)."""
    rows = []
    for path in sorted(Path(root).glob(BENCH_GLOB)):
        row = {"file": path.name, "benchmark": "", "machine": "",
               "refs_per_core": None, "config": ["", "", None],
               "metrics": {}, "error": None}
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            # ValueError covers both JSONDecodeError and the
            # UnicodeDecodeError a binary/mis-encoded file raises before
            # the JSON parser even sees it.
            row["error"] = f"{exc.__class__.__name__}: {exc}"
            warnings.warn(
                f"skipping malformed bench artifact {path.name} "
                f"({row['error']})",
                RuntimeWarning,
                stacklevel=2,
            )
            rows.append(row)
            continue
        if not isinstance(doc, dict):
            row["error"] = f"expected a JSON object, got {type(doc).__name__}"
            rows.append(row)
            continue
        row["benchmark"] = str(doc.get("benchmark", ""))
        row["machine"] = str(doc.get("machine", ""))
        row["refs_per_core"] = doc.get("refs_per_core")
        row["config"] = [row["benchmark"], row["machine"], row["refs_per_core"]]
        row["metrics"] = {k: doc[k] for k in TREND_METRICS if k in doc}
        rows.append(row)
    return rows


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "ok" if value else "FAIL"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _render_block(rows: list) -> list:
    """The table lines of rows that share one config key."""
    cols = [m for m in TREND_METRICS
            if any(m in r["metrics"] for r in rows)]
    header = ["file"] + cols
    table = [header]
    for row in rows:
        if row["error"]:
            table.append([row["file"], f"error: {row['error']}"])
            continue
        table.append([row["file"]]
                     + [_fmt(row["metrics"].get(m)) for m in cols])
    widths = [max(len(line[i]) for line in table if i < len(line))
              for i in range(max(map(len, table)))]
    return ["  ".join(cell.ljust(widths[i])
                      for i, cell in enumerate(line)).rstrip()
            for line in table]


def render_trend(rows: list) -> str:
    """Plain-text trend: one table per config key, in first-seen order."""
    if not rows:
        return "no BENCH_*.json artifacts found"
    groups: dict = {}
    for row in rows:
        # Keyed by JSON text: a hand-edited file's values need not be
        # hashable.
        groups.setdefault(json.dumps(row["config"]), []).append(row)
    out = []
    for members in groups.values():
        benchmark, machine, refs = members[0]["config"]
        if out:
            out.append("")
        out.append(f"[{benchmark or '-'}] machine {machine or '-'}, "
                   f"{_fmt(refs)} refs/core")
        out.extend(_render_block(members))
    return "\n".join(out)
