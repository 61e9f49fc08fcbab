"""Compare two sets of benchmark results, refusing incomparable ones.

Usage::

    python3 perfbench/compare.py BASE NEW

``BASE`` and ``NEW`` are directories of the records ``run.py`` writes
(``.perfbench-work/results/``), e.g. from the parent commit and from a
change.  Records are grouped by workload and trace mode.  Within a
group every config field except the commit and source digest must be
identical on both sides, and both sides must cover the same seeds;
otherwise the comparison is refused (exit 2).  For each end-to-end
metric the medians over runs are compared against the metric's bound
from ``BENCHMARK.json``: worse by more than the bound is a regression
(exit 1); a base spread wider than the bound leaves it unresolved.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import metrics  # noqa: E402

#: Config fields that identify the code under test, not the measurement.
CODE_FIELDS = ("commit", "source_sha256", "seed")


class Incomparable(Exception):
    pass


def load(directory: Path) -> dict:
    """{(workload, trace): [record, ...]} for every record under ``directory``."""
    groups: dict = {}
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        cfg = record["config"]
        groups.setdefault((cfg["workload"], cfg["trace"]), []).append(record)
    return groups


def check_comparable(base: list, new: list) -> None:
    """Raise :class:`Incomparable` unless both sides share one config."""
    def key(record):
        return {k: v for k, v in record["config"].items() if k not in CODE_FIELDS}

    reference = key(base[0])
    for record in base + new:
        diff = sorted(k for k in set(reference) | set(key(record))
                      if reference.get(k) != key(record).get(k))
        if diff:
            raise Incomparable(
                f"config differs in {', '.join(diff)}: "
                + "; ".join(f"{k}={reference.get(k)!r} vs "
                            f"{key(record).get(k)!r}" for k in diff))
    seeds = [sorted(r["config"]["seed"] for r in side) for side in (base, new)]
    if seeds[0] != seeds[1]:
        raise Incomparable(f"seeds differ: {seeds[0]} vs {seeds[1]}")


def verdicts(base: list, new: list, declared: list) -> list:
    """(metric, base median, new median, change, base spread, verdict)."""
    rows = []
    for metric in declared:
        name = metric["name"]
        old = [r["metrics"][name]["value"] for r in base]
        cur = [r["metrics"][name]["value"] for r in new]
        b, n = metrics.median(old), metrics.median(cur)
        change = (n - b) / b if b else 0.0
        worse = change if metric["better"] == "lower" else -change
        spread = metrics.spread(old) if len(old) >= 2 else 0.0
        if worse > metric["bound"]:
            verdict = "REGRESSED"
        elif spread > metric["bound"]:
            verdict = "unresolved"
        else:
            verdict = "ok"
        rows.append((name, b, n, change, spread, verdict))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    base, new = load(Path(argv[0])), load(Path(argv[1]))
    regressed = False
    for group in sorted(set(base) & set(new)):
        workload, trace = group
        try:
            check_comparable(base[group], new[group])
        except Incomparable as exc:
            print(f"refusing to compare {workload} (trace {trace}): {exc}")
            return 2
        if trace:
            continue  # per-layer metrics carry no bound
        print(f"{workload}: {len(base[group])} base run(s), "
              f"{len(new[group])} new run(s)")
        for name, b, n, change, spread, verdict in verdicts(
                base[group], new[group], declared):
            regressed |= verdict == "REGRESSED"
            print(f"  {name:14s} {b:12.6g} -> {n:12.6g}  {change:+7.2%}  "
                  f"(base spread {spread:.2%})  {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main())
