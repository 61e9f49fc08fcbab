"""``repro watch`` / ``repro report``: correct counts mid-run and post-mortem.

Both tools are pure functions of the on-disk journal + store, so the
tests drive them through real sweeps at three lifecycle points: killed
mid-grid (counts show the partial state and remaining work), resumed to
completion (counts converge with the store), and degraded inputs (store
without journal, journal without store).  The bench trend folding is
covered against the committed BENCH_*.json artifacts.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.results.trend import collect_bench, render_trend
from repro.sweep import SweepSpec, journal_path, run_sweep
from repro.sweep.report import build_report, render_report
from repro.sweep.watch import (
    build_view,
    percentile_exact,
    render_view,
    resolve_paths,
)
from repro.util.validation import ReproError

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

GOLDEN = Path(__file__).parent / "golden"
REPO_ROOT = Path(__file__).parent.parent


@pytest.fixture(autouse=True)
def _clean_faults():
    from repro import faults

    yield
    faults.uninstall()


def tiny_spec(name="t", workloads=("mcf", "lbm"), schemes=("base", "redhip"),
              **kw):
    return SweepSpec(name=name, machines=("tiny",), workloads=workloads,
                     schemes=schemes, refs_per_core=1200, **kw)


# ----------------------------------------------------------------- paths
def test_resolve_paths_accepts_store_or_journal(tmp_path):
    store = tmp_path / "s.sqlite"
    journal = journal_path(store)
    assert resolve_paths(store) == (store, journal)
    assert resolve_paths(journal) == (store, journal)
    with pytest.raises(ReproError, match="nothing to watch"):
        build_view(tmp_path / "missing.sqlite")


def test_percentile_exact_nearest_rank():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    assert percentile_exact(values, 0.50) == 5.0
    assert percentile_exact(values, 0.95) == 10.0
    assert percentile_exact([7.5], 0.95) == 7.5
    assert percentile_exact([], 0.5) == 0.0


# ----------------------------------------------- mid-run and post-mortem
def test_view_counts_mid_run_and_after_resume(tmp_path):
    spec = tiny_spec(stream_cache=str(tmp_path / "cache"))
    store = tmp_path / "s.sqlite"

    run_sweep(spec, store, workers=1, max_cells=1)     # killed mid-grid
    view = build_view(store)
    assert not view.finished or view.remaining == 3    # run finished early
    assert len(view.completed) == 1 and view.run_total == 4
    assert view.remaining == 3 and view.store_rows == 1
    frame = render_view(view)
    assert "1 completed" in frame and "3 remaining" in frame

    run_sweep(spec, store, workers=1)                  # resumed to the end
    view = build_view(store)
    assert view.finished and view.remaining == 0
    assert view.done == 4 == view.store_rows
    assert len(view.resumed) == 1
    assert view.digest
    frame = render_view(view)
    assert "0 remaining" in frame and view.digest in frame


def test_view_joins_failures_and_eta_inputs(tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"seed": 7, "faults": [
        {"site": "sweep.cell", "kind": "exception", "match": "mcf",
         "hits": [1, 2]}]}))
    spec = tiny_spec(stream_cache=str(tmp_path / "cache"))
    store = tmp_path / "s.sqlite"
    run_sweep(spec, store, workers=1, faults_plan=str(plan))
    view = build_view(store)
    assert len(view.failed) == 2 and len(view.completed) == 2
    assert view.store_wall["cells"] == 2
    assert view.store_wall["mean_s"] > 0
    assert any(kind == "cell_failed" for _t, kind, _d in view.events)
    frame = render_view(view)
    assert "2 failed" in frame and "[cell_failed]" in frame


def test_view_without_journal_degrades_to_store_counts(tmp_path):
    spec = tiny_spec(workloads=("mcf",), stream_cache=str(tmp_path / "cache"))
    store = tmp_path / "s.sqlite"
    run_sweep(spec, store, workers=1)
    journal_path(store).unlink()
    view = build_view(store)
    assert view.journal_records == 0 and view.store_rows == 2
    render_view(view)                                  # renders, no raise


def test_watch_without_journal_labels_a_complete_store(tmp_path, capsys):
    """A finished store whose journal is gone: the frame says so and
    counts the store's rows as settled cells, never "0 completed ... 0
    remaining" next to a full store."""
    from repro.cli import main

    store = tmp_path / "smoke.sqlite"
    assert main(["sweep", str(GOLDEN / "sweep_smoke.json"),
                 "--store", str(store), "--workers", "1"]) == 0
    journal_path(store).unlink()
    capsys.readouterr()
    assert main(["watch", str(store), "--once"]) == 0
    frame = capsys.readouterr().out
    assert "[no journal]" in frame and "[idle/killed]" not in frame
    assert "8 settled in the store" in frame
    assert "0 completed" not in frame and "remaining" not in frame


# ----------------------------------------------------------------- report
def test_report_counts_match_store_and_journal(tmp_path):
    spec = tiny_spec(stream_cache=str(tmp_path / "cache"))
    store = tmp_path / "s.sqlite"
    run_sweep(spec, store, workers=1, max_cells=2)
    run_sweep(spec, store, workers=1)
    report = build_report(store, bench_root=REPO_ROOT)
    assert report["store"]["rows"] == 4
    assert report["store"]["by_scheme"] == {"base": 2, "redhip": 2}
    assert report["journal"]["runs"] == 2
    assert report["journal"]["cells"]["completed"] == 4
    assert report["journal"]["cells"]["resumed_distinct"] == 0
    assert report["journal"]["cells"]["failed"] == 0
    assert report["tails"]["cell_wall_s"]["n"] == 4
    assert report["bench"], "committed BENCH_*.json artifacts should fold in"
    text = render_report(report)
    assert "4 rows" in text and "2 run(s)" in text and "bench trend" in text
    json.dumps(report)                                 # fully JSON-able


def test_report_without_store_uses_journal_only(tmp_path):
    spec = tiny_spec(workloads=("mcf",), stream_cache=str(tmp_path / "cache"))
    store = tmp_path / "s.sqlite"
    run_sweep(spec, store, workers=1)
    store.unlink()
    report = build_report(journal_path(store), bench_root=None)
    assert report["store"] == {"present": False}
    assert report["journal"]["cells"]["completed"] == 2
    assert "store: missing" in render_report(report)


# ------------------------------------------------------------ bench trend
def test_bench_trend_folds_committed_artifacts():
    rows = collect_bench(REPO_ROOT)
    assert len(rows) >= 2
    by_file = {r["file"]: r for r in rows}
    assert by_file["BENCH_pr2.json"]["metrics"]["replay_speedup"] == 9.3
    assert by_file["BENCH_pr6.json"]["metrics"]["pass"] is True
    table = render_trend(rows)
    assert "BENCH_pr2.json" in table and "replay_speedup" in table


def test_bench_trend_never_mixes_configs_in_one_column(tmp_path):
    """Shaped like the committed PR 2 (scaled, 20k refs) and PR 6 (tiny,
    6k refs) artifacts: each config renders as its own block, so 9.06 s
    and 0.184 s never line up under one ``fig6_cold_s`` header."""
    (tmp_path / "BENCH_pr2.json").write_text(json.dumps({
        "benchmark": "fig6 cold-vs-warm", "machine": "scaled",
        "refs_per_core": 20000, "fig6_cold_s": 9.0593,
        "replay_speedup": 9.3}))
    (tmp_path / "BENCH_pr6.json").write_text(json.dumps({
        "benchmark": "fig6 cold-path contract", "machine": "tiny",
        "refs_per_core": 6000, "fig6_cold_s": 0.184, "pass": True}))
    (tmp_path / "BENCH_pr7.json").write_text(json.dumps({
        "benchmark": "fig6 cold-vs-warm", "machine": "scaled",
        "refs_per_core": 20000, "fig6_cold_s": 8.5}))
    rows = collect_bench(tmp_path)
    assert [r["config"] for r in rows] == [
        ["fig6 cold-vs-warm", "scaled", 20000],
        ["fig6 cold-path contract", "tiny", 6000],
        ["fig6 cold-vs-warm", "scaled", 20000],
    ]
    json.dumps(rows)                                   # --json stays valid
    blocks = render_trend(rows).split("\n\n")
    assert len(blocks) == 2
    scaled, tiny = blocks
    assert "scaled, 20000 refs/core" in scaled and "9.0593" in scaled
    assert "8.5" in scaled and "0.184" not in scaled
    assert "tiny, 6000 refs/core" in tiny and "0.184" in tiny
    assert "9.0593" not in tiny and "replay_speedup" not in tiny


def test_bench_trend_script_json_rows_carry_the_config():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "bench_trend.py"),
         "--json", "--root", str(REPO_ROOT)],
        capture_output=True, text=True, check=True, timeout=60)
    rows = json.loads(proc.stdout)
    assert rows and all(len(r["config"]) == 3 for r in rows)


def test_bench_trend_survives_a_corrupt_artifact(tmp_path):
    (tmp_path / "BENCH_a.json").write_text('{"benchmark": "x", "pass": true}')
    (tmp_path / "BENCH_b.json").write_text("{not json")
    rows = collect_bench(tmp_path)
    assert rows[0]["metrics"] == {"pass": True}
    assert rows[1]["error"] and "JSONDecodeError" in rows[1]["error"]
    assert "error" in render_trend(rows)
    assert render_trend([]) == "no BENCH_*.json artifacts found"


def test_bench_trend_warns_and_keeps_going_on_hostile_files(tmp_path):
    """Malformed or schema-less artifacts become warned-about error rows —
    `repro report` over a directory with one bad file must not raise."""
    import warnings

    (tmp_path / "BENCH_good.json").write_text(
        '{"benchmark": "x", "replay_speedup": 2.5}')
    (tmp_path / "BENCH_binary.json").write_bytes(b"\xff\xfe\x00bad")
    (tmp_path / "BENCH_list.json").write_text('[1, 2, 3]')
    (tmp_path / "BENCH_odd.json").write_text(
        '{"benchmark": "y", "refs_per_core": [1, 2], "pass": false}')
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = collect_bench(tmp_path)
    # Name-sorted: binary (error), good, list (error), odd.
    assert [bool(r["error"]) for r in rows] == [True, False, True, False]
    assert "expected a JSON object" in rows[2]["error"]
    assert any(issubclass(w.category, RuntimeWarning)
               and "BENCH_binary.json" in str(w.message) for w in caught)
    table = render_trend(rows)
    assert "BENCH_good.json" in table and "2.5" in table
    assert "[1, 2] refs/core" in table and "FAIL" in table


# -------------------------------------------------------------------- CLI
def test_cli_watch_once_and_report(tmp_path, capsys):
    from repro.cli import main

    store = tmp_path / "smoke.sqlite"
    assert main(["sweep", str(GOLDEN / "sweep_smoke.json"),
                 "--store", str(store), "--workers", "1",
                 "--max-cells", "3"]) == 0
    out = capsys.readouterr().out
    assert "journal" in out

    assert main(["watch", str(store), "--once"]) == 0
    out = capsys.readouterr().out
    assert "3 completed" in out and "5 remaining" in out

    assert main(["sweep", str(GOLDEN / "sweep_smoke.json"),
                 "--store", str(store), "--workers", "1"]) == 0
    capsys.readouterr()
    assert main(["watch", str(store), "--once"]) == 0
    out = capsys.readouterr().out
    assert "8 completed" in out and "0 remaining" in out and "finished" in out

    assert main(["report", str(store), "--bench-root",
                 str(REPO_ROOT)]) == 0
    out = capsys.readouterr().out
    assert "8 rows" in out and "bench trend" in out

    assert main(["report", str(store), "--json", "--bench-root",
                 str(REPO_ROOT)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["store"]["rows"] == 8
    assert doc["journal"]["cells"]["completed"] == 8

    assert main(["watch", str(tmp_path / "nope.sqlite"), "--once"]) == 1
    assert "nothing to watch" in capsys.readouterr().err
