"""Tests of the benchmark's own logic (no simulator runs).

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import json
import statistics
from pathlib import Path

import pytest

from perfbench import compare, metrics, trace_child, workloads

ROOT = Path(__file__).resolve().parents[2]


# ------------------------------------------------------------ arithmetic
def test_tail_is_the_highest_sample_with_ten_above_it():
    values = list(range(1, 31))          # 30 samples
    assert metrics.tail(values) == 20    # 21..30 lie above it
    assert sum(v > metrics.tail(values) for v in values) == 10


def test_tail_never_drops_below_the_median():
    assert metrics.tail([3.0, 1.0, 2.0]) == 2.0              # n < 11
    assert metrics.tail(list(range(15))) == 7                # n - 11 < median
    assert metrics.tail(list(range(21))) == 10               # exactly the median


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 21)]
    assert metrics.percentile(values, 0.50) == 10.0
    assert metrics.percentile(values, 0.95) == 19.0
    assert metrics.percentile([], 0.5) == 0.0


def test_spread_is_interquartile_range_over_median():
    values = [9.0, 10.0, 10.5, 11.0, 12.0, 10.2, 9.8, 10.1, 10.4, 9.9]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert metrics.spread(values) == pytest.approx(
        (q3 - q1) / statistics.median(values))


def test_rate_of_idle_layer_is_zero():
    assert metrics.rate(100.0, 0.0) == 0.0
    assert metrics.rate(100.0, 4.0) == 25.0


# ------------------------------------------------------- failure accounting
class FakeContext:
    """A Context whose CLI processes return canned output."""

    def __init__(self, tmp_path, outputs, pinned=None):
        self.tmp = tmp_path
        self.outputs = list(outputs)
        self.ops = metrics.Ops()
        self.seed = 1
        self.pinned = pinned or {}

    def fresh_dir(self, name):
        path = self.tmp / name
        (path / "tmp").mkdir(parents=True, exist_ok=True)
        return path

    def repro(self, verb, args, cwd, traced):
        rc, stdout = self.outputs.pop(0)
        return workloads.Proc(verb, rc, stdout, "", 0.0, 1.0, 10.0, None)


def _sweep_out(digest, failed=0):
    return (f"sweep zoo: 32 cells, 0 resumed, {32 - failed} completed, "
            f"{failed} failed (4 shard(s) x 1 worker(s), 1.00 s)\n"
            f"store x.sqlite (32/32 cells) digest {digest}\n")


def test_wrong_reference_digest_counts_as_failed(tmp_path):
    good, bad = "a" * 32, "b" * 32
    ctx = FakeContext(tmp_path, [(0, _sweep_out(bad))], pinned={"zoo_digest": good})
    workloads.ZooWarm().setup(ctx, 0)
    assert (ctx.ops.attempted, ctx.ops.failed) == (1, 1)
    assert good in ctx.ops.reasons[0]


def test_warm_digest_must_equal_cold_digest(tmp_path):
    cold, warm = "a" * 32, "c" * 32
    ctx = FakeContext(tmp_path, [(0, _sweep_out(cold)), (0, _sweep_out(cold)),
                                 (0, _sweep_out(warm))])
    zoo = workloads.ZooWarm()
    zoo.setup(ctx, 0)
    zoo.run_pass(ctx, 0, traced=False)
    assert ctx.ops.failed == 0
    zoo.run_pass(ctx, 1, traced=False)
    # 1 set-up check + 2 passes x (32 cells + 1 digest check)
    assert (ctx.ops.attempted, ctx.ops.failed) == (67, 1)


def test_failed_cells_and_nonzero_exit_count_as_failed(tmp_path):
    digest = "a" * 32
    ctx = FakeContext(tmp_path, [(0, _sweep_out(digest)),
                                 (1, _sweep_out(digest, failed=3))])
    zoo = workloads.ZooWarm()
    zoo.setup(ctx, 0)
    zoo.run_pass(ctx, 0, traced=False)
    assert ctx.ops.failed == 3 + 1   # three cells, then the rc/digest check


def test_cli_read_query_digest_must_match_store(tmp_path):
    digest = "a" * 32
    golden = tmp_path / "golden"
    golden.mkdir()
    for name in workloads.CliRead.STORE_FILES:
        (golden / name).write_text("")
    cli = workloads.CliRead()
    cli.golden, cli.digest = golden, digest
    csv = "h\n" + "r\n" * 32
    ctx = FakeContext(tmp_path, [
        (0, "sweep zoo: 32 cells, 32 resumed, 0 completed, 0 failed\n"
            f"store store.sqlite (32/32 cells) digest {digest}\n"),
        (0, "b" * 32 + "\n"),          # query --digest prints another digest
        (0, csv),
        (0, f"digest {digest}\n"),
        (0, f"digest {digest}\n"),
    ])
    cli.run_pass(ctx, 0, traced=False)
    assert (ctx.ops.attempted, ctx.ops.failed) == (5, 1)
    assert "query digest" in ctx.ops.reasons[0]


# ------------------------------------------------------------ layer sums
def test_tracer_self_times_and_other_cover_the_span(monkeypatch):
    clock = iter([1.0, 3.0, 4.0, 6.0])   # enter A, enter B, exit B, exit A
    monkeypatch.setattr(trace_child, "_now", lambda: next(clock))
    tracer = trace_child.Tracer(start=0.0)
    tracer.enter()
    tracer.enter()
    tracer.exit("B")
    tracer.exit("A")
    monkeypatch.setattr(trace_child, "_now", lambda: 9.0)
    end = tracer.close()
    assert tracer.self_s == {"A": 4.0, "B": 1.0}
    assert tracer.other_s == 1.0 + 3.0
    assert sum(tracer.self_s.values()) + tracer.other_s == end


def _proc(t_spawn, t_first, t_imported, t_end, t_reaped, self_s, other):
    return {"t_spawn": t_spawn, "t_reaped": t_reaped, "trace": {
        "t_first": t_first, "t_imported": t_imported, "t_end": t_end,
        "self_s": self_s, "calls": {k: 1 for k in self_s}, "work": {},
        "samples": {}, "other_s": other}}


def test_layer_sum_check_accepts_a_consistent_pass():
    procs = [_proc(0.0, 0.1, 0.4, 2.0, 2.1, {"store.read": 1.5}, 0.1),
             _proc(2.3, 2.4, 2.7, 3.0, 3.1, {"journal.read": 0.2}, 0.1)]
    b = metrics.pass_breakdown(procs)
    assert b["self_s"]["cli.boot"] == pytest.approx(0.4)
    assert b["self_s"]["cli.import"] == pytest.approx(0.6)
    assert b["other_s"] == pytest.approx(0.4)     # 0.1 + 0.1 + 0.2 between
    assert metrics.layer_sum_gap(b, wall=3.1) < 1e-12


def test_layer_sum_check_rejects_double_counting():
    # 1.8 s of self time inside a 1.6 s main span: a span was counted twice.
    procs = [_proc(0.0, 0.1, 0.4, 2.0, 2.1, {"store.read": 1.5,
                                              "store.digest": 0.3}, 0.1)]
    b = metrics.pass_breakdown(procs)
    assert metrics.layer_sum_gap(b, wall=2.1) > metrics.LAYER_SUM_TOLERANCE


def test_traffic_checks():
    walk = {"content.walk": 6.0, "replay.cbf": 3.0, "cli.boot": 0.2}
    assert metrics.traffic_problems("fig6-cold", walk, {}) == []
    assert metrics.traffic_problems("fig6-cold", {**walk, "replay.redhip": 3.5}, {})
    assert metrics.traffic_problems("zoo-warm", {"replay.cbf": 1.0},
                                    {"content.walk": 1})
    reads = {"cli.boot": 0.3, "cli.import": 0.5, "store.read": 0.6}
    assert metrics.traffic_problems("cli-read", reads, {}) == []
    assert metrics.traffic_problems("cli-read", {**reads, "store.read": 0.9}, {})


# --------------------------------------------------------- declarations
def test_declared_metrics_are_the_ones_measured():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    b = metrics.pass_breakdown([_proc(0.0, 0.1, 0.4, 2.0, 2.1, {}, 1.6)])
    layer = metrics.layer_metrics(metrics.merge([b]), 1, {})
    layer.update(trace_overhead_frac=0.0, layer_sum_gap_frac=0.0)
    assert [m["name"] for m in declared["per_layer"]] == list(layer)
    assert {m["name"] for m in declared["end_to_end"]} == {
        "wall_s", "wall_tail_s", "setup_s", "peak_rss_mb"}


# ------------------------------------------------------------ comparison
def _record(seed, value, **config):
    cfg = {"workload": "zoo-warm", "trace": 0, "machine": "scaled",
           "refs_per_core": 80000, "seed": seed, "workers": 1, "nproc": 2,
           "python": "3.11.7", "numpy": "2.4.6", "run_seconds": 20,
           "benchmark_sha256": "x", "commit": None, "source_sha256": "s"}
    cfg.update(config)
    return {"config": cfg, "metrics": {"wall_s": {"value": value, "unit": "s"}}}


def test_compare_refuses_differing_configs():
    base = [_record(1, 5.0), _record(2, 5.1)]
    with pytest.raises(compare.Incomparable, match="refs_per_core"):
        compare.check_comparable(base, [_record(1, 5.0, refs_per_core=20000),
                                         _record(2, 5.0)])
    with pytest.raises(compare.Incomparable, match="seeds"):
        compare.check_comparable(base, [_record(1, 5.0), _record(3, 5.0)])
    compare.check_comparable(base, [_record(1, 4.0, commit="abc"),
                                    _record(2, 4.0, source_sha256="t")])


def test_compare_flags_regressions_beyond_the_bound():
    declared = [{"name": "wall_s", "better": "lower", "bound": 0.1}]
    base = [_record(s, 5.0) for s in (1, 2, 3)]
    slow = [_record(s, 6.0) for s in (1, 2, 3)]
    assert compare.verdicts(base, slow, declared)[0][-1] == "REGRESSED"
    assert compare.verdicts(base, base, declared)[0][-1] == "ok"
