"""The benchmark's three workloads: set-up, one pass, and output checks.

Every pass runs ``repro`` CLI processes with one worker, a scrubbed
environment (no ``REPRO_*`` variable reaches the program) and a
temporary directory inside the benchmark's work directory.  A traced
pass runs the same arguments under ``trace_child.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

MACHINE = "scaled"
#: References per core: the CLI default of ``repro run`` and ``repro sweep``.
REFS = 80_000
#: The cli-read store holds the zoo grid at fewer references per core:
#: its rows, columns and journal have the zoo-warm shape, and no verb it
#: times reads anything whose size depends on the reference count.
CLI_READ_REFS = 20_000
WORKERS = 1
ZOO_WORKLOADS = ("mcf", "lbm", "soplex", "milc")
ZOO_SCHEMES = ("base", "oracle", "phased", "waypred", "cbf", "redhip",
               "levelpred", "ehc")

_SWEEP = re.compile(r"(\d+) cells, (\d+) resumed, (\d+) completed, (\d+) failed")
_DIGEST = re.compile(r"digest ([0-9a-f]{32})")


@dataclass
class Proc:
    """One finished CLI process, timed on the parent's clock."""

    verb: str
    rc: int
    stdout: str
    stderr: str
    t_spawn: float
    t_reaped: float
    maxrss_mb: float
    trace: "dict | None"

    @property
    def wall(self) -> float:
        return self.t_reaped - self.t_spawn

    def sweep_counts(self) -> "tuple | None":
        """(total, resumed, completed, failed) from ``repro sweep`` output."""
        found = _SWEEP.search(self.stdout)
        return tuple(int(g) for g in found.groups()) if found else None

    def digest(self) -> "str | None":
        found = _DIGEST.search(self.stdout)
        return found.group(1) if found else None

    def describe(self) -> str:
        err = self.stderr.strip().splitlines()[-1:] or [""]
        return f"`repro {self.verb}` rc={self.rc} {err[0]}".strip()


@dataclass
class Pass:
    procs: list

    @property
    def wall(self) -> float:
        return self.procs[-1].t_reaped - self.procs[0].t_spawn

    @property
    def peak_rss_mb(self) -> float:
        return max(p.maxrss_mb for p in self.procs)


class Context:
    """What a workload needs from the run: paths, seed, deadline, checks."""

    def __init__(self, root: Path, work: Path, seed: int, deadline: float,
                 ops, references: dict) -> None:
        self.root = root
        self.work = work
        self.seed = seed
        self.deadline = deadline
        self.ops = ops
        self.pinned = references if references.get("seed") == seed else {}

    def fresh_dir(self, name: str) -> Path:
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        (path / "tmp").mkdir(parents=True)
        return path

    def env(self, cwd: Path) -> dict:
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(self.root / "src")
        env["TMPDIR"] = str(cwd / "tmp")
        return env

    def python(self, verb: str, argv: list, cwd: Path,
               trace: "Path | None" = None) -> Proc:
        """Run ``python3 argv`` to completion; kill it at the deadline."""
        out_path, err_path = cwd / f".{verb}.out", cwd / f".{verb}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t_spawn = time.perf_counter()
            child = subprocess.Popen(
                [sys.executable, *argv], cwd=cwd, env=self.env(cwd),
                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            reaped = threading.Event()

            def kill() -> None:
                if not reaped.is_set():
                    os.kill(child.pid, signal.SIGKILL)

            timer = threading.Timer(max(1.0, self.deadline - t_spawn), kill)
            timer.start()
            try:
                # wait4 rather than wait(): it returns this child's own
                # resource usage, including its peak resident set.
                _, status, usage = os.wait4(child.pid, 0)
            finally:
                reaped.set()
                timer.cancel()
            t_reaped = time.perf_counter()
        child.returncode = os.waitstatus_to_exitcode(status)
        record = None
        if trace is not None and trace.exists():
            record = json.loads(trace.read_text())
        return Proc(verb=verb, rc=child.returncode,
                    stdout=out_path.read_text(errors="replace"),
                    stderr=err_path.read_text(errors="replace"),
                    t_spawn=t_spawn, t_reaped=t_reaped,
                    maxrss_mb=usage.ru_maxrss / 1024.0, trace=record)

    def repro(self, verb: str, args: list, cwd: Path, traced: bool) -> Proc:
        if not traced:
            return self.python(verb, ["-m", "repro", *args], cwd)
        trace = cwd / f".{verb}.trace.json"
        child = str(self.root / "perfbench" / "trace_child.py")
        proc = self.python(verb, [child, str(trace), *args], cwd, trace)
        if proc.trace is None:
            self.ops.check(False, f"no trace written by {proc.describe()}")
        return proc


def _grid(seed: int, refs: int, stream_cache: "Path | None") -> str:
    doc = {
        "name": "zoo",
        "machines": [MACHINE],
        "workloads": list(ZOO_WORKLOADS),
        "schemes": list(ZOO_SCHEMES),
        "refs_per_core": refs,
        "seeds": [seed],
    }
    if stream_cache is not None:
        doc["stream_cache"] = str(stream_cache)
    return json.dumps(doc, indent=2) + "\n"


def _sweep_args(store: str) -> list:
    return ["sweep", "grid.json", "--store", store, "--workers", str(WORKERS)]


class Fig6Cold:
    """``repro run fig6`` at the CLI defaults in a fresh interpreter,
    with an empty stream cache and no store."""

    name = "fig6-cold"
    refs = REFS
    min_passes = 2

    def __init__(self) -> None:
        self.artifact = None  # sha256 of fig6.md every pass must match

    def setup(self, ctx: Context, rep: int) -> float:
        """Interpreter start and package import, the cost every pass
        starts with."""
        cwd = ctx.fresh_dir(f"setup-{rep}")
        proc = ctx.python("import", ["-c", "import repro.cli"], cwd)
        ctx.ops.check(proc.rc == 0, f"set-up import failed: {proc.describe()}")
        return proc.wall

    def run_pass(self, ctx: Context, index: int, traced: bool) -> Pass:
        cwd = ctx.fresh_dir(f"pass-{index}")
        proc = ctx.repro("run", [
            "run", "fig6", "--machine", MACHINE, "--refs", str(REFS),
            "--seed", str(ctx.seed), "--out", "out"], cwd, traced)
        artifact = cwd / "out" / "fig6.md"
        sha = (hashlib.sha256(artifact.read_bytes()).hexdigest()
               if proc.rc == 0 and artifact.exists() else None)
        self.artifact = self.artifact or ctx.pinned.get("fig6_md_sha256") or sha
        ctx.ops.check(sha is not None and sha == self.artifact,
                      f"fig6 pass {index}: artifact sha256 {sha} != "
                      f"{self.artifact} ({proc.describe()})")
        return Pass([proc])


class ZooWarm:
    """``repro sweep`` of the zoo grid against a filled stream cache,
    into a fresh store each pass."""

    name = "zoo-warm"
    refs = REFS
    #: Its passes are short and their host time spreads widely, so a run
    #: takes more of them for a steady median.
    min_passes = 6

    def __init__(self) -> None:
        self.cache = None
        self.cold_digest = None

    def setup(self, ctx: Context, rep: int) -> float:
        """A cold sweep of the grid, which fills the stream cache and
        yields the cold digest every warm pass must reproduce."""
        cwd = ctx.fresh_dir(f"setup-{rep}")
        (cwd / "grid.json").write_text(_grid(ctx.seed, REFS, cwd / "cache"))
        proc = ctx.repro("sweep", _sweep_args("cold.sqlite"), cwd, traced=False)
        counts, digest = proc.sweep_counts(), proc.digest()
        self.cold_digest = self.cold_digest or ctx.pinned.get("zoo_digest") or digest
        ctx.ops.check(proc.rc == 0 and counts is not None and counts[3] == 0
                      and digest == self.cold_digest,
                      f"zoo set-up {rep}: digest {digest} != "
                      f"{self.cold_digest} ({proc.describe()})")
        if self.cache is not None:
            shutil.rmtree(self.cache.parent, ignore_errors=True)
        self.cache = cwd / "cache"
        return proc.wall

    def run_pass(self, ctx: Context, index: int, traced: bool) -> Pass:
        cwd = ctx.fresh_dir(f"pass-{index}")
        (cwd / "grid.json").write_text(_grid(ctx.seed, REFS, self.cache))
        proc = ctx.repro("sweep", _sweep_args("warm.sqlite"), cwd, traced)
        counts = proc.sweep_counts()
        if counts is None:
            ctx.ops.check(False, f"zoo pass {index}: {proc.describe()}")
        else:
            ctx.ops.cells(counts[0], counts[3], f"zoo pass {index}")
        digest = proc.digest()
        ctx.ops.check(proc.rc == 0 and digest == self.cold_digest,
                      f"zoo pass {index}: warm digest {digest} != cold "
                      f"digest {self.cold_digest}")
        return Pass([proc])


class CliRead:
    """Five read-side verbs, each a fresh process, against a finished
    zoo-grid store and journal restored before every pass."""

    name = "cli-read"
    refs = CLI_READ_REFS
    min_passes = 2
    STORE_FILES = ("store.sqlite", "store.journal.ndjson", "grid.json")

    def __init__(self) -> None:
        self.golden = None
        self.digest = None
        self.csv_sha = None

    def setup(self, ctx: Context, rep: int) -> float:
        """Build the store with a cold sweep of the grid."""
        cwd = ctx.fresh_dir(f"setup-{rep}")
        (cwd / "grid.json").write_text(_grid(ctx.seed, CLI_READ_REFS, None))
        proc = ctx.repro("sweep", _sweep_args("store.sqlite"), cwd, traced=False)
        digest = proc.digest()
        self.digest = self.digest or ctx.pinned.get("cli_read_digest") or digest
        ctx.ops.check(proc.rc == 0 and digest == self.digest,
                      f"cli-read set-up {rep}: digest {digest} != "
                      f"{self.digest} ({proc.describe()})")
        shutil.rmtree(cwd / "store.stream-cache", ignore_errors=True)
        if self.golden is not None:
            shutil.rmtree(self.golden, ignore_errors=True)
        self.golden = cwd
        return proc.wall

    def run_pass(self, ctx: Context, index: int, traced: bool) -> Pass:
        cwd = ctx.fresh_dir(f"pass-{index}")
        for name in self.STORE_FILES:
            shutil.copy2(self.golden / name, cwd / name)
        verbs = [
            ("sweep", _sweep_args("store.sqlite")),
            ("query_digest", ["query", "store.sqlite", "--digest"]),
            ("query_csv", ["query", "store.sqlite", "--csv"]),
            ("watch", ["watch", "store.sqlite", "--once"]),
            ("report", ["report", "store.sqlite"]),
        ]
        procs = [ctx.repro(verb, args, cwd, traced) for verb, args in verbs]
        sweep, digest, csv, watch, report = procs
        ctx.ops.check(sweep.rc == 0 and sweep.sweep_counts() == (32, 32, 0, 0)
                      and sweep.digest() == self.digest,
                      f"cli-read pass {index}: resumed sweep {sweep.describe()} "
                      f"{sweep.sweep_counts()} digest {sweep.digest()}")
        ctx.ops.check(digest.rc == 0 and digest.stdout.strip() == self.digest,
                      f"cli-read pass {index}: query digest "
                      f"{digest.stdout.strip()!r} != {self.digest}")
        sha = hashlib.sha256(csv.stdout.encode()).hexdigest()
        self.csv_sha = self.csv_sha or sha
        ctx.ops.check(csv.rc == 0 and csv.stdout.count("\n") == 33
                      and sha == self.csv_sha,
                      f"cli-read pass {index}: csv differs ({csv.describe()})")
        for proc in (watch, report):
            ctx.ops.check(proc.rc == 0 and self.digest in proc.stdout,
                          f"cli-read pass {index}: {proc.describe()} "
                          f"does not show digest {self.digest}")
        return Pass(procs)


WORKLOADS = {w.name: w for w in (Fig6Cold, ZooWarm, CliRead)}
