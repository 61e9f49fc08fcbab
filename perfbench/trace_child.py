"""Run one ``repro`` CLI invocation with per-layer host timing.

Usage::

    python3 perfbench/trace_child.py TRACE.json <repro arguments...>

The package is not edited: a meta-path hook wraps each layer's public
functions from outside, as soon as the module that defines them has
finished executing, so import order and the package's lazy imports stay
as they are (a ``from X import f`` executed later binds the wrapper).
Every wrapped call is a span. A span's self time is its duration minus
the durations of the spans directly inside it; time with no span open
is accumulated directly as ``other``. The parent adds interpreter boot
and teardown from its own clock (``time.perf_counter`` is the system-wide
monotonic clock on Linux, so both processes read the same time line).

This file is standalone: it runs in a fresh interpreter whose only
import path to the package is ``PYTHONPATH``.
"""

import time

T_FIRST = time.perf_counter()

import functools  # noqa: E402
import importlib.abc  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

_now = time.perf_counter


class Tracer:
    """Nested spans reduced on the fly to per-layer self time and counts."""

    def __init__(self, start: float) -> None:
        self.stack = []            # [start, time covered by child spans]
        self.self_s = {}
        self.calls = {}
        self.work = {}             # layer or counter -> summed work units
        self.samples = {}          # name -> list of values
        self.other_s = 0.0
        self.idle_since = start

    def enter(self) -> None:
        t = _now()
        if not self.stack:
            self.other_s += t - self.idle_since
        self.stack.append([t, 0.0])

    def exit(self, layer: str) -> None:
        t = _now()
        start, covered = self.stack.pop()
        duration = t - start
        self.self_s[layer] = self.self_s.get(layer, 0.0) + duration - covered
        self.calls[layer] = self.calls.get(layer, 0) + 1
        if self.stack:
            self.stack[-1][1] += duration
        else:
            self.idle_since = t

    def add(self, name: str, amount: float = 1.0) -> None:
        self.work[name] = self.work.get(name, 0.0) + amount

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def close(self) -> float:
        t = _now()
        if not self.stack:
            self.other_s += t - self.idle_since
        return t


TRACER = None  # created in main(), before the package is imported


def span(layer, fn, work=None):
    """Wrap ``fn`` as a span of ``layer`` (a name, or a callable naming
    the layer from the call's arguments); ``work(args, result)`` records
    the call's work units after the span has closed."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        name = layer(args) if callable(layer) else layer
        TRACER.enter()
        try:
            result = fn(*args, **kwargs)
        finally:
            TRACER.exit(name)
        if work is not None:
            work(args, result)
        return result

    return wrapper


def counted(counter, fn, when):
    """Count calls of ``fn`` whose result satisfies ``when`` (no span)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        if when(result):
            TRACER.add(counter)
        return result

    return wrapper


# ------------------------------------------------------------ work units
def _l1_misses(stream) -> int:
    return int((stream.hit_level != 1).sum())


def _replay_label(args) -> str:
    # CBFPredictor -> cbf, ReDHiPController -> redhip
    name = type(args[1]).__name__.lower()
    for suffix in ("predictor", "controller"):
        if name.endswith(suffix):
            name = name[: -len(suffix)]
    return f"replay.{name}"


def _replay_work(label):
    def work(args, result):
        TRACER.add(f"{label(args) if callable(label) else label}.misses",
                   _l1_misses(args[0]))
    return work


def _file_bytes(path) -> int:
    try:
        return path.stat().st_size
    except OSError:
        return 0


def _cache_save(args, result):
    if result is not None:
        TRACER.add("streamcache.save.bytes", _file_bytes(result))


def _cache_load(args, result):
    TRACER.add("streamcache.load.lookups")
    if result is not None:
        TRACER.add("streamcache.load.hits")
        TRACER.add("streamcache.load.bytes",
                   _file_bytes(args[0].path_for(args[1])))


def _store_append(args, result):
    TRACER.add("store.rows")
    TRACER.sample("scheduler.cell_wall_s", float(args[1].wall_s))


def _add(name):
    return lambda args, result: TRACER.add(name)


def _patch_runner(m) -> None:
    m.get_workload = span("workloads.build", m.get_workload, lambda a, r:
                          TRACER.add("workloads.build.refs", r.total_refs))
    m.evaluate_scheme = span("charging", m.evaluate_scheme,
                             _add("charging.cells"))


def _patch_content(m) -> None:
    cls = m.ContentSimulator
    cls.run = span("content.walk", cls.run, lambda a, r:
                   TRACER.add("content.walk.refs", r.num_accesses))
    cls._walk_vector = counted("content.vector_walks", cls._walk_vector,
                               lambda r: r is not None)


def _patch_streamcache(m) -> None:
    cls = m.StreamCache
    cls.save = span("streamcache.save", cls.save, _cache_save)
    cls.load = span("streamcache.load", cls.load, _cache_load)


def _patch_evaluate(m) -> None:
    m.replay_predictor = span(_replay_label, m.replay_predictor,
                              _replay_work(_replay_label))
    m.replay_level_predictor = span("replay.levelpred", m.replay_level_predictor,
                                    _replay_work("replay.levelpred"))
    m.replay_ehc = span("replay.ehc", m.replay_ehc, _replay_work("replay.ehc"))


def _patch_vector_replay(m) -> None:
    m.replay_redhip_vectorized = span("replay.redhip", m.replay_redhip_vectorized,
                                      _replay_work("replay.redhip"))


def _patch_store(m) -> None:
    cls = m.ResultsStore
    cls.__init__ = span("store.open", cls.__init__)
    cls.close = span("store.open", cls.close)
    cls.append = span("store.append", cls.append, _store_append)
    for name in ("rows", "completed", "wall_stats", "aggregate", "__len__"):
        setattr(cls, name, span("store.read", getattr(cls, name)))
    cls.digest = span("store.digest", cls.digest)


def _patch_journal(m) -> None:
    cls = m.SweepJournal
    cls.append = span("journal.append", cls.append, _add("journal.events"))
    cls.sync = span("journal.append", cls.sync)
    m.read_journal = span("journal.read", m.read_journal)


def _patch_scheduler(m) -> None:
    m.run_cells = span("scheduler", m.run_cells, lambda a, r:
                       TRACER.add("scheduler.cells", r.total))


def _patch_driver(m) -> None:
    m.run_spec = span("experiments.driver", m.run_spec)


def _patch_registry(m) -> None:
    for spec in m.SPECS.values():
        if spec.render is not None:
            # Specs are frozen dataclasses; the wrapper replaces the
            # callable on the instance the experiment driver looks up.
            object.__setattr__(spec, "render",
                               span("experiments.render", spec.render))


#: Module name -> patch applied once that module has executed.  Functions
#: are patched where they are defined, before any ``from ... import``
#: binds them, except the runner's two calls into other layers.
PATCHES = {
    "repro.sim.runner": _patch_runner,
    "repro.sim.content": _patch_content,
    "repro.sim.streamcache": _patch_streamcache,
    "repro.sim.evaluate": _patch_evaluate,
    "repro.sim.vector_replay": _patch_vector_replay,
    "repro.results.store": _patch_store,
    "repro.sweep.journal": _patch_journal,
    "repro.sweep.scheduler": _patch_scheduler,
    "repro.experiments.driver": _patch_driver,
    "repro.experiments.registry": _patch_registry,
}


class _PatchingLoader(importlib.abc.Loader):
    """Delegates to the real loader, then applies the module's patch."""

    def __init__(self, inner, patch) -> None:
        self._inner = inner
        self._patch = patch

    def create_module(self, spec):
        return self._inner.create_module(spec)

    def exec_module(self, module) -> None:
        self._inner.exec_module(module)
        self._patch(module)

    def __getattr__(self, name):  # get_source, is_package, ...
        return getattr(self._inner, name)


class _PatchFinder(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        patch = PATCHES.get(name)
        if patch is None:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(name, path, target)
            if spec is not None:
                spec.loader = _PatchingLoader(spec.loader, patch)
                return spec
        return None


def main(argv) -> int:
    global TRACER
    out_path, repro_argv = argv[0], argv[1:]
    sys.meta_path.insert(0, _PatchFinder())
    import repro.cli

    t_imported = _now()
    TRACER = Tracer(t_imported)
    try:
        rc = repro.cli.main(repro_argv)
    except SystemExit as exc:  # argparse errors
        rc = exc.code if isinstance(exc.code, int) else 1
    t_end = TRACER.close()
    record = {
        "t_first": T_FIRST,
        "t_imported": t_imported,
        "t_end": t_end,
        "self_s": TRACER.self_s,
        "calls": TRACER.calls,
        "work": TRACER.work,
        "samples": TRACER.samples,
        "other_s": TRACER.other_s,
    }
    with open(out_path, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
