"""Bulk replay kernels: every shipped predictor replays with NumPy.

The reference loops in :mod:`repro.sim.replay_reference` replay the LLC
event stream against a predictor one L1 miss at a time — a Python call
per miss plus a Python call per LLC event.  Each kernel here computes the
same answers and leaves the predictor in the same end-of-run state
(every table array, mirror counts, engine counters, ``stats()`` and
``table_updates``), using a different decomposition per scheme:

**ReDHiP** (:func:`replay_redhip_vectorized`).  The controller's visible
state changes in only two ways between recalibration sweeps: fills set
bits and never clear them (the PT-monotonicity invariant), and sweeps
happen at deterministic miss counts (the fixed-period engine fires after
every ``period``-th L1 miss, independent of the answers).  So the replay
splits into *epochs* — the spans between consecutive sweeps.  Within an
epoch the prediction for the miss at access index ``i`` hashing to entry
``e`` is::

    bits_at_epoch_start[e]  OR  first_fill_time[e] < i

where ``first_fill_time`` comes from ``np.minimum.at`` over the epoch's
fills.  The tag mirror advances per epoch with ``np.add.at`` /
``np.subtract.at`` and the sweep is the engine's ``counts > 0``.

**Counting Bloom filter** (:func:`replay_cbf_vectorized`).  A counter
changes only on LLC events, never on lookups, so each entry's history is
a ±1 walk.  The events are stable-sorted by entry; a segmented ``cumsum``
gives every entry's running count, and the entry disables itself at the
first event where that count would leave ``[0, max_count]`` (frozen
ever after).  A lookup reads the state after the last event of its entry
with ``when < i`` — one ``searchsorted`` on the ``(entry, when)`` key.
No loop at all.

**Level prediction** (:func:`replay_levelpred_vectorized`).  The presence
half is ReDHiP's table, mirror and engine, replayed by the same epoch
helper.  The level table changes only in ``train``, and a train touches
one slot, so misses are processed in *rounds*: round ``r`` handles the
``r``-th miss of every slot at once (no two misses of a round share a
slot).  Rounds number the deepest per-slot miss count, not the misses.

**EHC** (:func:`replay_ehc_vectorized`).  ``cur`` never depends on
sweeps, so it is computed globally by a segmented reset-and-saturate
scan over the merged timeline of lookups and LLC events — an event at
time ``w`` keys as ``2w+1`` and the lookup (and LLC-hit observation) of
miss ``i`` as ``2i``, so an event caused by access ``i`` lands after that
access's lookup.  An evict captures ``cur`` into ``expected``; a lookup
reads the last in-epoch capture of its entry, or the epoch-start
``expected``, and the sweep is applied per epoch exactly as the ReDHiP
kernel splits epochs.

:func:`bulk_kind` is the gate: exactly the plain predictor classes with
the fixed-period engine (``type(...) is``, never ``isinstance``).  Gated
ReDHiP, MissMap, the adaptive (churn-triggered) engine and every wrapper
replay through the reference loops.  ``REPRO_NO_VECTOR_REPLAY=1`` forces
the reference loops everywhere, and checked mode runs both and asserts
every observable equal (see :func:`repro.sim.evaluate.evaluate_scheme`).
"""

from __future__ import annotations

import os

import numpy as np

from repro import telemetry
from repro.core.recalibration import RecalibrationEngine
from repro.core.redhip import ReDHiPController
from repro.hierarchy.events import EVENT_FILL, OutcomeStream
from repro.predictors.bloom import CountingBloomFilter
from repro.predictors.cbf_scheme import CBFPredictor
from repro.predictors.ehc import EHC_MAX, EHCController
from repro.predictors.hashes import bits_hash_array, xor_hash_array
from repro.predictors.levelpred import CONF_CONFIDENT, CONF_MAX, LevelPredController
from repro.sim.charging import recal_stall_cycles
from repro.util.validation import ConfigError

__all__ = [
    "NO_VECTOR_ENV",
    "bulk_kind",
    "eligible",
    "replay_cbf_vectorized",
    "replay_ehc_vectorized",
    "replay_levelpred_vectorized",
    "replay_redhip_vectorized",
    "vector_replay_disabled",
]

#: Escape hatch: force the reference replay loops everywhere.
NO_VECTOR_ENV = "REPRO_NO_VECTOR_REPLAY"

_TRUTHY = frozenset({"1", "true", "yes", "on"})

#: Sentinel "no fill yet" event time (later than any access index).
_NEVER = np.iinfo(np.int64).max

#: Predictor class -> bulk kernel kind.  Exact classes only.
_KINDS = {
    ReDHiPController: "redhip",
    CBFPredictor: "cbf",
    LevelPredController: "levelpred",
    EHCController: "ehc",
}

_HASH_KINDS = ("bits", "xor")


def vector_replay_disabled() -> bool:
    """Has the environment vetoed the bulk kernels?"""
    return os.environ.get(NO_VECTOR_ENV, "").strip().lower() in _TRUTHY


def bulk_kind(predictor) -> "str | None":
    """Which bulk kernel replays ``predictor``, or None for the reference.

    ``"redhip"``, ``"cbf"``, ``"levelpred"`` or ``"ehc"`` for the plain
    predictor classes with the fixed-period engine.  Subclasses and
    wrappers (gating, checked-mode delegation, MissMap) and the adaptive
    churn-triggered engine may observe per-event state, so they replay
    through the reference loops.
    """
    kind = _KINDS.get(type(predictor))
    if kind is None:
        return None
    if kind == "cbf":
        ok = (type(predictor.filter) is CountingBloomFilter
              and predictor.filter.hash_kind in _HASH_KINDS)
    else:  # EHC indexes with the bits-hash and has no hash_kind
        ok = (type(predictor.engine) is RecalibrationEngine
              and getattr(predictor, "hash_kind", "bits") in _HASH_KINDS)
    return kind if ok else None


def eligible(predictor) -> bool:
    """Can ``predictor`` be replayed by one of the bulk kernels?"""
    return bulk_kind(predictor) is not None


def _require(predictor, kind: str) -> None:
    if bulk_kind(predictor) != kind:
        raise ConfigError(
            f"predictor {getattr(predictor, 'name', predictor)!r} is not "
            f"epoch-batchable by the {kind} kernel; use the reference replay"
        )


def _index_array(hash_kind: str, p: int, blocks: np.ndarray) -> np.ndarray:
    """Vectorized counterpart of a predictor's scalar hash."""
    if hash_kind == "bits":
        idx = bits_hash_array(blocks, p)
    else:
        idx = xor_hash_array(blocks, p)
    return idx.astype(np.intp)


def _epoch_bounds(miss_at: np.ndarray, when: np.ndarray,
                  engine: RecalibrationEngine):
    """Split the misses into recalibration epochs.

    Returns ``(ends, ev_hi, sweep)``: epoch ``k`` covers misses
    ``[ends[k-1], ends[k])`` and the events ``[ev_hi[k-1], ev_hi[k])``
    (the ones the reference loop applies before the epoch's last lookup;
    events at or after it land post-sweep, in the next epoch), and
    ``sweep[k]`` says whether the engine sweeps after its last miss.
    """
    n_miss = len(miss_at)
    if n_miss == 0:
        ends = np.zeros(0, dtype=np.int64)
        sweep = np.zeros(0, dtype=bool)
    elif engine.period is None:
        ends = np.array([n_miss], dtype=np.int64)
        sweep = np.zeros(1, dtype=bool)
    else:
        period = engine.period
        first = period - engine.l1_misses % period
        ends = np.arange(first, n_miss + 1, period, dtype=np.int64)
        sweep = np.ones(len(ends), dtype=bool)
        if not len(ends) or ends[-1] != n_miss:
            ends = np.append(ends, n_miss)
            sweep = np.append(sweep, False)
    ev_hi = np.searchsorted(when, miss_at[ends - 1], side="left")
    telemetry.count("replay.epochs", len(ends))
    telemetry.count("replay.sweeps", int(sweep.sum()))
    return ends, ev_hi, sweep


def _advance_engine(engine: RecalibrationEngine, n_miss: int, sweeps: int) -> float:
    """Move the fixed-period engine to its end-of-run state; returns the
    stall cycles the sweeps cost."""
    if engine.period is not None:
        engine.l1_misses += n_miss
    engine.sweeps += sweeps
    return recal_stall_cycles(sweeps, engine.cost)


def _mirror_steps(fills: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """+1 per LLC fill, -1 per eviction, in the mirror's dtype (``ufunc.at``
    is far faster with a value array of the target dtype than a scalar)."""
    return np.where(fills, 1, -1).astype(counts.dtype)


def _apply_mirror(counts: np.ndarray, entries: np.ndarray, steps: np.ndarray) -> None:
    """Apply one batch of LLC events to the tag mirror, raising what the
    controllers raise if the batch leaves an entry below zero."""
    np.add.at(counts, entries, steps)
    evicted = entries[steps < 0]
    if len(evicted) and counts[evicted].min() < 0:
        raise ConfigError("LLC evicted a block the controller never saw filled")


def _replay_presence(stream: OutcomeStream, predictor):
    """Epoch-batched replay of a ReDHiP-style presence table.

    Shared by the ReDHiP and level-prediction kernels.  Advances the
    table bits, mirror counts and engine to the end-of-run state and
    returns ``(present per L1 miss, L1-miss mask, LLC fills, stall)``.
    """
    miss_mask = stream.hit_level != 1
    miss_at = np.flatnonzero(miss_mask)
    n_miss = len(miss_at)
    p = predictor.table.p
    miss_entry = _index_array(predictor.hash_kind, p, stream.block[miss_mask])
    when = stream.llc_when
    ev_fill = stream.llc_op == EVENT_FILL
    ev_entry = _index_array(predictor.hash_kind, p, stream.llc_block)

    engine = predictor.engine
    bits = predictor.table._bits
    counts = predictor.mirror._counts
    steps = _mirror_steps(ev_fill, counts)
    ends, ev_his, sweeps = _epoch_bounds(miss_at, when, engine)

    out = np.empty(n_miss, dtype=bool)
    first_fill = None                            # lazily allocated
    pos = ev_lo = 0
    for pos_end, ev_hi, sweep_here in zip(ends.tolist(), ev_his.tolist(),
                                          sweeps.tolist()):
        seg_fill = ev_fill[ev_lo:ev_hi]
        seg_entry = ev_entry[ev_lo:ev_hi]
        fill_entry = seg_entry[seg_fill]
        entries = miss_entry[pos:pos_end]
        if len(fill_entry):
            if first_fill is None:
                first_fill = np.full(len(bits), _NEVER, dtype=np.int64)
            np.minimum.at(first_fill, fill_entry, when[ev_lo:ev_hi][seg_fill])
            out[pos:pos_end] = bits[entries] | (first_fill[entries] < miss_at[pos:pos_end])
            first_fill[fill_entry] = _NEVER      # reset only touched slots
        else:
            out[pos:pos_end] = bits[entries]
        _apply_mirror(counts, seg_entry, steps[ev_lo:ev_hi])
        if sweep_here:
            np.greater(counts, 0, out=bits)
        else:
            bits[fill_entry] = True
        ev_lo = ev_hi
        pos = pos_end

    # Drain the event tail so the state covers the full run (matches the
    # reference loop's trailing drain).
    _apply_mirror(counts, ev_entry[ev_lo:], steps[ev_lo:])
    bits[ev_entry[ev_lo:][ev_fill[ev_lo:]]] = True

    stall = _advance_engine(engine, n_miss, int(sweeps.sum()))
    return out, miss_mask, int(ev_fill.sum()), stall


def replay_redhip_vectorized(
    stream: OutcomeStream, predictor: ReDHiPController
) -> tuple[np.ndarray, np.ndarray, float]:
    """Epoch-batched equivalent of the reference ``replay_predictor``.

    Same contract: returns ``(predicted, consulted, stall)`` over all
    accesses, and leaves ``predictor`` in the end-of-run state (final
    table bits, mirror counts, lookup/sweep telemetry) the reference
    replay would produce.  Event ordering matches hardware: events caused
    by access *i* are applied after access *i*'s lookup.
    """
    _require(predictor, "redhip")
    out, miss_mask, fills, stall = _replay_presence(stream, predictor)
    predictor.lookups += len(out)
    predictor.predicted_miss += int(len(out) - out.sum())
    predictor.table_updates += fills

    predicted = np.ones(len(miss_mask), dtype=bool)
    predicted[miss_mask] = out
    consulted = miss_mask.copy()                 # plain ReDHiP always consults
    return predicted, consulted, stall


def _stable_argsort(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for non-negative integer keys,
    computed as an unstable sort of unique ``(key, position)`` composites
    (several times faster than the stable sort)."""
    n = len(keys)
    return np.argsort(keys.astype(np.int64) * n + np.arange(n))


def _timeline(miss_at: np.ndarray, miss_entry: np.ndarray,
              when: np.ndarray, ev_entry: np.ndarray):
    """Merge the lookups and the LLC events into one timeline grouped by
    table entry.

    Within an entry the items keep time order, and the lookup of miss
    ``i`` precedes the events its own access causes (lookup keys ``2i``,
    event keys ``2w+1``).  Returns ``(order, entry, seg_id, seg_start)``:
    ``order`` holds the item per position — a lookup index below
    ``len(miss_at)``, else ``len(miss_at)`` plus an event index — and the
    rest describe the per-entry runs (see :func:`_segments`).
    """
    tpos = np.concatenate([
        np.arange(len(miss_at)) + np.searchsorted(when, miss_at, side="left"),
        np.arange(len(when)) + np.searchsorted(miss_at, when, side="right"),
    ])
    item_entry = np.concatenate([miss_entry, ev_entry])
    key = item_entry.astype(np.int64)
    key *= len(tpos)
    key += tpos
    order = np.argsort(key)
    entry = item_entry[order]
    return (order, entry) + _segments(entry)


def _segments(keys: np.ndarray):
    """For a key array grouped into runs: ``(seg_id, seg_start)`` — the
    run index of every element and the first position of every run."""
    head = np.ones(len(keys), dtype=bool)
    head[1:] = keys[1:] != keys[:-1]
    seg_id = np.cumsum(head)
    seg_id -= 1
    return seg_id, np.flatnonzero(head)


def _seg_last(seg_start: np.ndarray, n: int) -> np.ndarray:
    """The last position of every run of an ``n``-element array."""
    return np.append(seg_start[1:], n)[:len(seg_start)] - 1


def _running(initial: np.ndarray, step: np.ndarray, seg_id: np.ndarray,
             seg_start: np.ndarray) -> np.ndarray:
    """Segmented running sum: ``initial`` plus the steps so far in each
    run, inclusive of the current element (int32, built in place)."""
    csum = np.cumsum(step, dtype=np.int32)
    csum -= (csum[seg_start] - step[seg_start])[seg_id]
    csum += initial
    return csum


def replay_cbf_vectorized(
    stream: OutcomeStream, predictor: CBFPredictor
) -> tuple[np.ndarray, np.ndarray, float]:
    """Sort-and-scan equivalent of the reference ``replay_predictor`` for
    the counting Bloom filter; same contract as
    :func:`replay_redhip_vectorized`."""
    _require(predictor, "cbf")
    filt = predictor.filter
    miss_mask = stream.hit_level != 1
    miss_at = np.flatnonzero(miss_mask)
    n_miss = len(miss_at)
    ev_fill = stream.llc_op == EVENT_FILL
    m = len(ev_fill)
    order, entry, seg_id, seg_start = _timeline(
        miss_at, _index_array(filt.hash_kind, filt.p, stream.block[miss_mask]),
        stream.llc_when, _index_array(filt.hash_kind, filt.p, stream.llc_block))
    seg_entry = entry[seg_start]

    # Running count at every item as if no entry ever disabled (lookups
    # step 0, so a lookup sees the count after its entry's last event).
    step = np.concatenate([np.zeros(n_miss, dtype=np.int8),
                           np.where(ev_fill, 1, -1).astype(np.int8)])[order]
    run = _running(filt._counts[entry], step, seg_id, seg_start)
    # An entry disables at its first event leaving [0, max_count] and is
    # frozen from then on; entries disabled before the run never move.
    already = filt._disabled[seg_entry]
    frozen = filt._counts[seg_entry].astype(np.int64)
    off_from = np.where(already, seg_start, len(order))
    leaving = np.flatnonzero((run < 0) | (run > filt.max_count))
    leaving = leaving[~already[seg_id[leaving]]]
    first = leaving[np.unique(seg_id[leaving], return_index=True)[1]]
    off_from[seg_id[first]] = first
    frozen[seg_id[first]] = run[first] - step[first]
    off = np.arange(len(order)) >= off_from[seg_id]
    count = np.where(off, frozen[seg_id], run)

    lookups = order < n_miss
    present = np.empty(n_miss, dtype=bool)
    present[order[lookups]] = off[lookups] | (count[lookups] > 0)
    last = _seg_last(seg_start, len(order))
    filt._counts[seg_entry] = count[last]
    filt._disabled[seg_entry] = off[last]

    n_fills = int(ev_fill.sum())
    filt.saturations += len(first)
    filt.inserts += n_fills
    filt.deletes += m - n_fills
    predictor.table_updates += m
    predictor.lookups += n_miss
    predictor.predicted_miss += int(n_miss - present.sum())

    predicted = np.ones(stream.num_accesses, dtype=bool)
    predicted[miss_mask] = present
    return predicted, miss_mask.copy(), 0.0


def replay_levelpred_vectorized(
    stream: OutcomeStream, predictor: LevelPredController, pcs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Bulk equivalent of the reference ``replay_level_predictor``: the
    presence half through the epoch helper, the level table in rounds."""
    _require(predictor, "levelpred")
    present, miss_mask, fills, stall = _replay_presence(stream, predictor)
    n_miss = len(present)
    hit = stream.hit_level[miss_mask].astype(np.int16)
    slot, tag = predictor._level_slot(
        np.asarray(pcs[miss_mask], dtype=np.uint64), stream.block[miss_mask])
    slot = slot.astype(np.intp)
    tag = tag.astype(np.uint8)

    # Round r = the r-th miss of every slot, in miss order.
    order = _stable_argsort(slot)
    seg_id, seg_start = _segments(slot[order])
    rank = np.arange(n_miss) - seg_start[seg_id]
    by_round = order[_stable_argsort(rank)]
    round_end = np.cumsum(np.bincount(rank)).tolist()

    tags, levels, conf = predictor.tags, predictor.levels, predictor.conf
    table_level = np.zeros(n_miss, dtype=np.int64)
    table_ok = np.zeros(n_miss, dtype=bool)
    updates = 0
    lo = 0
    for hi in round_end:
        g = by_round[lo:hi]
        lo = hi
        idx, tg, hl = slot[g], tag[g], hit[g]
        t = tags[idx]
        lv = levels[idx].astype(np.int16)
        c = conf[idx].astype(np.int16)
        match = t == tg
        table_level[g] = lv
        table_ok[g] = match & (c >= CONF_CONFIDENT)
        # train(): reinforce on agreement, decay on disagreement,
        # replace at confidence 0 or on a tag mismatch.
        live = hl >= 2
        agree = match & (lv == hl)
        reinforce = live & agree & (c < CONF_MAX)
        disagree = live & match & ~agree
        decayed = np.maximum(c - 1, 0)
        replace = (disagree & (decayed == 0)) | (live & ~match)
        fade = ~live & match & (c > 0)
        new_c = np.where(reinforce, c + 1, c)
        new_c = np.where(disagree, decayed, new_c)
        new_c = np.where(fade, c - 1, new_c)
        new_c = np.where(replace, 1, new_c)
        tags[idx] = np.where(live, tg, t)
        levels[idx] = np.where(replace, hl, lv)
        conf[idx] = new_c
        updates += int((reinforce | disagree | replace | fade).sum())

    single = present & table_ok
    level_out = np.where(single, table_level, 0)
    conf_out = ~present | table_ok
    counted = single & (table_level >= 2)
    predictor.lookups += n_miss
    predictor.predicted_miss += int(n_miss - present.sum())
    predictor.confident_singles += int(single.sum())
    predictor.correct_singles += int((counted & (hit == table_level)).sum())
    predictor.mispredicts += int((counted & (hit != table_level)).sum())
    predictor.table_updates += fills + updates
    if n_miss:
        predictor._last = (int(level_out[-1]), bool(conf_out[-1]))

    n = stream.num_accesses
    pred_level = np.zeros(n, dtype=np.int64)
    confident = np.zeros(n, dtype=bool)
    pred_level[miss_mask] = level_out
    confident[miss_mask] = conf_out
    return pred_level, confident, stall


def _check_mirror(counts, entry, code, order, seg_id, seg_start) -> None:
    """The EHC mirror must never underflow: the first eviction (in time)
    of a block the controller never saw filled raises what
    ``TagMirror.evict`` raises.  Items are coded as in
    :func:`replay_ehc_vectorized`."""
    step = np.array([0, 0, 1, -1], dtype=np.int8)[code]
    mirror = _running(counts[entry], step, seg_id, seg_start)
    under = np.flatnonzero((code == 3) & (mirror < 0))
    if len(under):
        bad = under[np.argmin(order[under])]
        raise ConfigError(
            "tag mirror underflow: eviction of a block never filled "
            f"(index {int(entry[bad])})"
        )


def _cur_before(code, start, cur0) -> np.ndarray:
    """EHC's ``cur`` just before every timeline item: the saturating
    count of observations (code 1) since the entry's last event (codes 2
    and 3 reset it), or since the run start on top of ``cur0``."""
    pos = np.arange(len(code))
    seen = np.r_[0, np.cumsum(code == 1)]        # observations in [0, k)
    last_reset = np.r_[-1, np.maximum.accumulate(np.where(code >= 2, pos, -1))[:-1]]
    since = seen[:-1] - seen[np.maximum(last_reset, start - 1) + 1]
    base = np.where(last_reset >= start, 0, cur0)
    return np.minimum(EHC_MAX, base + since)


def replay_ehc_vectorized(
    stream: OutcomeStream, predictor: EHCController
) -> tuple[np.ndarray, float]:
    """Bulk equivalent of the reference ``replay_ehc``: a global
    reset-and-saturate scan for ``cur``, per-epoch sweeps for
    ``expected``."""
    _require(predictor, "ehc")
    n = stream.num_accesses
    miss_mask = stream.hit_level != 1
    miss_at = np.flatnonzero(miss_mask)
    n_miss = len(miss_at)
    observe = stream.hit_level[miss_mask] == stream.num_levels
    mask = np.uint64(predictor._mask)
    miss_entry = (stream.block[miss_mask] & mask).astype(np.intp)
    when = stream.llc_when
    ev_fill = stream.llc_op == EVENT_FILL
    ev_entry = (stream.llc_block & mask).astype(np.intp)
    m = len(when)
    counts = predictor.mirror._counts
    steps = _mirror_steps(ev_fill, counts)

    order, entry, seg_id, seg_start = _timeline(miss_at, miss_entry, when,
                                                ev_entry)
    # Item codes: 0 lookup, 1 lookup + LLC-hit observation, 2 fill, 3 evict.
    code = np.concatenate([observe.astype(np.int8),
                           np.where(ev_fill, 2, 3).astype(np.int8)])[order]
    is_event = code >= 2
    is_evict = code == 3
    start = seg_start[seg_id]
    _check_mirror(counts, entry, code, order, seg_id, seg_start)
    cur_before = _cur_before(code, start, predictor.cur[entry])

    # Every lookup's latest earlier evict of its entry: the event index
    # and the cur value it captured into `expected`.
    last_evict = np.maximum.accumulate(
        np.where(is_evict, np.arange(len(order)), -1))
    lookups = np.flatnonzero(~is_event & (last_evict >= start))
    le = last_evict[lookups]
    prior_ev = np.full(n_miss, -1, dtype=np.int64)
    prior_val = np.zeros(n_miss, dtype=np.int64)
    prior_ev[order[lookups]] = order[le] - n_miss
    prior_val[order[lookups]] = cur_before[le]

    # Each entry's last evict per epoch sets its `expected` at epoch end.
    ends, ev_his, sweeps = _epoch_bounds(miss_at, when, predictor.engine)
    evicts = np.flatnonzero(is_evict)
    ev_epoch = np.searchsorted(ev_his, order[evicts] - n_miss, side="right")
    final = np.ones(len(evicts), dtype=bool)
    final[:-1] = (entry[evicts][1:] != entry[evicts][:-1]) | (
        ev_epoch[1:] != ev_epoch[:-1])
    by_epoch = _stable_argsort(ev_epoch[final])
    cap_entry = entry[evicts][final][by_epoch]
    cap_val = cur_before[evicts][final][by_epoch]
    cap_bounds = np.searchsorted(ev_epoch[final][by_epoch],
                                 np.arange(len(ends) + 2), side="left").tolist()

    expected = predictor.expected
    dead = np.empty(n_miss, dtype=bool)
    pos_lo = ev_lo = 0
    for k, (pos_hi, ev_hi, sweep_here) in enumerate(
            zip(ends.tolist(), ev_his.tolist(), sweeps.tolist())):
        sel = slice(pos_lo, pos_hi)
        seen_here = np.where(prior_ev[sel] >= ev_lo, prior_val[sel],
                             expected[miss_entry[sel]])
        dead[sel] = seen_here == 0
        a, b = cap_bounds[k], cap_bounds[k + 1]
        expected[cap_entry[a:b]] = cap_val[a:b]
        _apply_mirror(counts, ev_entry[ev_lo:ev_hi], steps[ev_lo:ev_hi])
        if sweep_here:
            expected[:] = np.where(counts > 0, np.maximum(expected, 1), 0)
        pos_lo, ev_lo = pos_hi, ev_hi
    a, b = cap_bounds[len(ends)], cap_bounds[len(ends) + 1]
    expected[cap_entry[a:b]] = cap_val[a:b]
    _apply_mirror(counts, ev_entry[ev_lo:], steps[ev_lo:])

    last = _seg_last(seg_start, len(order))
    predictor.cur[entry[seg_start]] = np.where(
        is_event[last], 0, np.minimum(EHC_MAX, cur_before[last] + (code[last] == 1)))
    predictor.lookups += n_miss
    predictor.predicted_dead += int(dead.sum())
    predictor.llc_hits_observed += int(observe.sum())
    predictor.table_updates += m
    stall = _advance_engine(predictor.engine, n_miss, int(sweeps.sum()))

    out = np.zeros(n, dtype=bool)
    out[miss_mask] = dead
    return out, stall
