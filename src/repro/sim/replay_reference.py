"""Reference replay loops: one Python call per L1 miss and per LLC event.

These are the scalar oracles the bulk kernels in
:mod:`repro.sim.vector_replay` are proven against.  Nothing in the
production path calls them directly: the dispatchers of the same names
in :mod:`repro.sim.evaluate` fall back to them only for predictors
without a bulk kernel (gated, MissMap, adaptive engine, wrappers) or
under ``REPRO_NO_VECTOR_REPLAY``.  Checked mode, the differential fuzzers
and the analysis helpers import them from here, so a "sequential"
baseline can never silently be the bulk kernel.
"""

from __future__ import annotations

import numpy as np

from repro.hierarchy.events import EVENT_FILL, OutcomeStream
from repro.predictors.base import PresencePredictor

__all__ = ["replay_predictor", "replay_level_predictor", "replay_ehc"]


def replay_predictor(
    stream: OutcomeStream, predictor: PresencePredictor
) -> tuple[np.ndarray, np.ndarray, float]:
    """Sequentially replay L1-miss lookups against the LLC event stream.

    Returns the per-access prediction array (only meaningful where the
    access missed L1), the per-access *consulted* array (False where a
    gated predictor answered without touching its table), and the total
    recalibration stall cycles.  Event ordering matches hardware:
    fills/evictions caused by access *i* are applied after access *i*'s
    lookup (the lookup races ahead of the fill).
    """
    h = stream.hit_level
    n = len(h)
    predicted = np.ones(n, dtype=bool)
    consulted = np.zeros(n, dtype=bool)
    miss_mask = h != 1
    miss_idx = np.nonzero(miss_mask)[0].tolist()
    miss_blocks = stream.block[miss_mask].tolist()

    when = stream.llc_when.tolist()
    ops = stream.llc_op.tolist()
    eblocks = stream.llc_block.tolist()
    m = len(when)

    lookup = predictor.predict_present
    fill = predictor.on_llc_fill
    evict = predictor.on_llc_evict
    note = predictor.note_l1_miss

    stall = 0.0
    ei = 0
    out = []
    consults = []
    for pos, i in enumerate(miss_idx):
        while ei < m and when[ei] < i:
            if ops[ei] == EVENT_FILL:
                fill(eblocks[ei])
            else:
                evict(eblocks[ei])
            ei += 1
        out.append(lookup(miss_blocks[pos]))
        consults.append(predictor.last_consulted)
        stall += note()
    while ei < m:  # drain so predictor telemetry covers the full run
        if ops[ei] == EVENT_FILL:
            fill(eblocks[ei])
        else:
            evict(eblocks[ei])
        ei += 1
    predicted[miss_mask] = np.asarray(out, dtype=bool) if out else False
    consulted[miss_mask] = np.asarray(consults, dtype=bool) if consults else False
    return predicted, consulted, stall


def replay_level_predictor(
    stream: OutcomeStream, predictor, pcs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Sequentially replay level-prediction lookups over the event stream.

    Returns per-access predicted levels (0 = memory/no prediction),
    per-access confidence flags, and the total recalibration stall
    cycles.  Event interleaving matches :func:`replay_predictor`: events
    caused by earlier accesses land before access *i*'s lookup, access
    *i*'s own events land before the next miss's lookup, and the train
    step observes the true outcome between the lookup and the time
    advance — the same order the integrated loop performs.
    """
    h = stream.hit_level
    n = len(h)
    pred_level = np.zeros(n, dtype=np.int64)
    confident = np.zeros(n, dtype=bool)
    miss_mask = h != 1
    miss_idx = np.nonzero(miss_mask)[0].tolist()
    miss_blocks = stream.block[miss_mask].tolist()
    miss_pcs = pcs[miss_mask].tolist()
    miss_h = h[miss_mask].tolist()

    when = stream.llc_when.tolist()
    ops = stream.llc_op.tolist()
    eblocks = stream.llc_block.tolist()
    m = len(when)

    predict = predictor.predict
    train = predictor.train
    fill = predictor.on_llc_fill
    evict = predictor.on_llc_evict
    note = predictor.note_l1_miss

    stall = 0.0
    ei = 0
    levels_out = []
    conf_out = []
    for pos, i in enumerate(miss_idx):
        while ei < m and when[ei] < i:
            if ops[ei] == EVENT_FILL:
                fill(eblocks[ei])
            else:
                evict(eblocks[ei])
            ei += 1
        level, conf = predict(miss_pcs[pos], miss_blocks[pos])
        levels_out.append(level)
        conf_out.append(conf)
        train(miss_pcs[pos], miss_blocks[pos], miss_h[pos])
        stall += note()
    while ei < m:  # drain so predictor telemetry covers the full run
        if ops[ei] == EVENT_FILL:
            fill(eblocks[ei])
        else:
            evict(eblocks[ei])
        ei += 1
    if levels_out:
        pred_level[miss_mask] = np.asarray(levels_out, dtype=np.int64)
        confident[miss_mask] = np.asarray(conf_out, dtype=bool)
    return pred_level, confident, stall


def replay_ehc(
    stream: OutcomeStream, predictor
) -> tuple[np.ndarray, float]:
    """Sequentially replay expected-hit-count lookups over the events.

    Returns the per-access predicted-dead flags (meaningful at L1
    misses) and the total recalibration stall cycles.  Per miss the
    order is: prior events, dead-block lookup, LLC-hit observation (when
    the walk will hit at the LLC), time advance — then the miss's own
    events before the next lookup, exactly as the integrated loop does.
    """
    h = stream.hit_level
    n = len(h)
    num_levels = stream.num_levels
    dead = np.zeros(n, dtype=bool)
    miss_mask = h != 1
    miss_idx = np.nonzero(miss_mask)[0].tolist()
    miss_blocks = stream.block[miss_mask].tolist()
    miss_h = h[miss_mask].tolist()

    when = stream.llc_when.tolist()
    ops = stream.llc_op.tolist()
    eblocks = stream.llc_block.tolist()
    m = len(when)

    predict = predictor.predict_dead
    observe = predictor.observe_hit
    fill = predictor.on_llc_fill
    evict = predictor.on_llc_evict
    note = predictor.note_l1_miss

    stall = 0.0
    ei = 0
    out = []
    for pos, i in enumerate(miss_idx):
        while ei < m and when[ei] < i:
            if ops[ei] == EVENT_FILL:
                fill(eblocks[ei])
            else:
                evict(eblocks[ei])
            ei += 1
        out.append(predict(miss_blocks[pos]))
        if miss_h[pos] == num_levels:
            observe(miss_blocks[pos])
        stall += note()
    while ei < m:
        if ops[ei] == EVENT_FILL:
            fill(eblocks[ei])
        else:
            evict(eblocks[ei])
        ei += 1
    if out:
        dead[miss_mask] = np.asarray(out, dtype=bool)
    return dead, stall
