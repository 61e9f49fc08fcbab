"""Vectorized content walk: set-bucketed, chunk-batched inclusive replay.

:class:`repro.sim.content.ContentSimulator` walks the merged multi-core
trace one reference at a time — a Python method call plus six list appends
per access.  For the paper-default configuration (inclusive policy, LRU
replacement, no coherence) that walk decomposes exactly, because of how
set indexing works:

* **Set-partition independence.**  Every level indexes sets with the low
  bits of the block number (Figure 3), and every ``num_sets`` is a power
  of two, so the *smallest* level's set mask is a submask of every other
  level's.  Partition the accesses by ``block & (min_num_sets - 1)`` and
  two accesses in different partitions touch different sets at *every*
  level — including the shared LLC, whose back-invalidations therefore
  never cross partitions either.  Each partition is an independent
  sequential sub-walk; any processing order that preserves per-partition
  order yields identical per-set LRU states, identical outcomes and
  identical events.

* **Vectorized intra-set conflict resolution.**  Sort each chunk by
  ``(partition, core)`` pair (stable, so per-pair order survives) and
  consider an access whose *previous access by the same core in the same
  partition*
  touched the same block.  That predecessor left the block at rank 0 of
  the core's L1 set, the core itself issued nothing in the partition
  since, and no access *outside* the partition can reach that set — so
  the access is an L1 MRU hit with exactly one exception: an intervening
  same-partition access by another core may have evicted the block from
  the shared LLC, whose inclusion back-invalidation kills the L1 copy.
  The candidates (the bulk of any workload with locality — spatial runs,
  hot sets, duplicated-trace round-robin interleaving) are resolved with
  one stable sort per chunk and never enter the Python loop; a
  per-``(partition, core)`` carry extends the test across chunk
  boundaries.  The pair key is ``uint16`` whenever there are at most
  65536 pairs, so NumPy's stable argsort runs as a radix sort (same
  permutation, about 10x faster than the int64 merge sort).

* **Per-core residency index.**  The residual Python replay (an inlined
  per-set LRU identical in effect to
  :meth:`CacheHierarchy._access_inclusive`, minus dirty-bit bookkeeping,
  which provably never influences the outcome stream) keeps one dict per
  core mapping each privately held block to the shallowest private level
  holding it; per-core inclusion puts it in every deeper private level
  too.  An access finds its private hit level with one lookup, a fill
  victim is swept from the levels above only when the index has it there
  (an *inclusion victim*), and an LLC eviction pops the victim from each
  core's index and removes exactly the copies listed (an *LLC
  back-invalidation*).

* **Eviction-hazard repair.**  The residual replay tracks the hot
  block of every ``(partition, core)`` pair.  When an LLC eviction hits
  a block that is some pair's hot block, the pair's first still-pending
  candidate for that block is *demoted*: re-queued (in order) into the
  residual replay, where it replays as the memory miss it really is —
  refilling the block and re-validating the candidates behind it.  If
  the pair has no later access in the chunk, the cross-chunk carry is
  invalidated instead.  Demotion is rare (65 over the eleven 640k-access
  seed-1 fig6 walks) but load-bearing: it is what makes the optimistic
  skip *exact* rather than approximate.

The residual replay runs in chronological order — partition independence
allows any order that keeps per-partition order — so LLC events are
appended exactly as the sequential recorder appends them, and the
resulting :class:`OutcomeStream` is *byte-identical* to the sequential
walk's — ``tests/test_vector_content.py`` fuzzes this over random
geometries, families and chunk sizes, and checked mode asserts it on
every run.

``REPRO_NO_VECTOR_WALK=1`` forces the sequential path everywhere
(mirroring ``REPRO_NO_VECTOR_REPLAY``); :func:`eligible` gates the other
policies/replacements onto the sequential path automatically.
"""

from __future__ import annotations

import os
from bisect import bisect_right

import numpy as np

from repro import checking
from repro.hierarchy.events import EVENT_EVICT, EVENT_FILL, OutcomeStream
from repro.hierarchy.inclusion import InclusionPolicy
from repro.sim.config import SimConfig
from repro.util.validation import ConfigError
from repro.workloads.trace import Workload

__all__ = [
    "NO_VECTOR_WALK_ENV",
    "assert_streams_equal",
    "eligible",
    "vector_walk_disabled",
    "walk_vectorized",
]

#: Escape hatch: force the sequential content walk everywhere.
NO_VECTOR_WALK_ENV = "REPRO_NO_VECTOR_WALK"

_TRUTHY = frozenset({"1", "true", "yes", "on"})

#: Stream fields compared by the dual-path equivalence assertion, in the
#: order divergences are reported (per-access fields first).
_STREAM_FIELDS = (
    "core", "block", "write", "gap", "hit_level", "hit_rank",
    "llc_when", "llc_op", "llc_block", "final_llc_blocks",
)


def vector_walk_disabled() -> bool:
    """Has the environment vetoed the vectorized walk?"""
    return os.environ.get(NO_VECTOR_WALK_ENV, "").strip().lower() in _TRUTHY


def eligible(config: SimConfig) -> bool:
    """Can this configuration take the set-bucketed walk?

    Exactly the paper-default content model: inclusive policy, true-LRU
    replacement, no coherence protocol (write-invalidate snooping reaches
    across cores *within* a set partition in ways the batched carry does
    not model).  Power-of-two set counts are guaranteed by the machine
    validators but re-checked here because partition independence is
    soundness, not performance.
    """
    if config.policy is not InclusionPolicy.INCLUSIVE:
        return False
    if config.replacement != "lru":
        return False
    if config.coherent:
        return False
    return all(
        lvl.num_sets > 0 and lvl.num_sets & (lvl.num_sets - 1) == 0
        for lvl in config.machine.levels
    )


def walk_vectorized(
    config: SimConfig,
    workload: Workload,
    max_accesses: "int | None" = None,
    chunk_refs: "int | None" = None,
) -> "tuple[OutcomeStream, dict]":
    """The batched equivalent of ``ContentSimulator._walk``.

    Returns ``(stream, stats)`` where ``stats`` carries the chunk, skip,
    demotion and removed-private-copy counts (``inclusion_victims``,
    ``llc_back_invalidations``) the telemetry span tags report.  The
    stream is byte-identical to the sequential walk's for every eligible
    configuration.
    """
    if not eligible(config):
        raise ConfigError(
            f"config (policy={config.policy.value}, "
            f"replacement={config.replacement!r}, coherent={config.coherent}) "
            "is not set-bucketable; use the sequential walk"
        )
    machine = config.machine
    if workload.cores != machine.cores:
        raise ConfigError(
            f"workload has {workload.cores} traces but machine "
            f"{machine.name!r} has {machine.cores} cores"
        )

    num_levels = machine.num_levels
    ncores = machine.cores
    # Private levels 1..L-1 (index 0..L-2 below); the LLC is shared.
    masks = [machine.level(lv).num_sets - 1 for lv in range(1, num_levels)]
    assocs = [machine.level(lv).assoc for lv in range(1, num_levels)]
    llc_mask = machine.llc.num_sets - 1
    llc_assoc = machine.llc.assoc
    pmask = min(lvl.num_sets for lvl in machine.levels) - 1
    nparts = pmask + 1
    ngroups = nparts * ncores          # (partition, core) pairs, flat

    kwargs = {} if chunk_refs is None else {"chunk_refs": chunk_refs}
    stream_it = workload.block_stream(max_refs=max_accesses, **kwargs)
    n = stream_it.num_refs

    hit_level = np.empty(n, dtype=np.int8)
    hit_rank = np.empty(n, dtype=np.int8)

    # Per-set LRU state: MRU-first lists in dicts keyed by set index
    # (sparse — only touched sets materialize).
    llc_sets: dict = {}
    # Per core: its residency index, its private levels top-down as
    # (sets, mask), and its fill chains.  The index maps every block the
    # core holds privately to the shallowest private level (1-based)
    # holding it; per-core inclusion puts the block in every deeper
    # private level too, so one lookup gives an access's hit level and
    # says exactly which copies a back-invalidation must remove.
    # fills[top] fills levels top..1 as (sets, mask, assoc, level, next),
    # where `next` is the victim's new shallowest level (0: none left).
    cores_state = []
    for c in range(ncores):
        levels = [({}, masks[lv]) for lv in range(num_levels - 1)]
        fills = [
            tuple((levels[lv - 1][0], masks[lv - 1], assocs[lv - 1], lv,
                   lv + 1 if lv < num_levels - 1 else 0)
                  for lv in range(top, 0, -1))
            for top in range(num_levels)
        ]
        cores_state.append(({}, levels, fills))

    # Cross-chunk carry per (partition, core): block of the pair's last
    # access, provided no LLC eviction has killed its L1 copy since.
    carry_block = np.zeros(ngroups, dtype=np.uint64)
    carry_valid = np.zeros(ngroups, dtype=bool)
    # Hot block per pair, maintained by the residual replay (candidates
    # by construction never change it).  -1 = no access yet.
    hot: list[int] = [-1] * ngroups

    # LLC event accumulators (when = global index of the causing access).
    ev_when: list[int] = []
    ev_op: list[int] = []
    ev_block: list[int] = []
    ew_app, eo_app, eb_app = ev_when.append, ev_op.append, ev_block.append

    chunks = 0
    skipped = 0
    demoted_total = 0
    swept = 0                 # private copies removed as inclusion victims
    back_invalidated = 0      # private copies removed by LLC evictions
    core_parts: list[np.ndarray] = []
    block_parts: list[np.ndarray] = []
    write_parts: list[np.ndarray] = []
    gap_parts: list[np.ndarray] = []

    np_pmask = np.uint64(pmask)
    key_dtype = np.uint16 if ngroups <= 1 << 16 else np.int64
    for chunk in stream_it:
        chunks += 1
        core_parts.append(chunk.core)
        block_parts.append(chunk.block)
        write_parts.append(chunk.write)
        gap_parts.append(chunk.gap)
        m = chunk.num_refs
        blocks = chunk.block

        # ---- candidate detection in (partition, core) grouping; the
        # stable sort keeps each pair's accesses in chronological order
        # (and on a 16-bit key NumPy's stable sort is a radix sort)
        pair = ((blocks & np_pmask).astype(np.int64) * ncores
                + chunk.core).astype(key_dtype, copy=False)
        order2 = np.argsort(pair, kind="stable")
        k2 = pair[order2]
        b2 = blocks[order2]
        same_group = np.empty(m, dtype=bool)
        same_group[0] = False
        np.equal(k2[1:], k2[:-1], out=same_group[1:])
        cand2 = np.zeros(m, dtype=bool)
        cand2[1:] = same_group[1:] & (b2[1:] == b2[:-1])
        # Chunk position of each element's predecessor within its group;
        # -1 when the predecessor lies in an earlier chunk.
        pred2 = np.full(m, -1, dtype=np.int64)
        if m > 1:
            pred2[1:] = np.where(same_group[1:], order2[:-1], -1)
        first2 = ~same_group
        fk = k2[first2]
        cand2[first2] = carry_valid[fk] & (carry_block[fk] == b2[first2])

        # ---- advance cross-chunk carry to this chunk's group tails
        last2 = np.empty(m, dtype=bool)
        last2[-1] = True
        np.not_equal(k2[1:], k2[:-1], out=last2[:-1])
        lk = k2[last2]
        carry_block[lk] = b2[last2]
        carry_valid[lk] = True
        last_pos = np.full(ngroups, -1, dtype=np.int64)
        last_pos[lk] = order2[last2]

        # ---- pre-write candidate outcomes (L1 MRU hits), vectorized
        cand = np.zeros(m, dtype=bool)
        cand[order2] = cand2
        sk = np.flatnonzero(cand) + chunk.start
        hit_level[sk] = 1
        hit_rank[sk] = 0
        skipped += len(sk)

        # ---- candidates by pair, for eviction-hazard demotion: a pair's
        # slice is located (searchsorted) on its first hazard only, then
        # its pointer to the next undecided candidate lives in `cursor`
        ci2 = np.flatnonzero(cand2)
        c_key = k2[ci2]
        c_pos = order2[ci2]
        c_blk = b2[ci2]
        c_prd = pred2[ci2]
        cursor: dict = {}

        # ---- residual replay in chronological order, merged with
        # demoted candidates (partition independence: any order keeping
        # per-partition order is exact, and this one emits LLC events in
        # the sequential recorder's order).  `pair` IS the flat
        # (partition, core) index — reuse it as the hot slot.
        res = np.flatnonzero(~cand)
        r_pos = res.tolist()
        r_core = chunk.core[res].tolist()
        r_block = blocks[res].tolist()
        r_hot = pair[res].tolist()
        hl: list[int] = []
        hr: list[int] = []
        hl_app, hr_app = hl.append, hr.append
        base_idx = chunk.start

        # A demoted candidate is inserted into these four lists at its
        # chronological place, which always lies after the access being
        # replayed, so the list iterators behind zip() still reach it.
        for q, c, b, h in zip(r_pos, r_core, r_block, r_hot):
            hot[h] = b
            resident, levels, fills = cores_state[c]
            hitlev = resident.get(b)
            if hitlev is not None:
                sets, mask = levels[hitlev - 1]
                lst = sets[b & mask]
                top = hitlev - 1
            else:
                top = num_levels - 1
                key = b & llc_mask
                lst = llc_sets.get(key)
                if lst is not None and b in lst:
                    hitlev = num_levels
                else:
                    # Memory miss: LLC fill first, evicting (and back-
                    # invalidating) a victim when the set overflows —
                    # same notification order as CacheHierarchy._fill_llc.
                    hitlev = 0
                    rank = -1
                    if lst is None:
                        lst = llc_sets[key] = []
                    lst.insert(0, b)
                    ew_app(q + base_idx)
                    eo_app(EVENT_FILL)
                    eb_app(b)
                    if len(lst) > llc_assoc:
                        vb = lst.pop()
                        ew_app(q + base_idx)
                        eo_app(EVENT_EVICT)
                        eb_app(vb)
                        for resident2, levels2, _ in cores_state:
                            if vb in resident2:
                                s2 = resident2.pop(vb)
                                for sets2, mask2 in levels2[s2 - 1:]:
                                    sets2[vb & mask2].remove(vb)
                                back_invalidated += num_levels - s2
                        # Eviction hazard: any pair whose hot block just
                        # lost its L1 copy must not skip its next access
                        # to it — demote that candidate (or kill the
                        # cross-chunk carry if the pair is done here).
                        base = (vb & pmask) * ncores
                        if vb in hot[base:base + ncores]:
                            for fl in range(base, base + ncores):
                                if hot[fl] != vb:
                                    continue
                                g = cursor.get(fl)
                                if g is None:
                                    g = cursor[fl] = [
                                        int(c_key.searchsorted(fl)),
                                        int(c_key.searchsorted(fl, "right"))]
                                ptr, end = g
                                ptr += int(
                                    c_pos[ptr:end].searchsorted(q, "right"))
                                did_demote = (ptr < end and c_blk[ptr] == vb
                                              and c_prd[ptr] < q)
                                if did_demote:
                                    p = int(c_pos[ptr])
                                    j = bisect_right(r_pos, p)
                                    r_pos.insert(j, p)
                                    r_core.insert(j, fl - base)
                                    r_block.insert(j, vb)
                                    r_hot.insert(j, fl)
                                    demoted_total += 1
                                    skipped -= 1
                                    ptr += 1
                                g[0] = ptr
                                if not did_demote and last_pos[fl] < q:
                                    carry_valid[fl] = False
            if hitlev:
                if lst[0] == b:
                    rank = 0
                else:
                    rank = lst.index(b)
                    del lst[rank]
                    lst.insert(0, b)
            if top:
                # Fill private levels top..1; a level's victim is swept
                # from the levels above it only where the index has it.
                for sets, mask, assoc, lv, nxt in fills[top]:
                    key = b & mask
                    lst = sets.get(key)
                    if lst is None:
                        lst = sets[key] = []
                    lst.insert(0, b)
                    if len(lst) > assoc:
                        vb = lst.pop()
                        s2 = resident[vb]
                        if s2 < lv:
                            for sets2, mask2 in levels[s2 - 1:lv - 1]:
                                sets2[vb & mask2].remove(vb)
                            swept += lv - s2
                        if nxt:
                            resident[vb] = nxt
                        else:
                            del resident[vb]
                resident[b] = 1
            hl_app(hitlev)
            hr_app(rank)

        if hl:
            at = res if len(r_pos) == len(res) else np.asarray(r_pos)
            at = at + base_idx
            hit_level[at] = np.asarray(hl, dtype=np.int8)
            hit_rank[at] = np.asarray(hr, dtype=np.int8)

    final_llc: list[int] = []
    for lst in llc_sets.values():
        final_llc.extend(lst)

    if core_parts:
        core_all = np.concatenate(core_parts)
        block_all = np.concatenate(block_parts)
        write_all = np.concatenate(write_parts)
        gap_all = np.concatenate(gap_parts)
    else:
        core_all = np.empty(0, dtype=np.int64)
        block_all = np.empty(0, dtype=np.uint64)
        write_all = np.empty(0, dtype=bool)
        gap_all = np.empty(0, dtype=np.uint32)

    stream = OutcomeStream(
        core=core_all.astype(np.uint16),
        block=block_all,
        write=write_all,
        gap=gap_all.astype(np.uint32),
        hit_level=hit_level,
        hit_rank=hit_rank,
        llc_when=np.asarray(ev_when, dtype=np.int64),
        llc_op=np.asarray(ev_op, dtype=np.int8),
        llc_block=np.asarray(ev_block, dtype=np.uint64),
        num_levels=num_levels,
        final_llc_blocks=np.asarray(sorted(final_llc), dtype=np.uint64),
    )
    stats = {
        "chunks": chunks,
        "skipped": skipped,
        "residual": n - skipped,
        "demoted": demoted_total,
        "inclusion_victims": swept,
        "llc_back_invalidations": back_invalidated,
        "partitions": nparts,
    }
    return stream, stats


def _first_divergence(a: np.ndarray, b: np.ndarray) -> int:
    """Index of the first differing element (arrays of equal length)."""
    diff = np.nonzero(a != b)[0]
    return int(diff[0]) if len(diff) else -1


def assert_streams_equal(
    vector: OutcomeStream,
    sequential: OutcomeStream,
    config: SimConfig,
    workload_name: str,
) -> None:
    """Checked-mode oracle: the two walks must agree byte for byte.

    On divergence, writes a replay bundle (like every other invariant in
    :mod:`repro.checking`) and raises :class:`InvariantViolation
    <repro.checking.InvariantViolation>` pointing at the first divergent
    access, so ``repro replay`` can re-run exactly the offending window.
    """
    problems: list[str] = []
    ref_index: "int | None" = None
    if vector.num_levels != sequential.num_levels:
        problems.append(
            f"num_levels {vector.num_levels} != {sequential.num_levels}"
        )
    for name in _STREAM_FIELDS:
        va = getattr(vector, name)
        sa = getattr(sequential, name)
        if len(va) != len(sa):
            problems.append(f"{name}: length {len(va)} != {len(sa)}")
            continue
        if not np.array_equal(va, sa):
            at = _first_divergence(va, sa)
            problems.append(
                f"{name}[{at}]: vector {va[at]!r} != sequential {sa[at]!r}"
            )
            if ref_index is None:
                if name in ("llc_when", "llc_op", "llc_block"):
                    # Point the replay at the access causing the event.
                    ref_index = int(sequential.llc_when[at]) if at < len(
                        sequential.llc_when) else None
                elif name != "final_llc_blocks":
                    ref_index = at
    if not problems:
        return
    ctx = checking.CheckContext.for_run(config, workload_name, runner="content")
    ctx.fail(
        "vector-walk-equivalence",
        "vectorized content walk diverged from sequential walk: "
        + "; ".join(problems),
        ref_index=ref_index if ref_index is not None else max(
            vector.num_accesses, sequential.num_accesses, 1) - 1,
    )
