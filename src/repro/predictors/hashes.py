"""Hash functions for presence predictors (§III-A, "Hash Function").

Two families from the paper:

``bits-hash``
    The lowest ``p`` bits of the block number.  Trivial hardware, and — the
    paper's key structural insight — because the cache set index is also
    the low ``k`` bits, any two blocks that collide in the predictor also
    collide in the same cache set whenever ``p > k``.  That bounds the
    number of resident blocks aliasing to one predictor entry by the cache
    associativity and makes one-bit entries workable.

``xor-hash``
    The block number folded into ``p`` bits by XORing successive ``p``-bit
    chunks.  Higher entropy (used by CBF designs such as [9]) but destroys
    the set-index/substring property, which is why it cannot support the
    cheap per-set recalibration of Figure 4.

Scalar versions are used in the reference replay loops; vectorized
versions serve the bulk replay kernels, the analysis utilities and tests.
"""

from __future__ import annotations

import numpy as np

from repro.util.bitops import mask
from repro.util.validation import ConfigError, check_range

__all__ = ["bits_hash", "xor_hash", "bits_hash_array", "xor_hash_array", "make_hash"]

#: Width of the block-number domain we fold over (48-bit physical addresses
#: minus the 6 offset bits leaves 42 tag+index bits, as §III-B notes).
BLOCK_NUMBER_BITS = 42


def bits_hash(block: int, p: int) -> int:
    """Low ``p`` bits of the block number."""
    return block & mask(p)


def xor_hash(block: int, p: int) -> int:
    """Fold the block number into ``p`` bits with XOR.

    Successive ``p``-bit chunks of the 42-bit block number are XORed
    together — the "xor different parts of the address" construction of
    §II.
    """
    check_range("p", p, 1, BLOCK_NUMBER_BITS)
    acc = 0
    remaining = block & mask(BLOCK_NUMBER_BITS)
    while remaining:
        acc ^= remaining & mask(p)
        remaining >>= p
    return acc


def bits_hash_array(blocks: np.ndarray, p: int) -> np.ndarray:
    """Vectorized :func:`bits_hash` over a ``uint64`` array."""
    return blocks & np.uint64(mask(p))


def xor_hash_array(blocks: np.ndarray, p: int) -> np.ndarray:
    """Vectorized :func:`xor_hash` over a ``uint64`` array."""
    check_range("p", p, 1, BLOCK_NUMBER_BITS)
    acc = np.zeros(blocks.shape, dtype=np.uint64)
    remaining = blocks & np.uint64(mask(BLOCK_NUMBER_BITS))
    m = np.uint64(mask(p))
    shift = np.uint64(p)
    while remaining.any():
        acc ^= remaining & m
        remaining = remaining >> shift
    return acc


def make_hash(kind: str, p: int):
    """Return a scalar hash callable ``block -> index`` for ``kind``.

    ``kind`` is ``"bits"`` or ``"xor"``; used by the hash-function ablation.
    """
    if kind == "bits":
        return lambda block: block & mask(p)
    if kind == "xor":
        return lambda block: xor_hash(block, p)
    raise ConfigError(f"unknown hash kind {kind!r} (expected 'bits' or 'xor')")
