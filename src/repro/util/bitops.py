"""Bit-level helpers used by the prediction table, hashes and caches.

Everything here operates on plain Python integers (arbitrary precision) or on
NumPy ``uint64`` arrays.  The module itself does not import NumPy: the
configuration layer validates power-of-two geometry through it, and that
layer must stay importable without NumPy (see DESIGN.md, "Start-up and
import layering").
"""

from __future__ import annotations

__all__ = [
    "ilog2",
    "is_pow2",
    "mask",
    "bit_slice",
    "one_hot64",
    "popcount64_array",
    "interleave_bank",
]


def is_pow2(value: int) -> bool:
    """Return ``True`` iff ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def ilog2(value: int) -> int:
    """Integer log2 of a positive power of two.

    Raises
    ------
    ValueError
        If ``value`` is not a positive power of two.  Cache geometry in this
        package is always power-of-two sized, so a failure here indicates a
        configuration error rather than a numeric corner case.
    """
    if not is_pow2(value):
        raise ValueError(f"{value!r} is not a positive power of two")
    return value.bit_length() - 1


def mask(bits: int) -> int:
    """Return an integer with the low ``bits`` bits set."""
    if bits < 0:
        raise ValueError("bit count must be non-negative")
    return (1 << bits) - 1


def bit_slice(value: int, low: int, width: int) -> int:
    """Extract ``width`` bits of ``value`` starting at bit ``low``."""
    if low < 0 or width < 0:
        raise ValueError("low and width must be non-negative")
    return (value >> low) & mask(width)


def one_hot64(position: int) -> int:
    """A 64-bit one-hot value — models the 6-to-64 decoder of Figure 4."""
    if not 0 <= position < 64:
        raise ValueError(f"decoder input {position} outside [0, 64)")
    return 1 << position


def popcount64_array(words) -> int:
    """Total number of set bits across an array of ``uint64`` words.

    Used to report prediction-table occupancy.  Works on any integer dtype
    but is intended for the table's ``uint64`` line storage.
    """
    # One arbitrary-precision integer over the little-endian bytes has
    # exactly the array's set bits.
    data = words.astype("<u8", copy=False).tobytes()
    return int.from_bytes(data, "little").bit_count()


def interleave_bank(index: int, banks: int) -> int:
    """Low-order-interleaved bank id for a set/line index.

    Modern LLCs interleave consecutive sets across banks; the recalibration
    engine relies on this mapping to process one set per bank per cycle.
    """
    if not is_pow2(banks):
        raise ValueError("bank count must be a power of two")
    return index & (banks - 1)
