"""Counter-based deterministic random words shared by codecs and simulators.

Every consumer derives an independent stream from (seed, stream id) and reads
words by counter, so results never depend on evaluation order or on how work
is split across workers.
"""
from __future__ import annotations

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF
MAX_PACKETS = 64  # packets per simulated block: one uint64 erasure mask each

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# stream ids, one per independent consumer of a user-facing seed
STREAM_FOUNTAIN = 1
STREAM_RECEIVER = 2
STREAM_BENCH = 3


def mix64(z: int) -> int:
    """Finalizing 64-bit mix (splitmix64 output function)."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def word(base: int, counter: int) -> int:
    """Word `counter` of the stream rooted at `base`."""
    return mix64((base + (counter + 1) * _GOLDEN) & MASK64)


def substream(seed: int, stream_id: int) -> int:
    """Base of an independent stream derived from a user seed in [0, 2**64)."""
    if not 0 <= seed <= MASK64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return word(seed, stream_id)


def bits(base: int, count: int) -> int:
    """`count` pseudo-random bits as an int, low bit first."""
    out = 0
    words_needed = (count + 63) // 64
    for t in range(words_needed):
        out |= word(base, t) << (64 * t)
    return out & ((1 << count) - 1)


def _mix64_np(z: np.ndarray) -> np.ndarray:
    # wrapping uint64 arithmetic matches the scalar path exactly
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def erasure_mask(seed: int, receiver: int, packets: int, p_e: float) -> int:
    """Erasure pattern of one receiver; bit t set means packet t+1 was lost."""
    base = word(substream(seed, STREAM_RECEIVER), receiver)
    threshold = int(p_e * 2.0**64)
    mask = 0
    for t in range(packets):
        if word(base, t) < threshold:
            mask |= 1 << t
    return mask


def erasure_masks(seed: int, first: int, count: int, packets: int, p_e: float) -> np.ndarray:
    """Erasure patterns of receivers first..first+count-1, bit-identical to
    `erasure_mask` applied one receiver at a time."""
    if packets > MAX_PACKETS:
        raise ValueError(f"at most {MAX_PACKETS} packets per simulated block")
    threshold = int(p_e * 2.0**64)
    root = substream(seed, STREAM_RECEIVER)
    with np.errstate(over="ignore"):
        r = np.arange(first, first + count, dtype=np.uint64)
        base = _mix64_np(np.uint64(root) + (r + np.uint64(1)) * np.uint64(_GOLDEN))
        masks = np.zeros(count, dtype=np.uint64)
        if threshold >= 2**64:
            return masks | np.uint64((1 << packets) - 1)
        thr = np.uint64(threshold)
        for t in range(packets):
            w = _mix64_np(base + np.uint64(((t + 1) * _GOLDEN) & MASK64))
            masks |= (w < thr).astype(np.uint64) << np.uint64(t)
    return masks
