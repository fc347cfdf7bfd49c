"""Counter-based deterministic random words shared by codecs and simulators.

Every consumer derives an independent stream from (seed, stream id) and reads
words by counter, so results never depend on evaluation order or on how work
is split across workers.

Erasure masks are the hot path of the Monte-Carlo loss rate. Bit t of
receiver r's mask is set when word t of the stream rooted at word r of the
receiver stream lies below p_e * 2**64, so it depends on (seed, r, t) alone:
`erasure_masks` draws them in pieces of _PIECE receivers, mixes each
packet's words in place in scratch buffers that fit the core's cache and
folds its loss bits into byte accumulators, and no piece size changes a bit.
"""
from __future__ import annotations

import operator

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF
MAX_PACKETS = 64  # packets per simulated block: one uint64 erasure mask each
# receivers per erasure_masks piece: its scratch buffers and its slice of the
# output take at most 1.3 MiB, inside one core's 2 MiB L2 cache
_PIECE = 1 << 15

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
    return word(operator.index(seed), stream_id)  # a numpy int would overflow the wrap


def bits(base: int, count: int) -> int:
    """`count` pseudo-random bits as an int, low bit first."""
    out = 0
    words_needed = (count + 63) // 64
    for t in range(words_needed):
        out |= word(base, t) << (64 * t)
    return out & ((1 << count) - 1)


def _mix64_into(z: np.ndarray, tmp: np.ndarray) -> None:
    """mix64 of every word of z, in place; tmp is scratch of z's size.
    Wrapping uint64 arithmetic matches the scalar path exactly."""
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, np.uint64(shift), out=tmp)
        np.bitwise_xor(z, tmp, out=z)
        np.multiply(z, np.uint64(mult), out=z)
    np.right_shift(z, np.uint64(31), out=tmp)
    np.bitwise_xor(z, tmp, out=z)


def check_packets(packets: int) -> None:
    """Reject a block that does not fit one erasure mask word."""
    if not 0 <= packets <= MAX_PACKETS:
        raise ValueError(f"at most {MAX_PACKETS} packets per simulated block, got {packets}")


def check_probability(p_e: float) -> float:
    """Reject an erasure probability outside [0, 1]; return it as check_finite does."""
    if not 0.0 <= p_e <= 1.0:
        raise ValueError(f"erasure probability must be in [0, 1], got {p_e}")
    return p_e.item() if isinstance(p_e, np.generic) else p_e


def erasure_masks(seed: int, first: int, count: int, packets: int, p_e: float) -> np.ndarray:
    """Erasure patterns of receivers first..first+count-1; bit t set means
    packet t+1 was lost.

    Receivers are drawn in pieces of _PIECE, each packet's words mixed in
    place in scratch buffers that stay in cache. Its loss bits go into a bool
    row, folded from the highest packet down into a uint8 row per 8 packets
    (double, then or), and those rows are widened into the output once per
    piece. The buffers belong to the call, so threads may call this at once.
    Every word is still mix64 of its own counter, so the split changes no bit.
    """
    check_probability(p_e)
    first, count = operator.index(first), operator.index(count)  # numpy ints overflow below
    if first < 0 or count < 0 or first + count > 2**64:
        raise ValueError(f"receivers must lie in [0, 2**64), got first={first}, count={count}")
    check_packets(packets)
    threshold = int(p_e * 2.0**64)
    masks = np.zeros(count, dtype=np.uint64)
    if threshold == 0:  # no word lies below 0
        return masks
    if threshold >= 2**64:
        masks[:] = (1 << packets) - 1
        return masks
    thr = np.uint64(threshold)
    root = substream(seed, STREAM_RECEIVER)
    size = min(_PIECE, count)
    with np.errstate(over="ignore"):
        # receiver first+lo+i's base counter is that of first+lo plus i steps
        steps = np.arange(size, dtype=np.uint64) * np.uint64(_GOLDEN)
    base, z, tmp = (np.empty(size, dtype=np.uint64) for _ in range(3))
    lost = np.empty(size, dtype=bool)
    acc = np.empty(((packets + 7) // 8, size), dtype=np.uint8)
    for lo in range(0, count, _PIECE):
        m = min(_PIECE, count - lo)
        if m < size:  # the last piece is shorter
            steps, base, z, tmp, lost, acc = steps[:m], base[:m], z[:m], tmp[:m], lost[:m], acc[:, :m]
        out = masks[lo:lo + m]
        np.add(steps, np.uint64((root + (first + lo + 1) * _GOLDEN) & MASK64), out=base)
        _mix64_into(base, tmp)
        acc.fill(0)
        for t in reversed(range(packets)):
            np.add(base, np.uint64(((t + 1) * _GOLDEN) & MASK64), out=z)
            _mix64_into(z, tmp)
            np.less(z, thr, out=lost)
            byte = acc[t // 8]  # bit t % 8 of it once the lower packets are folded in
            np.add(byte, byte, out=byte)
            np.bitwise_or(byte, lost.view(np.uint8), out=byte)
        for b, byte in enumerate(acc):
            np.bitwise_or(out, np.left_shift(byte, np.uint64(8 * b), out=tmp), out=out)
    return masks
