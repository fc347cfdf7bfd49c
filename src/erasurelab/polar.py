"""Systematic polar-style erasure code construction for the erasure channel.

Channel qualities come from the Bhattacharyya recursion on the binary erasure
channel. The k best synthetic channels carry the source packets; the columns
of the frozen (worst) channels, restricted to the information rows, form a
reservoir of parity packets ordered so that the most generally useful column
is transmitted first.
"""
from __future__ import annotations

from typing import Sequence

from . import gf2
from .codec import ExplicitXorCodec, check_block, check_finite

BLOCK_CAP = 1 << 16  # polar_for_parity takes at most this many packets, k + p


class ConstructionError(Exception):
    """The algebraic soundness check of the construction failed."""


def bhattacharyya(levels: int, epsilon: float) -> list[float]:
    """Per-channel Bhattacharyya parameters after `levels` polarization steps.

    Parameters
    ----------
    levels : number of recursion levels; produces 2**levels channels.
    epsilon : erasure probability of the underlying channel, in (0, 1).

    Returns
    -------
    List of length 2**levels; entry c-1 is the parameter of channel c.
    Each step replaces a value z by the adjacent pair (2z - z^2, z^2), so
    channel 1 is always the worst and channel 2**levels the best.
    """
    if levels < 1:
        raise ValueError("need at least one level")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    z = [epsilon]
    for _ in range(levels):
        z = [w for v in z for w in (2.0 * v - v * v, v * v)]
    return z


def quality_order(z: Sequence[float]) -> list[int]:
    """Channel indices sorted best first (smallest parameter first).

    Equal parameters are broken in favor of the higher channel index, which
    matters once extreme values round to the same float.
    """
    return sorted(range(1, len(z) + 1), key=lambda c: (z[c - 1], -c))


def channel_split(levels: int, k: int, epsilon: float) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split channels into the k information channels (decreasing quality)
    and the frozen remainder (increasing quality, worst first)."""
    n = 1 << levels
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < 2**levels, got k={k}, n={n}")
    order = quality_order(bhattacharyya(levels, epsilon))
    return tuple(order[:k]), tuple(reversed(order[k:]))


class PolarCodec(ExplicitXorCodec):
    """Systematic code for 2**levels channels and k source packets.

    The k best channels, info_channels, carry the source packets; mask j-1
    is the k-bit column of the parity packet for parity_channels[j-1], bit
    t-1 standing for source packet t on info_channels[t-1]. The column is
    already restricted to the information rows: the frozen rows carry no
    information, so their ones simply disappear from the mask.

    The k x k submatrix of the kernel power on the information channels is
    checked to be self-inverse; that is the algebraic fact that lets the
    information columns be replaced by the identity while the frozen-channel
    columns keep their kernel entries on the information rows. A failure
    raises ConstructionError rather than producing a quietly wrong code.
    """

    family = "polar"

    def __init__(self, levels: int, k: int, epsilon: float):
        info, frozen = channel_split(levels, k, epsilon)
        sub = [sum((1 << s) for s in range(k) if gf2.kernel_entry(info[t] - 1, info[s] - 1))
               for t in range(k)]
        if not all(gf2.xor_rows(row, sub) == 1 << t for t, row in enumerate(sub)):
            raise ConstructionError(
                f"information submatrix is not self-inverse for levels={levels}, "
                f"k={k}, epsilon={epsilon}")
        reservoir = [sum((1 << t) for t in range(k) if gf2.kernel_entry(info[t] - 1, ch - 1))
                     for ch in frozen]
        super().__init__(k, reservoir)
        self.epsilon = epsilon
        self.info_channels = info
        self.parity_channels = frozen

    def raw_degrees(self) -> list[int]:
        """Ones per reservoir column counted over the full kernel power:
        column c has a one in each row whose bits contain c's, 2**(levels -
        popcount c) of them."""
        return [self.n >> (ch - 1).bit_count() for ch in self.parity_channels]

    def effective_degrees(self) -> list[int]:
        """Ones per reservoir column after the frozen rows are dropped."""
        return [mask.bit_count() for mask in self.masks]

    def __repr__(self) -> str:
        return f"PolarCodec(n={self.n}, k={self.k}, epsilon={self.epsilon})"


def polar_for_parity(k: int, p: int, epsilon: float) -> PolarCodec:
    """Codec sized for k source plus p parity packets.

    Uses the smallest power-of-two block that fits k+p packets; the extra
    reservoir columns beyond p exist at no cost and stay available for
    incremental repair.
    """
    k, p = check_finite("k and p", k, p)  # before k + p, which may overflow
    check_block(k + p, k)
    if k + p > BLOCK_CAP:
        raise ValueError(f"k+p={k + p} exceeds the block cap {BLOCK_CAP}")
    levels = int(max(k + p - 1, k)).bit_length()  # the smallest 2**levels > k that holds k + p
    return PolarCodec(levels, k, epsilon)
