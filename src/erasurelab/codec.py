"""Shared codec front: decode results, the ErasureCodec base class of every
family, the xor codec and build_codec, which maps a family name to its
constructor.

All families present the same systematic wire format. Packet indices are
1-based: 1..k are the source packets sent verbatim, k+j is parity packet j.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import gf2, rng

FAMILIES = ("mds", "fountain", "polar")
BLOCK_CAP = 1 << 16  # the xor families take blocks of at most this many packets


@dataclass(frozen=True)
class DecodeResult:
    """Recovered source packets plus the indices that stay missing."""

    recovered: dict[int, bytes]
    unrecoverable: frozenset[int]


class ErasureCodec:
    """Systematic codec for one fixed block of n packets: k sources and
    parity_limit = n - k parity packets. The base class owns the checks, the
    split into sources and parity of every operation, both packet blocks and
    encode's encoder cache; families supply one hook per operation:
    `_parity_encoder(p, size)` for `encode`, `_solve(block, missing, js)` for
    `decode`, `_unsolved` for `unrecovered_sources`, `_unsolved_totals` for
    `unrecovered_totals` and `_recovery_rows` for `recovery_rows`. MDS
    answers `_recovery_rows` in closed form; the xor codecs ask
    `unrecovered_sources` once per round whose parity column brings a lost
    set a new equation.

    A packet block is a read-only (rows, size) uint8 array: row t-1 is source
    t, and the last row is zeros. Encode's block is the k sources and that
    row. Decode's has zeros where a source is lost, then the received parity
    packets js in index order, then the row of zeros. The encoder and
    `_solve` return rows, which the base class turns into bytes. Encode
    keeps the encoder of its last (p, size), built on the first encode of
    that shape: the planner builds codecs that never encode.

    `family` names the family whose constructor build_codec maps it to, or is
    None for a codec that belongs to no family."""

    family: str | None = None

    def __init__(self, n: int, k: int):
        self.n, self.k = check_block(n, k)
        self.parity_limit = self.n - self.k
        self._sources = frozenset(range(1, self.k + 1))
        self._encoder: tuple = (None, None, None)  # (p, size, _parity_encoder) of the last encode

    def _check_parity_index(self, j: int) -> None:
        if not 1 <= j <= self.parity_limit:
            raise ValueError(f"parity index {j} out of range")

    def encode(self, source: Sequence[bytes], p: int) -> list[bytes]:
        """Parity packets 1..p, p an integer, for k equal-length source packets."""
        if len(source) != self.k:
            raise ValueError(f"expected {self.k} source packets, got {len(source)}")
        if not 0 <= p <= self.parity_limit:
            raise ValueError(f"parity count {p} out of range")
        p = operator.index(p)
        if len(set(map(len, source))) > 1:
            raise ValueError("source packets must have equal length")
        size = len(source[0])
        cached = self._encoder  # read once: another thread may replace it
        if cached[0] != p or cached[1] != size:
            cached = self._encoder = (p, size, self._parity_encoder(p, size))
        block = _block([*source, bytes(size)], size)
        return [row.tobytes() for row in cached[2](block)]

    def decode(self, received) -> DecodeResult:
        """Recover source packets from (index, packet) pairs, a mapping or an
        iterable, read in one pass. Received sources pass through; the
        family's solve recovers what it can of the rest from the received
        parity."""
        k, n = self.k, self.n
        slots: list = [None] * n  # packet i at i-1 as bytes, None until it arrives
        size = None
        for idx, pkt in received.items() if isinstance(received, Mapping) else received:
            if not 1 <= idx <= n:
                raise ValueError(f"packet index {idx} out of range")
            i = operator.index(idx) - 1
            if slots[i] is not None:
                raise ValueError(f"duplicate packet index {idx}")
            if len(pkt) != size:
                if size is not None:
                    raise ValueError("received packets must have equal length")
                size = len(pkt)
            slots[i] = pkt if type(pkt) is bytes else bytes(pkt)
        sources = slots[:k]
        js = [j for j, pkt in enumerate(slots[k:], 1) if pkt is not None]
        if js and None in sources:
            zero = bytes(size)
            block = _block([zero if s is None else s for s in sources]
                           + [slots[k + j - 1] for j in js] + [zero], size)
            missing = gf2.pack(i for i, s in enumerate(sources, 1) if s is None)
            for i, row in self._solve(block, missing, js).items():
                sources[i - 1] = row.tobytes()
        recovered = {i: s for i, s in enumerate(sources, 1) if s is not None}
        return DecodeResult(recovered=recovered,
                            unrecoverable=self._sources.difference(recovered))

    def _parity_encoder(self, p: int, size: int) -> Callable[[np.ndarray], Iterable[np.ndarray]]:
        """The function from encode's (k + 1, size) block to parity rows
        1..p, with the family's kernel tables built once, here."""
        raise NotImplementedError

    def _solve(self, block: np.ndarray, missing: int, js: list[int]) -> dict[int, np.ndarray]:
        """The lost sources it recovers, as {source index: row}, from decode's
        (k + len(js) + 1, size) block; js is not empty. `missing`, not zero,
        has bit t-1 set for each lost source t."""
        raise NotImplementedError

    def _unsolved(self, missing: frozenset[int], parity: list[int]) -> frozenset[int]:
        """Which of the lost sources `missing`, not empty, the checked parity
        indices `parity` leave unrecovered."""
        raise NotImplementedError

    def _unsolved_totals(self, lost: np.ndarray, dropped: np.ndarray, p: int,
                         weights: np.ndarray) -> list[int]:
        """unrecovered_totals for p = n - k, with each mask split into its
        source word `lost`, zero for a mask that loses no source, and its
        parity word `dropped`."""
        raise NotImplementedError

    def unrecovered_sources(self, received_indices: Iterable[int]) -> frozenset[int]:
        """Like decode, on indices alone: which source packets stay missing.
        Indices below 1 are ignored. While a source is missing, each index
        past k must be an integer (operator.index) and one past n raises."""
        received = set(received_indices)
        missing = self._sources.difference(received)
        if not missing:
            return missing
        k = self.k
        # set differences, not a loop over every index: multicast asks once per round
        parity = [operator.index(i) - k for i in received.difference(self._sources) if i > k]
        if parity:
            self._check_parity_index(max(parity))
        return self._unsolved(missing, parity)

    def recovery_rows(self, lost: Sequence[frozenset], rounds: int) -> tuple[tuple[int, ...], ...]:
        """Row i, entry t for t = 0..rounds: how many sources of the set
        lost[i] are recovered once every other source and parity packets
        1..t have arrived. A set with an index outside the sources 1..k raises."""
        if rounds < 0:
            raise ValueError(f"rounds must be at least 0, got {rounds}")
        if rounds > self.parity_limit:
            raise ValueError(f"rounds {rounds} exceed the parity limit {self.parity_limit}")
        for pattern in lost:
            if not self._sources.issuperset(map(operator.index, pattern)):
                raise ValueError(f"lost set {sorted(pattern)} holds an index outside 1..{self.k}")
        return self._recovery_rows(lost, rounds)

    def _recovery_rows(self, lost: Sequence[frozenset], rounds: int) -> tuple[tuple[int, ...], ...]:
        """recovery_rows for checked rounds and lost sets within the sources."""
        raise NotImplementedError

    def unrecovered_totals(self, erased: np.ndarray, n: int, weights: np.ndarray) -> list[int]:
        """Entry j, for j = 0..n-k: the sum over the uint64 erasure masks of a
        block of n packets (bit t set: packet t+1 lost) of the mask's weight
        times how many source packets stay missing when only the first k+j
        packets were sent; that count is unrecovered_sources over the packets
        of the first k+j that the mask leaves received. n is an integer
        (operator.index) from k to the codec's n, and at most 64
        (rng.check_packets): each mask is one uint64 word."""
        rng.check_packets(n)
        n, k = operator.index(n), self.k
        if not k <= n <= self.n:
            raise ValueError(f"parity index {n - k} out of range")
        return self._unsolved_totals(erased & np.uint64((1 << k) - 1), erased >> np.uint64(k),
                                     n - k, weights)


class ExplicitXorCodec(ErasureCodec):
    """Systematic binary codec over a fixed tuple of parity column masks;
    parity j xors the source packets selected by the k-bit column masks[j-1]
    (bit t-1 stands for source packet t)."""

    def __init__(self, k: int, masks: Sequence[int]):
        super().__init__(k + len(masks), k)
        self.masks = tuple(m & ((1 << self.k) - 1) for m in masks)

    def parity_mask(self, j: int) -> int:
        self._check_parity_index(j)
        return self.masks[j - 1]

    def _parity_encoder(self, p: int, size: int) -> Callable[[np.ndarray], list[np.ndarray]]:
        tables = gf2.xor_tables(self.masks[:p], self.k, size)
        # the block's last row is zeros, the row xor_tables pads with
        return lambda block: gf2.xor_apply(block, tables)

    def _solve(self, block: np.ndarray, missing: int, js: list[int]) -> dict[int, np.ndarray]:
        """Gaussian elimination over the received parity equations with the
        missing sources as the unknowns, in the codec's own bit positions as
        in _unsolved. Equation e is its column plus the selection bit k + e,
        so the bits of a unit row outside `missing` are a plan: the rows of
        `block` to xor, the received sources its columns cover and the
        received parities it sums. All plans go through one gf2.xor_apply,
        padded with the block's last row, which is zeros."""
        k = self.k
        masks = self.masks
        rows = gf2.reduce_augmented([masks[j - 1] | 1 << (k + e) for e, j in enumerate(js)],
                                    missing)
        plans = {unit.bit_length(): r ^ unit
                 for r in rows if (unit := r & missing).bit_count() == 1}
        tables = gf2.xor_tables(list(plans.values()), len(block) - 1, block.shape[1])
        return dict(zip(plans, gf2.xor_apply(block, tables)))

    def _unsolved(self, missing: frozenset[int], parity: list[int]) -> frozenset[int]:
        m = gf2.pack(missing)
        masks = self.masks
        pinned = 0
        # rows keep the codec's own bit positions; a weight-1 basis row pins its source
        for row in gf2.reduce_echelon([masks[j - 1] & m for j in parity]):
            if row.bit_count() == 1:
                pinned |= row
        return missing.difference(gf2.ones(pinned))

    def _recovery_rows(self, lost: Sequence[frozenset], rounds: int) -> tuple[tuple[int, ...], ...]:
        """One oracle call per round that brings the set a new equation, until
        the set is recovered whole. A column that, cut down to the lost
        sources, is zero or repeats one already sent leaves their span, and
        with it the count, as it was."""
        masks = self.masks
        parity = list(range(self.k + 1, self.k + rounds + 1))
        rows = []
        for pattern in lost:
            size = len(pattern)
            m = gf2.pack(pattern)
            survivors = list(self._sources - pattern)
            sent = {0}  # the restricted columns so far; zero is no equation
            row = [0]  # round 0 brings no parity, so it repairs nothing
            for t in range(1, rounds + 1):
                if row[-1] == size:  # recovered whole: the rest of the row is its size
                    break
                column = masks[t - 1] & m
                if column in sent:
                    row.append(row[-1])
                else:
                    sent.add(column)
                    row.append(size - len(self.unrecovered_sources(survivors + parity[:t])))
            rows.append(tuple(row) + (size,) * (rounds + 1 - len(row)))
        return tuple(rows)

    def _unsolved_totals(self, lost: np.ndarray, dropped: np.ndarray, p: int,
                         weights: np.ndarray) -> list[int]:
        # a lost parity packet drops its equation
        return gf2.unsolved_totals(self.masks[:p], lost, dropped, weights)


def _block(rows: list, size: int) -> np.ndarray:
    """The read-only (len(rows), size) uint8 array of packets of `size` bytes."""
    # shapes stay explicit: reshape cannot infer a -1 axis from 0-byte packets
    return np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(len(rows), size)


def check_finite(what: str, *values) -> tuple:
    """The one finite-number rule: reject a NaN, an infinity or an int past the
    float range; return the values with numpy numbers made Python ones."""
    try:
        finite = all(map(math.isfinite, values))
    except OverflowError:  # what math.isfinite raises on an int past the float range
        finite = False
    if not finite:
        raise ValueError(f"{what} must be finite")
    return tuple(v.item() if isinstance(v, np.generic) else v for v in values)


def check_block(n: int, k: int) -> tuple[int, int]:
    """Reject a non-finite n or k or a k outside 1..n; return them as ints
    (operator.index), so a float raises TypeError."""
    n, k = check_finite("n and k", n, k)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return operator.index(n), operator.index(k)


def check_block_cap(what: str, n: int) -> None:
    """Reject an xor-family block of more than BLOCK_CAP packets, before any
    column is built."""
    if n > BLOCK_CAP:
        raise ValueError(f"{what}={n} exceeds the block cap {BLOCK_CAP}")


def check_code(family: str, n: int, k: int) -> tuple[int, int]:
    """Reject a family outside FAMILIES, then a bad block: build_codec's checks."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    return check_block(n, k)


def build_codec(family: str, n: int, k: int, *, seed: int | None = None,
                epsilon: float = 0.05):
    """Construct a codec of the family for k source packets in a block of n;
    the one place that maps a family name to its constructor. Fountain
    columns come from `seed`, the polar construction from `epsilon`; the
    other families ignore them."""
    n, k = check_code(family, n, k)
    if family == "mds":
        from .gf256 import build_mds

        return build_mds(n, k)
    if family == "fountain":
        from .fountain import FountainCode

        if seed is None:
            raise ValueError("fountain codes require a seed")
        return FountainCode(k, seed, n=n)
    from .polar import polar_for_parity

    return polar_for_parity(k, n - k, epsilon)
