"""Shared codec front: code descriptors, decode results, the ErasureCodec
base class of every family, and the xor codec.

All families present the same systematic wire format. Packet indices are
1-based: 1..k are the source packets sent verbatim, k+j is parity packet j.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import gf2

FAMILIES = ("mds", "fountain", "polar")


@dataclass(frozen=True)
class CodeSpec:
    """Family-tagged code parameters."""

    family: str
    n: int
    k: int
    seed: int | None = None
    epsilon: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.k < 1 or self.n < self.k:
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")


@dataclass(frozen=True)
class DecodeResult:
    """Recovered source packets plus the indices that stay missing."""

    recovered: dict[int, bytes]
    unrecoverable: frozenset[int]


def normalize_received(received, limit: int) -> dict[int, bytes]:
    """Validate (index, packet) input, indices in 1..limit, and return it as
    a dict."""
    if isinstance(received, Mapping):
        pairs = list(received.items())
    else:
        pairs = list(received)
    out: dict[int, bytes] = {}
    size = None
    for idx, pkt in pairs:
        if not 1 <= idx <= limit:
            raise ValueError(f"packet index {idx} out of range")
        if idx in out:
            raise ValueError(f"duplicate packet index {idx}")
        if size is None:
            size = len(pkt)
        elif len(pkt) != size:
            raise ValueError("received packets must have equal length")
        out[idx] = bytes(pkt)
    return out


class ErasureCodec:
    """Systematic codec for one fixed block of n packets: k sources and
    parity_limit = n - k parity packets. The base class owns the checks and
    the split into sources and parity of every operation; families supply
    only `_parity` for `encode`, `_solve` for `decode`, `_unsolved` for
    `unrecovered_sources` and `_unsolved_totals` for `unrecovered_totals`.

    `spec` describes the codec so that `build_codec(c.spec)` rebuilds its
    parity columns, or it raises ValueError and says why."""

    def __init__(self, n: int, k: int):
        if not 1 <= k <= n:
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
        self.n = n
        self.k = k
        self.parity_limit = n - k
        self._sources = frozenset(range(1, k + 1))

    def _check_parity_index(self, j: int) -> None:
        if not 1 <= j <= self.parity_limit:
            raise ValueError(f"parity index {j} out of range")

    def encode(self, source: Sequence[bytes], p: int) -> list[bytes]:
        """Parity packets 1..p for k equal-length source packets."""
        if len(source) != self.k:
            raise ValueError(f"expected {self.k} source packets, got {len(source)}")
        if not 0 <= p <= self.parity_limit:
            raise ValueError(f"parity count {p} out of range")
        size = len(source[0])
        if any(len(s) != size for s in source):
            raise ValueError("source packets must have equal length")
        return self._parity(source, p, size)

    def decode(self, received) -> DecodeResult:
        """Recover source packets from (index, packet) pairs, a mapping or an
        iterable. Received sources pass through; the family's solve recovers
        what it can of the rest from the received parity."""
        k = self.k
        packets = normalize_received(received, self.n)
        recovered = {i: pkt for i, pkt in sorted(packets.items()) if i <= k}
        have = 0
        for i in recovered:
            have |= 1 << (i - 1)
        missing = ~have & ((1 << k) - 1)
        if not missing:
            return DecodeResult(recovered=recovered, unrecoverable=frozenset())
        parity = {i - k: packets[i] for i in sorted(packets) if i > k}
        missing = self._solve(recovered, missing, parity)
        return DecodeResult(recovered=dict(sorted(recovered.items())),
                            unrecoverable=frozenset(gf2.ones(missing)))

    def _parity(self, source: Sequence[bytes], p: int, size: int) -> list[bytes]:
        """Parity packets 1..p of checked source packets of `size` bytes."""
        raise NotImplementedError

    def _solve(self, recovered: dict[int, bytes], missing: int,
               parity: dict[int, bytes]) -> int:
        """Add the sources it recovers to `recovered` and return the mask of
        those still missing. `missing` has bit t-1 set for each lost source t;
        `parity` maps parity index j to its packet, in index order."""
        raise NotImplementedError

    def _unsolved(self, missing: frozenset[int], parity: list[int]) -> frozenset[int]:
        """Which of the lost sources `missing`, not empty, the checked parity
        indices `parity` leave unrecovered."""
        raise NotImplementedError

    def _unsolved_totals(self, lost: np.ndarray, dropped: np.ndarray, p: int,
                         weights: np.ndarray) -> list[int]:
        """unrecovered_totals for p = n - k, with each mask split into its
        source word `lost` and its parity word `dropped`."""
        raise NotImplementedError

    def unrecovered_sources(self, received_indices: Iterable[int]) -> frozenset[int]:
        """Like decode, on indices alone: which source packets stay missing.
        Indices below 1 are ignored; an index past n raises while a source is
        missing."""
        received = set(received_indices)
        missing = self._sources.difference(received)
        if not missing:
            return missing
        k = self.k
        # set differences, not a loop over every index: multicast asks once per round
        parity = [i - k for i in received.difference(self._sources) if i > k]
        if parity:
            self._check_parity_index(max(parity))
        return self._unsolved(missing, parity)

    def unrecovered_totals(self, erased: np.ndarray, n: int, weights: np.ndarray) -> list[int]:
        """Entry j, for j = 0..n-k: the sum over the uint64 erasure masks of a
        block of n packets (bit t set: packet t+1 lost) of the mask's weight
        times how many source packets stay missing when only the first k+j
        packets were sent; that count is unrecovered_sources over the packets
        of the first k+j that the mask leaves received."""
        k = self.k
        if n != k:  # n < k raises too
            self._check_parity_index(n - k)
        return self._unsolved_totals(erased & np.uint64((1 << k) - 1), erased >> np.uint64(k),
                                     n - k, weights)


class ExplicitXorCodec(ErasureCodec):
    """Systematic binary codec over a fixed tuple of parity column masks;
    parity j xors the source packets selected by the k-bit column masks[j-1]
    (bit t-1 stands for source packet t)."""

    def __init__(self, k: int, masks: Sequence[int]):
        super().__init__(k + len(masks), k)
        self.masks = tuple(m & ((1 << k) - 1) for m in masks)

    @property
    def spec(self) -> CodeSpec:
        raise ValueError("an explicit column list belongs to no family, so it has no CodeSpec")

    def parity_mask(self, j: int) -> int:
        self._check_parity_index(j)
        return self.masks[j - 1]

    def _parity(self, source: Sequence[bytes], p: int, size: int) -> list[bytes]:
        ints = [int.from_bytes(s, "little") for s in source]
        return [gf2.xor_rows(col, ints).to_bytes(size, "little") for col in self.masks[:p]]

    def _solve(self, recovered: dict[int, bytes], missing: int,
               parity: dict[int, bytes]) -> int:
        """Gaussian elimination over the received parity equations with the
        missing sources as the unknowns, in the codec's own bit positions as
        in _unsolved. Equation e is its column plus the selection bit k + e,
        so the bits of a unit row outside `missing` are a plan: the received
        sources its columns cover and the received parities it sums."""
        k = self.k
        js = list(parity)
        masks = self.masks
        rows = gf2.reduce_augmented([masks[j - 1] | 1 << (k + e) for e, j in enumerate(js)],
                                    missing)
        plans = [(unit, r ^ unit) for r in rows if (unit := r & missing).bit_count() == 1]
        if not plans:
            return missing
        size = len(parity[js[0]])
        n = k + len(js)
        zero = bytes(size)
        packets = np.frombuffer(b"".join([recovered.get(i, zero) for i in range(1, k + 1)]
                                         + [parity[j] for j in js]),
                                dtype=np.uint8).reshape(n, size)
        width = (n + 7) // 8
        # row t of packets and of a plan's selection: source t+1 for t < k
        # (zeros where lost), then parity js[t-k]
        picks = b"".join(pick.to_bytes(width, "little") for _, pick in plans)
        picks = np.unpackbits(np.frombuffer(picks, dtype=np.uint8).reshape(len(plans), width),
                              axis=1, count=n, bitorder="little").view(bool)
        for (unit, _), pick in zip(plans, picks):
            recovered[unit.bit_length()] = np.bitwise_xor.reduce(packets[pick]).tobytes()
            missing ^= unit
        return missing

    def _unsolved(self, missing: frozenset[int], parity: list[int]) -> frozenset[int]:
        m = 0
        for i in missing:
            m |= 1 << (i - 1)
        masks = self.masks
        # rows keep the codec's own bit positions; a weight-1 basis row pins its source
        for row in gf2.reduce_echelon([masks[j - 1] & m for j in parity]):
            if row.bit_count() == 1:
                m ^= row
        return frozenset(gf2.ones(m))

    def _unsolved_totals(self, lost: np.ndarray, dropped: np.ndarray, p: int,
                         weights: np.ndarray) -> list[int]:
        # a lost parity packet drops its equation
        return gf2.unsolved_totals(self.masks[:p], lost, dropped, weights)


def build_codec(spec: CodeSpec):
    """Construct the codec described by a CodeSpec; the one place that maps
    a family name to its constructor."""
    if spec.family == "mds":
        from .gf256 import build_mds

        return build_mds(spec.n, spec.k)
    if spec.family == "fountain":
        from .fountain import FountainCode

        if spec.seed is None:
            raise ValueError("fountain codes require a seed")
        return FountainCode(spec.k, spec.seed, n=spec.n)
    if spec.family == "polar":
        from .polar import polar_for_parity

        epsilon = spec.epsilon if spec.epsilon is not None else 0.05
        return polar_for_parity(spec.k, spec.n - spec.k, epsilon)
    raise ValueError(f"unknown family {spec.family!r}")
