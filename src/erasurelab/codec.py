"""Shared codec front: code descriptors, decode results, the ErasureCodec
base class of every family, and the xor codecs.

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


def normalize_received(received, limit: int | None) -> dict[int, bytes]:
    """Validate (index, packet) input and return it as a dict."""
    if isinstance(received, Mapping):
        pairs = list(received.items())
    else:
        pairs = list(received)
    out: dict[int, bytes] = {}
    size = None
    for idx, pkt in pairs:
        if idx < 1 or (limit is not None and idx > limit):
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
    """Systematic codec over the shared wire format. Families supply only
    `_parity`, which computes parity packets, `_solve`, which recovers lost
    sources from received parity, `unrecovered_sources` and its batch count
    `unrecovered_totals`."""

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("need at least one source packet")
        self.k = k

    @property
    def parity_limit(self) -> int | None:
        return None

    def _check_parity_index(self, j: int) -> None:
        limit = self.parity_limit
        if j < 1 or (limit is not None and j > limit):
            raise ValueError(f"parity index {j} out of range")

    def encode(self, source: Sequence[bytes], p: int) -> list[bytes]:
        """Parity packets 1..p for k equal-length source packets."""
        if len(source) != self.k:
            raise ValueError(f"expected {self.k} source packets, got {len(source)}")
        limit = self.parity_limit
        if p < 0 or (limit is not None and p > limit):
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
        limit = self.parity_limit
        packets = normalize_received(received, None if limit is None else k + limit)
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

    def unrecovered_sources(self, received_indices: Iterable[int]) -> frozenset[int]:
        """Like decode, on indices alone: which source packets stay missing."""
        raise NotImplementedError

    def unrecovered_totals(self, erased: np.ndarray, n: int, weights: np.ndarray) -> list[int]:
        """Entry j, for j = 0..n-k: the sum over the uint64 erasure masks of a
        block of n packets (bit t set: packet t+1 lost) of the mask's weight
        times how many source packets stay missing when only the first k+j
        packets were sent; that count is unrecovered_sources over the packets
        of the first k+j that the mask leaves received."""
        raise NotImplementedError


class SystematicXorCodec(ErasureCodec):
    """Systematic binary codec; parity j xors the source packets selected by
    a k-bit column mask (bit t-1 stands for source packet t)."""

    def parity_mask(self, j: int) -> int:
        raise NotImplementedError

    def _parity(self, source: Sequence[bytes], p: int, size: int) -> list[bytes]:
        ints = [int.from_bytes(s, "little") for s in source]
        return [gf2.xor_rows(col, ints).to_bytes(size, "little")
                for col in self._parity_columns(list(range(1, p + 1)))]

    def _solve(self, recovered: dict[int, bytes], missing: int,
               parity: dict[int, bytes]) -> int:
        """Gaussian elimination over the parity equations restricted to the
        missing source packets, in the codec's own bit positions as in
        unrecovered_sources. Equation e carries the right-hand side 1 << e, so
        a unit row is a plan: the xor of the received parities in its mask and
        of the received sources their columns cover."""
        k = self.k
        js = list(parity)
        cols = self._parity_columns(js)
        plans = [(coeffs, rhs) for coeffs, rhs in
                 gf2.reduce_augmented([(col & missing, 1 << e) for e, col in enumerate(cols)])
                 if coeffs.bit_count() == 1]
        if not plans:
            return missing
        size = len(parity[js[0]])
        n = k + len(js)
        zero = bytes(size)
        packets = np.frombuffer(b"".join([recovered.get(i, zero) for i in range(1, k + 1)]
                                         + [parity[j] for j in js]),
                                dtype=np.uint8).reshape(n, size)
        have = ~missing & ((1 << k) - 1)
        width = (n + 7) // 8
        # row t of packets and of a plan's selection: source t+1 for t < k
        # (zeros where lost), then parity js[t-k]
        picks = b"".join(((rhs << k) | (gf2.xor_rows(rhs, cols) & have)).to_bytes(width, "little")
                         for _, rhs in plans)
        picks = np.unpackbits(np.frombuffer(picks, dtype=np.uint8).reshape(len(plans), width),
                              axis=1, count=n, bitorder="little").view(bool)
        for (coeffs, _), pick in zip(plans, picks):
            recovered[coeffs.bit_length()] = np.bitwise_xor.reduce(packets[pick]).tobytes()
            missing ^= coeffs
        return missing

    def _parity_columns(self, js: list[int]) -> list[int]:
        """Column masks of parity packets js, each at least 1."""
        return [self.parity_mask(j) for j in js]

    def unrecovered_sources(self, received_indices: Iterable[int]) -> frozenset[int]:
        """Like decode, on indices alone: which source packets stay missing.
        Indices below 1 are ignored."""
        k = self.k
        have = 0
        parity = []
        for i in set(received_indices):
            if i > k:
                parity.append(i - k)
            elif i >= 1:
                have |= 1 << (i - 1)
        missing = ~have & ((1 << k) - 1)
        if not missing:
            return frozenset()
        # rows keep the codec's own bit positions; a weight-1 basis row pins its source
        for row in gf2.reduce_echelon([c & missing for c in self._parity_columns(parity)]):
            if row.bit_count() == 1:
                missing ^= row
        return frozenset(gf2.ones(missing))

    def unrecovered_totals(self, erased: np.ndarray, n: int, weights: np.ndarray) -> list[int]:
        k = self.k
        columns = self._parity_columns(list(range(1, n - k + 1)))
        # a lost parity packet drops its equation: bit j-1 of erased >> k
        return gf2.unsolved_totals(columns, erased & np.uint64((1 << k) - 1),
                                   erased >> np.uint64(k), weights)


class ExplicitXorCodec(SystematicXorCodec):
    """Xor codec with a fixed, explicit list of parity column masks."""

    def __init__(self, k: int, masks: Sequence[int]):
        super().__init__(k)
        self.masks = tuple(m & ((1 << k) - 1) for m in masks)

    @property
    def spec(self) -> CodeSpec:
        return CodeSpec(family="fountain", n=self.k + len(self.masks), k=self.k)

    @property
    def parity_limit(self) -> int | None:
        return len(self.masks)

    def parity_mask(self, j: int) -> int:
        self._check_parity_index(j)
        return self.masks[j - 1]

    def _parity_columns(self, js: list[int]) -> list[int]:
        if js:
            self._check_parity_index(max(js))
        masks = self.masks
        return [masks[j - 1] for j in js]


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
