"""Shared codec interface: code descriptors, decode results, xor codecs.

All families present the same systematic wire format. Packet indices are
1-based: 1..k are the source packets sent verbatim, k+j is parity packet j.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Protocol, Sequence, runtime_checkable

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


@runtime_checkable
class ErasureCodec(Protocol):
    k: int

    @property
    def parity_limit(self) -> int | None: ...

    def encode(self, source: Sequence[bytes], p: int) -> list[bytes]: ...

    def decode(self, received) -> DecodeResult: ...

    def unrecovered_sources(self, received_indices: Iterable[int]) -> frozenset[int]: ...


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


class SystematicXorCodec:
    """Systematic binary codec; parity j xors the source packets selected by
    a k-bit column mask (bit t-1 stands for source packet t)."""

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("need at least one source packet")
        self.k = k

    @property
    def parity_limit(self) -> int | None:
        return None

    def parity_mask(self, j: int) -> int:
        raise NotImplementedError

    def _check_parity_index(self, j: int) -> None:
        limit = self.parity_limit
        if j < 1 or (limit is not None and j > limit):
            raise ValueError(f"parity index {j} out of range")

    def encode(self, source: Sequence[bytes], p: int) -> list[bytes]:
        if len(source) != self.k:
            raise ValueError(f"expected {self.k} source packets, got {len(source)}")
        limit = self.parity_limit
        if p < 0 or (limit is not None and p > limit):
            raise ValueError(f"parity count {p} out of range")
        size = len(source[0])
        if any(len(s) != size for s in source):
            raise ValueError("source packets must have equal length")
        ints = [int.from_bytes(s, "little") for s in source]
        return [gf2.xor_rows(col, ints).to_bytes(size, "little")
                for col in self._parity_columns(list(range(1, p + 1)))]

    def decode(self, received) -> DecodeResult:
        """Gaussian elimination over the parity equations restricted to the
        missing source packets, in the codec's own bit positions as in
        unrecovered_sources; payloads ride along as xor right-hand sides."""
        k = self.k
        limit = self.parity_limit
        packets = normalize_received(received, None if limit is None else k + limit)
        recovered = {i: pkt for i, pkt in sorted(packets.items()) if i <= k}
        ints = [0] * k  # each received source converted once
        have = 0
        for i, pkt in recovered.items():
            ints[i - 1] = int.from_bytes(pkt, "little")
            have |= 1 << (i - 1)
        missing = ~have & ((1 << k) - 1)
        if not missing:
            return DecodeResult(recovered=recovered, unrecoverable=frozenset())
        size = len(next(iter(packets.values()))) if packets else 0
        js = [i - k for i in sorted(packets) if i > k]
        rows = [(col & missing,
                 int.from_bytes(packets[k + j], "little") ^ gf2.xor_rows(col & have, ints))
                for j, col in zip(js, self._parity_columns(js))]
        for coeffs, rhs in gf2.reduce_augmented(rows):
            if coeffs.bit_count() == 1:
                recovered[coeffs.bit_length()] = rhs.to_bytes(size, "little")
                missing ^= coeffs
        return DecodeResult(recovered=dict(sorted(recovered.items())),
                            unrecoverable=frozenset(gf2.ones(missing)))

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


class ExplicitXorCodec(SystematicXorCodec):
    """Xor codec with a fixed, explicit list of parity column masks."""

    def __init__(self, k: int, masks: Sequence[int], spec: CodeSpec | None = None):
        super().__init__(k)
        self.masks = tuple(m & ((1 << k) - 1) for m in masks)
        self._spec = spec

    @property
    def spec(self) -> CodeSpec:
        if self._spec is not None:
            return self._spec
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
    """Construct the codec described by a CodeSpec."""
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
