"""Systematic random fountain code over GF(2).

Parity columns are random k-bit vectors where every source packet appears
with probability one half. Column j depends only on (seed, j), so any column
can be generated on demand without producing the ones before it.
"""
from __future__ import annotations

from . import rng
from .codec import CodeSpec, SystematicXorCodec


class FountainCode(SystematicXorCodec):
    def __init__(self, k: int, seed: int, n: int | None = None):
        super().__init__(k)
        self.seed = seed
        self.n = n
        if n is not None and n < k:
            raise ValueError(f"need n >= k, got n={n}, k={k}")
        self._stream = rng.substream(seed, rng.STREAM_FOUNTAIN)
        self._columns: dict[int, int] = {}

    @property
    def spec(self) -> CodeSpec:
        return CodeSpec(family="fountain", n=self.n if self.n is not None else self.k,
                        k=self.k, seed=self.seed)

    @property
    def parity_limit(self) -> int | None:
        return None if self.n is None else self.n - self.k

    def parity_mask(self, j: int) -> int:
        mask = self._columns.get(j)
        if mask is None:  # only checked indices are ever stored
            self._check_parity_index(j)
            mask = rng.bits(rng.word(self._stream, j), self.k)
            self._columns[j] = mask
        return mask

    def __repr__(self) -> str:
        return f"FountainCode(k={self.k}, seed={self.seed})"

