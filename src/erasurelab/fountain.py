"""Systematic random fountain code over GF(2).

Parity columns are random k-bit vectors where every source packet appears
with probability one half. A code is one block of n packets, whose n - k
columns are drawn once, at construction. Column j depends only on (seed, j),
not on n, so the block of a larger n is the rateless extension of a smaller
one: its first columns are the same.
"""
from __future__ import annotations

from . import rng
from .codec import CodeSpec, ExplicitXorCodec


class FountainCode(ExplicitXorCodec):
    def __init__(self, k: int, seed: int, n: int):
        if not 1 <= k <= n:
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
        stream = rng.substream(seed, rng.STREAM_FOUNTAIN)
        super().__init__(k, [rng.bits(rng.word(stream, j), k) for j in range(1, n - k + 1)])
        self.seed = seed

    @property
    def spec(self) -> CodeSpec:
        return CodeSpec(family="fountain", n=self.n, k=self.k, seed=self.seed)

    def __repr__(self) -> str:
        return f"FountainCode(k={self.k}, seed={self.seed}, n={self.n})"
