"""Systematic random fountain code over GF(2).

Parity columns are random k-bit vectors where every source packet appears
with probability one half. A code is one block of n packets, whose n - k
columns are drawn once, at construction. Column j depends only on (seed, j),
not on n, so the block of a larger n is the rateless extension of a smaller
one: its first columns are the same.
"""
from __future__ import annotations

from . import rng
from .codec import ExplicitXorCodec, check_block, check_block_cap


class FountainCode(ExplicitXorCodec):
    family = "fountain"

    def __init__(self, k: int, seed: int, n: int):
        n, k = check_block(n, k)
        check_block_cap("n", n)
        stream = rng.substream(seed, rng.STREAM_FOUNTAIN)
        super().__init__(k, [rng.bits(rng.word(stream, j), k) for j in range(1, n - k + 1)])
        self.seed = seed

    def __repr__(self) -> str:
        return f"FountainCode(k={self.k}, seed={self.seed}, n={self.n})"
