"""Reference computations: fixed work that uses nothing of erasurelab.

A workload times its reference between its own calls, all through a run, so
that each run measures the speed of the machine alongside the speed of the
program; `round_rel` is the one over the other. Each reference does the kind
of work its workloads do, so that a busy host slows both alike: the
interpreter's integer and dict work for the codecs and the oracle, and
hashed draws over large integer arrays followed by `np.unique` for the
Monte-Carlo loss rate.
"""
from __future__ import annotations

import math
import time

import numpy as np

INTERVAL_S = 0.02
_WORDS = np.arange(1 << 18, dtype=np.uint64)  # one batch of receivers
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX = np.uint64(0xBF58476D1CE4E5B9)


def interpreter_seconds() -> float:
    """Integer shifts, xors and masks and dict stores in the interpreter."""
    t0 = time.perf_counter()
    x, seen = 0, {}
    for i in range(5_000):
        x = (x << 1 ^ i) & 0xFFFFFFFF
        seen[x & 255] = i
    return time.perf_counter() - t0


def masks_seconds() -> float:
    """Sixteen hashed threshold draws over 262,144 words, packed into one
    mask per word, and a count of the distinct masks."""
    t0 = time.perf_counter()
    with np.errstate(over="ignore"):
        base = _WORDS * _GOLDEN
        masks = np.zeros(len(_WORDS), dtype=np.uint64)
        for t in range(16):
            w = (base + np.uint64(t + 1) * _GOLDEN) * _MIX
            w ^= w >> np.uint64(31)
            masks |= (w < np.uint64(1 << 60)).astype(np.uint64) << np.uint64(t)
        np.unique(masks, return_counts=True)
    return time.perf_counter() - t0


class Sampler:
    """Times `compute` when called, at most once per INTERVAL_S."""

    def __init__(self, compute):
        self.compute = compute
        self.samples: list[float] = []
        self.last = -math.inf

    def __call__(self) -> None:
        if time.perf_counter() - self.last >= INTERVAL_S:
            self.samples.append(self.compute())
            self.last = time.perf_counter()
