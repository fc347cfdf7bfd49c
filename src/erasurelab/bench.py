"""Encode/decode throughput measurement on the monotonic clock.

Inputs are generated up front, timing covers only the codec call, and every
iteration re-checks the round trip so a fast-but-wrong codec cannot win.
The loop runs in a single thread to keep scheduler noise out of the numbers.
"""
from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass

from . import rng
from .analytics import OpCount, op_count
from .codec import build_codec

MIN_ITERATIONS = 100
DEFAULT_WARMUP = 10


@dataclass(frozen=True)
class Timing:
    median_ns: float
    p25_ns: float
    p75_ns: float

    @staticmethod
    def of(samples: list[int]) -> "Timing":
        q = statistics.quantiles(samples, n=4, method="inclusive")
        return Timing(median_ns=float(statistics.median(samples)),
                      p25_ns=float(q[0]), p75_ns=float(q[2]))


@dataclass(frozen=True)
class BenchReport:
    family: str
    k: int
    p: int
    packet_size: int
    erasure_count: int
    iterations: int
    encode: Timing
    decode: Timing
    decode_complete: bool
    model: OpCount

    @property
    def encode_mbytes_per_s(self) -> float:
        if not self.p:
            return 0.0
        return (self.p * self.packet_size) / (self.encode.median_ns * 1e-9) / 1e6


def _timed(call, want, what: str, iterations: int) -> Timing:
    """Time `iterations` calls of `call` after DEFAULT_WARMUP untimed ones,
    checking each result against `want`, the first result, which the caller
    checked against the source."""
    samples = []
    for it in range(DEFAULT_WARMUP + iterations):
        t0 = time.perf_counter_ns()
        out = call()
        t1 = time.perf_counter_ns()
        if out != want:
            raise AssertionError(f"{what} output changed between iterations")
        if it >= DEFAULT_WARMUP:
            samples.append(t1 - t0)
    return Timing.of(samples)


def bench_codec(family: str, k: int, p: int, *, packet_size: int = 1500,
                erasure_count: int | None = None, iterations: int = MIN_ITERATIONS,
                seed: int = 0) -> BenchReport:
    """Measure one codec configuration.

    The decode side is the worst case for a systematic code: erasure_count
    losses (default min(p, k)), all of them source packets, repaired from parity.
    """
    model = op_count(family, k, p, packet_size=packet_size)  # checks the code and size first
    if iterations < MIN_ITERATIONS:
        raise ValueError(f"need at least {MIN_ITERATIONS} iterations")
    if erasure_count is None:
        erasure_count = min(p, k)
    if not 0 <= erasure_count <= min(p, k):
        raise ValueError(f"erasure count {erasure_count} out of range")

    codec = build_codec(family, model.k + model.p, model.k, seed=seed)  # checked Python ints

    gen = random.Random(rng.substream(seed, rng.STREAM_BENCH))
    source = [gen.randbytes(packet_size) for _ in range(k)]
    lost = sorted(gen.sample(range(1, k + 1), erasure_count))
    parity = codec.encode(source, p)
    received = {i: source[i - 1] for i in range(1, k + 1) if i not in lost}
    received.update({k + j: parity[j - 1] for j in range(1, p + 1)})

    reference = codec.decode(received)
    for i, pkt in reference.recovered.items():
        if pkt != source[i - 1]:
            raise AssertionError(f"decoder returned a wrong packet for index {i}")
    if family == "mds" and reference.unrecoverable:
        raise AssertionError("MDS decode left packets unrecovered")
    decode_complete = not reference.unrecoverable

    return BenchReport(family=family, k=k, p=p, packet_size=packet_size,
                       erasure_count=erasure_count, iterations=iterations,
                       encode=_timed(lambda: codec.encode(source, p), parity, "encode",
                                     iterations),
                       decode=_timed(lambda: codec.decode(received), reference, "decode",
                                     iterations),
                       decode_complete=decode_complete,
                       model=model)
