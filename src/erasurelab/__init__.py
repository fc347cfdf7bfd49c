"""Packet erasure coding laboratory.

Three systematic code families over lossy packet channels: maximum distance
separable codes over GF(256), a random binary fountain, and a polar-kernel
binary construction with a precomputed parity reservoir. Around them: loss
rate analytics, redundancy planning, a multicast repair simulator, and
throughput benchmarks.
"""
from __future__ import annotations

from .analytics import (
    OpCount,
    ParityPlan,
    PlrReport,
    collectable_packets,
    delay_budget,
    min_parity,
    op_count,
    plr_empirical,
    plr_fountain,
    plr_mds,
)
from .bench import BenchReport, bench_codec
from .codec import DecodeResult, ErasureCodec, ExplicitXorCodec, build_codec
from .fountain import FountainCode
from .gf256 import MdsCode, build_mds
from .multicast import enumerate_patterns, simulate_incremental, weighted_cdf
from .polar import (
    ConstructionError,
    PolarCodec,
    bhattacharyya,
    channel_split,
    polar_for_parity,
)

__version__ = "0.1.0"

__all__ = [
    "BenchReport",
    "ConstructionError",
    "DecodeResult",
    "ErasureCodec",
    "ExplicitXorCodec",
    "FountainCode",
    "MdsCode",
    "OpCount",
    "ParityPlan",
    "PlrReport",
    "PolarCodec",
    "bench_codec",
    "bhattacharyya",
    "build_codec",
    "build_mds",
    "channel_split",
    "collectable_packets",
    "delay_budget",
    "enumerate_patterns",
    "min_parity",
    "op_count",
    "plr_empirical",
    "plr_fountain",
    "plr_mds",
    "polar_for_parity",
    "simulate_incremental",
    "weighted_cdf",
]
