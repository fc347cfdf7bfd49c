"""Every public entry point rejects a bad block, family, erasure probability,
draw size, analytic block, block or pattern cap, level count, model size or
non-finite number with its rule's one message, whatever the family, and no
numeric edge gets past its checks."""
from __future__ import annotations

import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erasurelab import analytics, bench, cli, multicast, polar, rng
from erasurelab.codec import ErasureCodec, ExplicitXorCodec, build_codec, check_block, check_code
from erasurelab.fountain import FountainCode
from erasurelab.gf256 import build_mds
from erasurelab.polar import polar_for_parity

BLOCK = "need 1 <= k <= n, got k={}, n={}"
FAMILY = "unknown family 'ldpc'"
PROBABILITY = "erasure probability must be in [0, 1], got {}"
RECEIVER = "need at least one receiver"
STREAM = "need at most 2**64 receivers, got 18446744073709551617"
ANALYTIC_BLOCK = "the analytic loss rate takes blocks of at most 1029 packets, got {}"
MODEL_SIZE = "packet size and word width must be finite"
BLOCK_FINITE = "n and k must be finite"
PARITY_FINITE = "k and p must be finite"
WORKER = "need at least one worker"
LEVELS = "need 1 <= levels <= 16, the block cap 65536, got levels={}"
BLOCK_CAP = "{}={} exceeds the block cap 65536"
PATTERN_CAP = ("at least {} patterns exceed the enumeration cap 1000000; lower e_max or sample "
               "patterns instead of enumerating them")


def _fountain():
    return build_codec("fountain", 8, 4, seed=1)


# (entry point and rule, call, the rule's message)
CONTRACTS = [
    ("check_block", lambda: check_block(2, 3), BLOCK.format(3, 2)),
    ("check_block k=0", lambda: check_block(2, 0), BLOCK.format(0, 2)),
    ("check_code family", lambda: check_code("ldpc", 8, 4), FAMILY),
    ("check_code block", lambda: check_code("mds", 2, 3), BLOCK.format(3, 2)),
    ("build_codec family", lambda: build_codec("ldpc", 8, 4), FAMILY),
    ("build_codec block", lambda: build_codec("polar", 2, 3), BLOCK.format(3, 2)),
    ("ErasureCodec block", lambda: ErasureCodec(2, 3), BLOCK.format(3, 2)),
    ("ExplicitXorCodec block", lambda: ExplicitXorCodec(0, []), BLOCK.format(0, 0)),
    ("FountainCode block", lambda: FountainCode(4, 1, n=2), BLOCK.format(4, 2)),
    ("FountainCode block before the block cap",
     lambda: FountainCode(2**64 + 1, 1, n=2**64), BLOCK.format(2**64 + 1, 2**64)),
    ("FountainCode block cap", lambda: FountainCode(4, 1, n=2**64), BLOCK_CAP.format("n", 2**64)),
    ("build_codec fountain block cap", lambda: build_codec("fountain", 65537, 4, seed=1),
     BLOCK_CAP.format("n", 65537)),
    ("bench_codec fountain block cap", lambda: bench.bench_codec("fountain", 4, 70000, seed=1),
     BLOCK_CAP.format("n", 70004)),
    ("polar_for_parity block cap", lambda: polar_for_parity(4, 65533, 0.05),
     BLOCK_CAP.format("k+p", 65537)),
    ("bhattacharyya no level", lambda: polar.bhattacharyya(0, 0.5), LEVELS.format(0)),
    ("bhattacharyya levels past the block cap", lambda: polar.bhattacharyya(17, 0.05),
     LEVELS.format(17)),
    ("channel_split levels past the block cap", lambda: polar.channel_split(70, 1, 0.05),
     LEVELS.format(70)),
    ("channel_split levels before k", lambda: polar.channel_split(0, 1, 0.05), LEVELS.format(0)),
    ("PolarCodec levels past the float range", lambda: polar.PolarCodec(10**400, 4, 0.05),
     LEVELS.format(10**400)),
    ("build_mds block", lambda: build_mds(2, 3), BLOCK.format(3, 2)),
    ("systematic_erasures_pmf block",
     lambda: analytics.systematic_erasures_pmf(0, 0, 2, 3), BLOCK.format(3, 2)),
    ("polar_for_parity block", lambda: polar_for_parity(0, 1, 0.05), BLOCK.format(0, 1)),
    ("polar_for_parity negative parity",
     lambda: polar_for_parity(4, -1, 0.05), BLOCK.format(4, 3)),
    ("plr_mds block", lambda: analytics.plr_mds(2, 3, 0.05), BLOCK.format(3, 2)),
    ("plr_mds probability", lambda: analytics.plr_mds(8, 4, 1.5), PROBABILITY.format(1.5)),
    ("plr_mds analytic block", lambda: analytics.plr_mds(1030, 1000, 0.05),
     ANALYTIC_BLOCK.format(1030)),
    ("plr_fountain block", lambda: analytics.plr_fountain(2, 3, 0.05), BLOCK.format(3, 2)),
    ("plr_fountain probability",
     lambda: analytics.plr_fountain(8, 4, -0.1), PROBABILITY.format(-0.1)),
    ("plr_fountain analytic block", lambda: analytics.plr_fountain(8000, 4000, 0.05),
     ANALYTIC_BLOCK.format(8000)),
    ("plr_empirical block",
     lambda: analytics.plr_empirical(_fountain(), 2, 3, 0.05), BLOCK.format(3, 2)),
    ("plr_empirical probability",
     lambda: analytics.plr_empirical(_fountain(), 8, 4, 1.5), PROBABILITY.format(1.5)),
    ("plr_empirical receivers",
     lambda: analytics.plr_empirical(_fountain(), 8, 4, 0.05, receivers=0), RECEIVER),
    ("plr_empirical receivers past the stream",
     lambda: analytics.plr_empirical(_fountain(), 8, 4, 0.05, receivers=2**64 + 1), STREAM),
    ("plr_empirical workers",
     lambda: analytics.plr_empirical(_fountain(), 8, 4, 0.05, workers=0), WORKER),
    ("min_parity family", lambda: analytics.min_parity("ldpc", 4, 0.05, 1e-3), FAMILY),
    ("min_parity block", lambda: analytics.min_parity("polar", 0, 0.05, 1e-3),
     BLOCK.format(0, 0)),
    ("min_parity probability",
     lambda: analytics.min_parity("mds", 4, 1.5, 1e-3), PROBABILITY.format(1.5)),
    ("min_parity receivers",
     lambda: analytics.min_parity("fountain", 4, 0.05, 1e-3, receivers=0), RECEIVER),
    ("min_parity receivers past the stream",
     lambda: analytics.min_parity("polar", 4, 0.05, 1e-3, receivers=2**64 + 1), STREAM),
    ("min_parity fountain analytic block",
     lambda: analytics.min_parity("fountain", 1100, 0.05, 1e-6), ANALYTIC_BLOCK.format(1100)),
    ("min_parity workers",
     lambda: analytics.min_parity("polar", 4, 0.05, 1e-3, workers=0), WORKER),
    ("op_count family", lambda: analytics.op_count("ldpc", 4, 2), FAMILY),
    ("op_count block", lambda: analytics.op_count("mds", 0, 2), BLOCK.format(0, 2)),
    ("op_count negative parity",
     lambda: analytics.op_count("fountain", 4, -1), BLOCK.format(4, 3)),
    ("op_count NaN packet size",
     lambda: analytics.op_count("mds", 8, 4, float("nan")), MODEL_SIZE),
    ("op_count infinite packet size",
     lambda: analytics.op_count("polar", 8, 4, float("inf")), MODEL_SIZE),
    ("op_count infinite word width",
     lambda: analytics.op_count("fountain", 8, 4, word_bytes=float("inf")), MODEL_SIZE),
    ("op_count packet size past the float range",
     lambda: analytics.op_count("mds", 8, 4, packet_size=10**400), MODEL_SIZE),
    ("op_count costs past the float range",
     lambda: analytics.op_count("mds", 10**300, 1, packet_size=10**300),
     "operation counts must be finite"),
    ("op_count cost per column past the float range",
     lambda: analytics.op_count("mds", 10**308, 1), "operation counts must be finite"),
    ("op_count infinite k", lambda: analytics.op_count("mds", float("inf"), 4), PARITY_FINITE),
    ("op_count k past the float range",
     lambda: analytics.op_count("mds", 10**400, 4), PARITY_FINITE),
    ("op_count NaN k, p past the float range",
     lambda: analytics.op_count("polar", math.nan, 10**400), PARITY_FINITE),
    ("polar_for_parity NaN k, p past the float range",
     lambda: polar_for_parity(math.nan, 10**400, 0.05), PARITY_FINITE),
    ("check_block NaN n", lambda: check_block(float("nan"), 4), BLOCK_FINITE),
    ("plr_mds infinite n", lambda: analytics.plr_mds(float("inf"), 4, 0.05), BLOCK_FINITE),
    ("build_codec k past the float range",
     lambda: build_codec("polar", 10**400 + 4, 10**400), BLOCK_FINITE),
    ("bench_codec packet size past the float range",
     lambda: bench.bench_codec("mds", 4, 2, packet_size=10**400), MODEL_SIZE),
    ("delay_budget infinite delay",
     lambda: analytics.delay_budget(0.1, math.inf, 4, 0, 0, 0), "delay components must be finite"),
    ("delay_budget count past the float range",
     lambda: analytics.delay_budget(0.1, 0.1, 10**400, 0, 0, 0), "counts must be finite"),
    ("delay_budget budget past the float range",
     lambda: analytics.delay_budget(1e308, 1e308, 10, 0, 0, 0), "delay budget must be finite"),
    ("collectable_packets NaN budget", lambda: analytics.collectable_packets(math.nan, 0.1),
     "budget and packet interval must be finite"),
    ("collectable_packets infinite count", lambda: analytics.collectable_packets(1e308, 1e-308),
     "budget / packet interval must be finite"),
    ("enumerate_patterns k=0", lambda: multicast.enumerate_patterns(0, 1, 0.05),
     "need 1 <= e_max <= k, got e_max=1"),
    ("enumerate_patterns probability",
     lambda: multicast.enumerate_patterns(4, 1, 1.5), PROBABILITY.format(1.5)),
    ("enumerate_patterns pattern cap, exact count",
     lambda: multicast.enumerate_patterns(200, 3, 0.1), PATTERN_CAP.format(1333500)),
    ("enumerate_patterns pattern cap, stopped early",
     lambda: multicast.enumerate_patterns(10**6, 5 * 10**5, 0.1),
     PATTERN_CAP.format(500000500000)),
    ("enumerate_patterns e_max past the float range",
     lambda: multicast.enumerate_patterns(10**400, 10**400, 0.1), PATTERN_CAP.format(10**400)),
    ("erasure_masks negative probability",
     lambda: rng.erasure_masks(0, 0, 4, 8, -0.5), PROBABILITY.format(-0.5)),
    ("erasure_masks probability",
     lambda: rng.erasure_masks(0, 0, 4, 8, 1.5), PROBABILITY.format(1.5)),
    ("channel_epsilon probability", lambda: cli.channel_epsilon(1.5), PROBABILITY.format(1.5)),
]


@pytest.mark.parametrize("call, message", [row[1:] for row in CONTRACTS],
                         ids=[row[0] for row in CONTRACTS])
def test_entry_point_raises_its_rules_message(call, message):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value) == message


# every numeric argument of the sweep below is its valid base value or one of these
EDGES = (math.nan, math.inf, -math.inf, -1, 0, 2**64, 10**400, np.int64(3), True, 8.0)
# An argument that sizes a draw, a thread pool or an allocation its checks let
# through at 2**64 leaves that value out: 2**64 receivers is a valid draw that
# never ends. bench_codec's iterations, a loop count, leaves out 10**400 as well.
SIZES = tuple(v for v in EDGES if v != 2**64)
COUNTS = tuple(v for v in SIZES if v != 10**400)
_FOUNTAIN = build_codec("fountain", 8, 4, seed=1)
_PATTERNS = multicast.enumerate_patterns(4, 2, 0.1)
_DRAW = dict(receivers=50, seed=1, workers=1)
_DRAWN = dict(receivers=SIZES, seed=EDGES, workers=SIZES)
_BENCH = dict(k=4, p=2, packet_size=16, erasure_count=1, iterations=bench.MIN_ITERATIONS, seed=1)

# (entry point, call, base keyword arguments, the values each swept argument takes)
SWEEP = [
    ("check_block", check_block, dict(n=8, k=4), dict(n=EDGES, k=EDGES)),
    ("build_mds", build_mds, dict(n=8, k=4), dict(n=EDGES, k=EDGES)),
    ("build_codec mds", lambda **a: build_codec("mds", **a), dict(n=8, k=4),
     dict(n=EDGES, k=EDGES)),
    ("build_codec fountain", lambda **a: build_codec("fountain", **a), dict(n=8, k=4, seed=1),
     dict(n=EDGES, k=EDGES, seed=EDGES)),
    ("build_codec polar", lambda **a: build_codec("polar", **a), dict(n=8, k=4, epsilon=0.05),
     dict(n=EDGES, k=EDGES, epsilon=EDGES)),
    ("FountainCode", FountainCode, dict(k=4, seed=1, n=8), dict(k=EDGES, seed=EDGES, n=EDGES)),
    ("polar_for_parity", polar_for_parity, dict(k=4, p=4, epsilon=0.05),
     dict(k=EDGES, p=EDGES, epsilon=EDGES)),
    ("PolarCodec", polar.PolarCodec, dict(levels=3, k=4, epsilon=0.05),
     dict(levels=EDGES, k=EDGES, epsilon=EDGES)),
    ("bhattacharyya", polar.bhattacharyya, dict(levels=3, epsilon=0.05),
     dict(levels=EDGES, epsilon=EDGES)),
    ("channel_split", polar.channel_split, dict(levels=3, k=4, epsilon=0.05),
     dict(levels=EDGES, k=EDGES, epsilon=EDGES)),
    ("plr_mds", analytics.plr_mds, dict(n=8, k=4, p_e=0.05), dict(n=EDGES, k=EDGES, p_e=EDGES)),
    ("plr_fountain", analytics.plr_fountain, dict(n=8, k=4, p_e=0.05),
     dict(n=EDGES, k=EDGES, p_e=EDGES)),
    ("systematic_erasures_pmf", analytics.systematic_erasures_pmf, dict(e=2, i=1, n=8, k=4),
     dict(e=EDGES, i=EDGES, n=EDGES, k=EDGES)),
    ("plr_empirical", lambda **a: analytics.plr_empirical(_FOUNTAIN, **a),
     dict(n=8, k=4, p_e=0.05, **_DRAW), dict(n=EDGES, k=EDGES, p_e=EDGES, **_DRAWN)),
    *[(f"min_parity {family}", lambda family=family, **a: analytics.min_parity(family, **a),
       dict(k=4, p_e=0.05, plr_target=1e-2, **_DRAW),
       dict(k=EDGES, p_e=EDGES, plr_target=EDGES, **_DRAWN))
      for family in ("mds", "fountain", "polar")],
    *[(f"op_count {family}", lambda family=family, **a: analytics.op_count(family, **a),
       dict(k=4, p=2, packet_size=1500, word_bytes=8),
       dict(k=EDGES, p=EDGES, packet_size=EDGES, word_bytes=EDGES))
      for family in ("mds", "polar")],
    ("delay_budget", analytics.delay_budget,
     dict(rtt=0.1, packet_interval=0.01, k=4, encode_delay=0.0, decode_delay=0.0,
          transmit_delay=0.0, repair_rounds=1),
     dict.fromkeys(["rtt", "packet_interval", "k", "encode_delay", "decode_delay",
                    "transmit_delay", "repair_rounds"], EDGES)),
    ("collectable_packets", analytics.collectable_packets, dict(budget=1.0, packet_interval=0.1),
     dict(budget=EDGES, packet_interval=EDGES)),
    *[(f"bench_codec {family}", lambda family=family, **a: bench.bench_codec(family, **a),
       _BENCH, dict(k=EDGES, p=EDGES, packet_size=SIZES, erasure_count=EDGES, iterations=COUNTS,
                    seed=EDGES))
      for family in ("mds", "fountain", "polar")],
    ("enumerate_patterns", multicast.enumerate_patterns, dict(k=4, e_max=2, p_e=0.1),
     dict(k=EDGES, e_max=EDGES, p_e=EDGES)),
    ("simulate_incremental", lambda **a: multicast.simulate_incremental(_FOUNTAIN, _PATTERNS, **a),
     dict(rounds=2), dict(rounds=EDGES)),
    ("erasure_masks", rng.erasure_masks, dict(seed=1, first=0, count=4, packets=8, p_e=0.1),
     dict(seed=EDGES, first=EDGES, count=SIZES, packets=EDGES, p_e=EDGES)),
    ("encode", lambda p: _FOUNTAIN.encode([b"ab"] * 4, p), dict(p=2), dict(p=EDGES)),
    ("decode", lambda i: _FOUNTAIN.decode({i: b"ab", 2: b"ab"}), dict(i=5), dict(i=EDGES)),
    ("recovery_rows", lambda rounds: _FOUNTAIN.recovery_rows([frozenset({1})], rounds),
     dict(rounds=2), dict(rounds=EDGES)),
]


def _finite(value) -> bool:
    """Every float in a result, through dataclass fields and sequences, is finite."""
    if dataclasses.is_dataclass(value):
        return all(_finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (tuple, list)):
        return all(map(_finite, value))
    return not isinstance(value, (float, np.floating)) or math.isfinite(value)


def _finite_or_rejected(call, kwargs) -> None:
    """The call returns a finite value or raises ValueError or TypeError, within
    2 s; OverflowError or any other error fails. A bool counts as an int."""
    start = time.perf_counter()
    try:
        result = call(**kwargs)
    except (ValueError, TypeError):
        result = None
    assert time.perf_counter() - start < 2.0, kwargs
    assert _finite(result), (kwargs, result)


@pytest.mark.parametrize("call, base, swept", [row[1:] for row in SWEEP],
                         ids=[row[0] for row in SWEEP])
def test_numeric_edges_give_a_finite_value_or_a_value_or_type_error(call, base, swept):
    # every edge alone, since most mixes stop at their first check; then mixes
    for name, values in swept.items():
        for value in values:
            _finite_or_rejected(call, {**base, name: value})

    @settings(max_examples=25, deadline=None, database=None)
    @given(data=st.data())
    def mixed(data):
        drawn = {name: data.draw(st.sampled_from((base[name], *values)), label=name)
                 for name, values in swept.items()}
        _finite_or_rejected(call, {**base, **drawn})

    mixed()


@pytest.mark.parametrize("family", ["mds", "fountain", "polar"])
def test_numpy_counts_come_back_as_python_numbers(family):
    # a numpy integer counts as the Python int of its value, in the reports too
    def calls(as_count):
        k, n = as_count(12), as_count(16)
        draw = dict(receivers=as_count(5000), seed=as_count(1), workers=as_count(2))
        codec = build_codec(family, 16, 12, seed=1, epsilon=0.05)
        return [analytics.min_parity(family, k, 0.05, 1e-2, **draw),
                analytics.min_parity(family, k, 0.05, 1e-6, **draw),
                analytics.plr_empirical(codec, n, k, 0.05, **draw)]

    for got, want in zip(calls(np.int64), calls(int)):
        assert type(got) is type(want)
        for field in dataclasses.fields(want):
            value = getattr(got, field.name)
            assert type(value) in (str, int, float, type(None)), (field.name, value)
            assert value == getattr(want, field.name), field.name
