"""Every public entry point rejects a bad block, family, erasure probability,
draw size, analytic block or model size with its rule's one message,
whatever the family."""
from __future__ import annotations

import pytest

from erasurelab import analytics, cli, multicast, rng
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
WORKER = "need at least one worker"


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
    ("enumerate_patterns k=0", lambda: multicast.enumerate_patterns(0, 1, 0.05),
     "need 1 <= e_max <= k, got e_max=1"),
    ("enumerate_patterns probability",
     lambda: multicast.enumerate_patterns(4, 1, 1.5), PROBABILITY.format(1.5)),
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
