"""The systematic codec front that every family shares: malformed input to
encode and decode raises the same ValueError in each of them, 0-byte
packets encode and decode, and a family's spec rebuilds its codec."""
from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erasurelab import (CodeSpec, ExplicitXorCodec, FountainCode, build_codec, build_mds,
                        plr_empirical, polar_for_parity)

# k = 4 source packets and a parity limit of 4 in every family
CODECS = {
    "mds": lambda: build_mds(8, 4),
    "fountain": lambda: FountainCode(4, 7, n=8),
    "polar": lambda: polar_for_parity(4, 4, 0.05),
}
SOURCE = [b"ab", b"cd", b"ef", b"gh"]

MALFORMED = [
    ("wrong source count", lambda c: c.encode(SOURCE[:3], 1),
     "expected 4 source packets, got 3"),
    ("unequal source lengths", lambda c: c.encode(SOURCE[:3] + [b"ghi"], 1),
     "source packets must have equal length"),
    ("negative parity count", lambda c: c.encode(SOURCE, -1), "parity count -1 out of range"),
    ("parity count past the limit", lambda c: c.encode(SOURCE, 5),
     "parity count 5 out of range"),
    ("index 0", lambda c: c.decode({0: b"ab"}), "packet index 0 out of range"),
    ("index past k + limit", lambda c: c.decode({2: b"ab", 9: b"cd"}),
     "packet index 9 out of range"),
    ("duplicate index", lambda c: c.decode([(1, b"ab"), (6, b"cd"), (1, b"ab")]),
     "duplicate packet index 1"),
    ("unequal received lengths", lambda c: c.decode({1: b"ab", 6: b"cde"}),
     "received packets must have equal length"),
]


@pytest.mark.parametrize("family", sorted(CODECS))
@pytest.mark.parametrize("call, message", [case[1:] for case in MALFORMED],
                         ids=[case[0] for case in MALFORMED])
def test_malformed_input_raises_the_same_error_in_every_family(family, call, message):
    codec = CODECS[family]()
    assert codec.parity_limit == 4
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(codec)


@pytest.mark.parametrize("family", sorted(CODECS))
def test_zero_length_packets_encode_and_decode(family):
    codec = CODECS[family]()
    assert codec.encode([b""] * 4, 4) == [b""] * 4
    received = {3: b"", 5: b"", 6: b"", 7: b"", 8: b""}
    lost = codec.unrecovered_sources(received)
    assert len(lost) < 3  # parity recovers at least one source
    out = codec.decode(received)
    assert out.unrecoverable == lost
    assert out.recovered == {i: b"" for i in range(1, 5) if i not in lost}


@st.composite
def specs(draw):
    """A CodeSpec that build_codec accepts, for any of the three families."""
    family = draw(st.sampled_from(("mds", "fountain", "polar")))
    k = draw(st.integers(1, 40))
    n = k + draw(st.integers(0, 24))
    return CodeSpec(family=family, n=n, k=k, seed=draw(st.integers(0, 2**64 - 1)),
                    epsilon=draw(st.floats(0.01, 0.99)))


def _columns(codec):
    return codec.generator.data.tobytes() if codec.spec.family == "mds" else codec.masks


@settings(max_examples=150, deadline=None)
@given(spec=specs())
def test_spec_rebuilds_the_codec(spec):
    codec = build_codec(spec)
    again = build_codec(codec.spec)
    assert again.spec == codec.spec
    assert (again.n, again.k, again.parity_limit) == (codec.n, codec.k, codec.n - codec.k)
    assert _columns(again) == _columns(codec)


def test_explicit_codec_has_no_spec():
    codec = ExplicitXorCodec(3, [0b011, 0b110])
    with pytest.raises(ValueError, match="belongs to no family"):
        codec.spec
    with pytest.raises(ValueError, match="belongs to no family"):
        plr_empirical(codec, 5, 3, 0.1, receivers=100)
