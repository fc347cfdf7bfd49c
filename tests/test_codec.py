"""The systematic codec front that every family shares: malformed input to
encode and decode raises the same ValueError in each of them, 0-byte
packets encode and decode, build_codec returns each family's own codec, and
the xor encode equals the xor of the sources each parity column selects."""
from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erasurelab import (ExplicitXorCodec, FountainCode, build_codec, build_mds, gf2,
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


@pytest.mark.parametrize("family", sorted(CODECS))
def test_decode_without_parity_returns_exactly_the_received_sources(family):
    out = CODECS[family]().decode({4: b"gh", 2: b"cd"})
    assert list(out.recovered.items()) == [(2, b"cd"), (4, b"gh")]
    assert out.unrecoverable == {1, 3}


@pytest.mark.parametrize("family", sorted(CODECS))
def test_decode_hands_solve_a_read_only_block(family, monkeypatch):
    codec = CODECS[family]()
    parity = codec.encode(SOURCE, 4)
    solve = type(codec)._solve
    writeable = []

    def spy(self, block, missing, js):
        writeable.append(block.flags.writeable)
        return solve(self, block, missing, js)

    monkeypatch.setattr(type(codec), "_solve", spy)
    out = codec.decode({2: b"cd", 4: b"gh", **{5 + j: pkt for j, pkt in enumerate(parity)}})
    assert writeable == [False]
    assert out.recovered == dict(enumerate(SOURCE, start=1))


def test_mds_decode_with_fewer_parity_than_losses_recovers_nothing():
    codec = CODECS["mds"]()
    parity = codec.encode(SOURCE, 4)
    out = codec.decode({2: b"cd", 5: parity[0], 7: parity[2]})
    assert out.recovered == {2: b"cd"}
    assert out.unrecoverable == {1, 3, 4}


# each family's own constructor, called with build_codec's (n, k, seed, epsilon)
CONSTRUCTORS = {
    "mds": lambda n, k, seed, epsilon: build_mds(n, k),
    "fountain": lambda n, k, seed, epsilon: FountainCode(k, seed, n=n),
    "polar": lambda n, k, seed, epsilon: polar_for_parity(k, n - k, epsilon),
}


@st.composite
def codes(draw):
    """(family, n, k, seed, epsilon) that build_codec accepts, for any of the
    three families."""
    family = draw(st.sampled_from(("mds", "fountain", "polar")))
    k = draw(st.integers(1, 40))
    n = k + draw(st.integers(0, 24))
    return family, n, k, draw(st.integers(0, 2**64 - 1)), draw(st.floats(0.01, 0.99))


def _columns(codec):
    return codec.generator.tobytes() if codec.family == "mds" else codec.masks


@settings(max_examples=150, deadline=None)
@given(args=codes())
def test_build_codec_returns_the_family_constructors_codec(args):
    family, n, k, seed, epsilon = args
    codec = build_codec(family, n, k, seed=seed, epsilon=epsilon)
    own = CONSTRUCTORS[family](n, k, seed, epsilon)
    assert type(codec) is type(own)
    assert (codec.family, codec.n, codec.k) == (family, own.n, own.k)
    assert codec.parity_limit == codec.n - codec.k
    assert _columns(codec) == _columns(own)


@pytest.mark.parametrize("args, kwargs, message", [
    (("ldpc", 8, 4), {}, "unknown family 'ldpc'"),
    (("polar", 8, 0), {}, "need 1 <= k <= n, got k=0, n=8"),
    (("mds", 3, 4), {}, "need 1 <= k <= n, got k=4, n=3"),
    (("fountain", 8, 4), {}, "fountain codes require a seed"),
    (("ldpc", 3, 4), {"seed": 1}, "unknown family 'ldpc'"),  # the family first
])
def test_build_codec_rejects(args, kwargs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build_codec(*args, **kwargs)


def test_explicit_codec_has_no_family():
    codec = ExplicitXorCodec(3, [0b011, 0b110])
    assert codec.family is None
    with pytest.raises(ValueError, match="belongs to no family"):
        plr_empirical(codec, 5, 3, 0.1, receivers=100)


@st.composite
def xor_codecs(draw):
    """An explicit xor codec with zero, repeated and wider-than-k columns, a
    fountain code or a polar code."""
    family = draw(st.sampled_from(("explicit", "fountain", "polar")))
    k = draw(st.integers(1, 40))
    if family == "fountain":
        return FountainCode(k, draw(st.integers(0, 2**64 - 1)), n=k + draw(st.integers(0, 12)))
    if family == "polar":
        return polar_for_parity(k, draw(st.integers(0, 12)), draw(st.floats(0.01, 0.99)))
    # columns up to 3 bits wider than k: the codec keeps only the k source bits
    masks = draw(st.lists(st.integers(0, (1 << (k + 3)) - 1), max_size=8))
    masks += draw(st.lists(st.sampled_from([0, *masks]), max_size=4))
    return ExplicitXorCodec(k, draw(st.permutations(masks)))


@settings(max_examples=200, deadline=None)
@given(codec=xor_codecs(), data=st.data())
def test_xor_encode_equals_the_selected_source_xor(codec, data):
    size = data.draw(st.integers(0, 64))
    p = data.draw(st.integers(0, codec.parity_limit))
    gen = random.Random(data.draw(st.integers(0, 2**32)))
    source = [gen.randbytes(size) for _ in range(codec.k)]
    ints = [int.from_bytes(s, "little") for s in source]
    parity = codec.encode(source, p)
    assert parity == [gf2.xor_rows(codec.parity_mask(j), ints).to_bytes(size, "little")
                      for j in range(1, p + 1)]
