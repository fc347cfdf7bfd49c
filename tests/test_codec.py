"""The systematic codec front that every family shares: malformed input to
encode and decode raises the same ValueError in each of them, 0-byte
packets encode and decode, build_codec returns each family's own codec, and
the xor encode and decode equal, byte for byte, the xor of the sources each
parity column selects and the walk of each decode plan on Python ints, and
threads that encode other shapes on one codec of any family get their own
parity."""
from __future__ import annotations

import random
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erasurelab import (ExplicitXorCodec, FountainCode, build_codec, build_mds, gf2,
                        plr_empirical, polar_for_parity)
from erasurelab.codec import FAMILIES
from erasurelab.gf256 import MUL_TABLE

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


@pytest.mark.parametrize("family", sorted(CODECS))
def test_encode_hands_parity_a_read_only_block_ending_in_zeros(family, monkeypatch):
    want = CODECS[family]().encode(SOURCE, 4)
    codec = CODECS[family]()
    build = type(codec)._parity_encoder
    shapes, blocks = [], []

    def spy(self, p, size):
        shapes.append((p, size))
        encoder = build(self, p, size)

        def spied(block):
            blocks.append((block.flags.writeable, block.dtype, block.shape, block.tobytes()))
            return encoder(block)
        return spied

    monkeypatch.setattr(type(codec), "_parity_encoder", spy)
    # twice: the second encode reuses the encoder the first one built
    assert codec.encode(SOURCE, 4) == codec.encode(SOURCE, 4) == want
    assert shapes == [(4, 2)]
    assert blocks == [(False, np.uint8, (5, 2), b"".join(SOURCE) + bytes(2))] * 2


@pytest.mark.parametrize("family", sorted(CODECS))
def test_encode_of_bytearray_and_memoryview_sources_equals_encode_of_bytes(family):
    codec = CODECS[family]()
    want = codec.encode(SOURCE, 4)
    for wrap in (bytearray, memoryview):
        got = codec.encode([wrap(s) for s in SOURCE], 4)
        assert got == want and all(type(pkt) is bytes for pkt in got)


def _received(codec):
    """Sources 2 and 4 and all four parity packets of SOURCE."""
    parity = codec.encode(SOURCE, 4)
    return {2: b"cd", 4: b"gh", **{5 + j: pkt for j, pkt in enumerate(parity)}}


@pytest.mark.parametrize("family", sorted(CODECS))
def test_decode_of_a_one_shot_generator_equals_decode_of_the_dict(family):
    codec = CODECS[family]()
    received = _received(codec)
    want = codec.decode(received)
    got = codec.decode((i, pkt) for i, pkt in received.items())
    assert list(got.recovered.items()) == list(want.recovered.items())
    assert got.unrecoverable == want.unrecoverable == frozenset()


@pytest.mark.parametrize("family", sorted(CODECS))
def test_decode_returns_bytearray_and_memoryview_packets_as_bytes(family):
    codec = CODECS[family]()
    received = _received(codec)
    for wrap in (bytearray, memoryview):
        out = codec.decode({i: wrap(pkt) for i, pkt in received.items()})
        assert out.recovered == dict(enumerate(SOURCE, start=1))
        assert all(type(pkt) is bytes for pkt in out.recovered.values())


# one malformed pair per rule, after a well-formed (1, b"ab")
BAD_PAIRS = {
    "packet index 9 out of range": (9, b"cd"),
    "duplicate packet index 1": (1, b"ab"),
    "received packets must have equal length": (2, b"cde"),
}


@pytest.mark.parametrize("family", sorted(CODECS))
def test_the_first_malformed_pair_decides_the_message(family):
    codec = CODECS[family]()
    for first, second in [(a, b) for a in BAD_PAIRS for b in BAD_PAIRS if a != b]:
        with pytest.raises(ValueError, match=f"^{re.escape(first)}$"):
            codec.decode([(1, b"ab"), BAD_PAIRS[first], BAD_PAIRS[second]])
    # one pair with two faults: the index range, then a repeat, then the length
    for pair, message in [((9, b"cde"), "packet index 9 out of range"),
                          ((1, b"abc"), "duplicate packet index 1")]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            codec.decode([(1, b"ab"), pair])


# k = 70: indices past 64 do not fit a numpy int64 shift
WIDE_CODECS = {
    "mds": lambda: build_mds(80, 70),
    "fountain": lambda: FountainCode(70, 1, n=80),
    "polar": lambda: polar_for_parity(70, 10, 0.05),
}


@pytest.mark.parametrize("family", sorted(CODECS))
@pytest.mark.parametrize("k", [4, 70])
def test_numpy_integer_indices_give_the_int_results(family, k):
    codec = (CODECS if k == 4 else WIDE_CODECS)[family]()
    gen = random.Random(k)
    source = [gen.randbytes(3) for _ in range(k)]
    lost = {1, 3} if k == 4 else {2, 66, 67, 70}
    packets = {i: pkt for i, pkt in enumerate(source + codec.encode(source, codec.parity_limit), 1)
               if i not in lost}
    want = codec.decode(packets)
    assert lost & set(want.recovered)  # parity repaired a source
    got = codec.decode({np.int64(i): pkt for i, pkt in packets.items()})
    assert list(got.recovered.items()) == list(want.recovered.items())
    assert got.unrecoverable == want.unrecoverable
    assert all(type(i) is int for i in [*got.recovered, *got.unrecoverable])
    assert (codec.unrecovered_sources(map(np.int64, packets))
            == codec.unrecovered_sources(packets))
    sets = [frozenset(lost), frozenset(sorted(lost)[1:]), frozenset({k})]
    rounds = codec.parity_limit
    assert (codec.recovery_rows([frozenset(map(np.int64, s)) for s in sets], rounds)
            == codec.recovery_rows(sets, rounds))
    # a bool or numpy parity count encodes as its int; a float never encodes,
    # not even once the encoder of its int value is cached
    assert codec.encode(source, True) == codec.encode(source, 1)
    assert codec.encode(source, np.int64(2)) == codec.encode(source, 2)
    errors = []
    for _ in range(2):  # before and after encode(source, 2)
        with pytest.raises(TypeError) as excinfo:
            codec.encode(source, 2.0)
        errors.append(str(excinfo.value))
        codec.encode(source, 2)
    assert errors[0] == errors[1]
    with pytest.raises(TypeError):
        codec.decode({2.0: source[1]})


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
REPRS = {
    "mds": "MdsCode(n={n}, k={k})",
    "fountain": "FountainCode(k={k}, seed={seed}, n={n})",
    "polar": "PolarCodec(n={n}, k={k}, epsilon={epsilon})",
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
    assert repr(codec) == REPRS[family].format(n=own.n, k=k, seed=seed, epsilon=epsilon)


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


def reference_parity(codec, source, p):
    """The xor encode on Python ints: parity j xors the sources its column
    selects. For MDS, parity j xors each source scaled by its entry of
    generator column k + j, one source at a time."""
    size = len(source[0])
    if codec.family == "mds":
        column = codec.generator[:, codec.k:codec.k + p]
        rows = np.frombuffer(b"".join(source), dtype=np.uint8).reshape(len(source), size)
        parity = np.zeros((p, size), dtype=np.uint8)
        for t, row in enumerate(rows):
            parity ^= MUL_TABLE[column[t]][:, row]
        return [row.tobytes() for row in parity]
    ints = [int.from_bytes(s, "little") for s in source]
    return [gf2.xor_rows(codec.parity_mask(j), ints).to_bytes(size, "little")
            for j in range(1, p + 1)]


def reference_plan_walk(codec, received):
    """xor decode's plans applied one at a time on Python ints: each unit row
    of reduce_augmented, less its lost source bit, names the received
    sources and parity packets whose xor is that source."""
    k = codec.k
    size = len(next(iter(received.values())))
    js = sorted(i - k for i in received if i > k)
    ints = [int.from_bytes(received.get(i, bytes(size)), "little") for i in range(1, k + 1)]
    ints += [int.from_bytes(received[k + j], "little") for j in js]
    missing = sum(1 << (i - 1) for i in range(1, k + 1) if i not in received)
    rows = gf2.reduce_augmented([codec.parity_mask(j) | 1 << (k + e) for e, j in enumerate(js)],
                                missing)
    return {unit.bit_length(): gf2.xor_rows(r ^ unit, ints).to_bytes(size, "little")
            for r in rows if (unit := r & missing).bit_count() == 1}


def check_xor_decode(codec, source, lost, p):
    """Decode with the sources `lost` gone and parity 1..p received: every
    recovered byte equals the plan walk's and the source's."""
    k = codec.k
    received = {i: source[i - 1] for i in range(1, k + 1) if i not in lost}
    received.update((k + j, pkt) for j, pkt in enumerate(codec.encode(source, p), 1))
    walked = reference_plan_walk(codec, received)
    out = codec.decode(received)
    kept = set(range(1, k + 1)) - lost | set(walked)
    assert out.recovered == {i: source[i - 1] for i in sorted(kept)}
    assert out.unrecoverable == lost - set(walked)
    assert all(walked[i] == source[i - 1] for i in walked)


@settings(max_examples=200, deadline=None)
@given(codec=xor_codecs(), data=st.data())
def test_xor_encode_equals_the_selected_source_xor(codec, data):
    size = data.draw(st.integers(0, 64))
    p = data.draw(st.integers(0, codec.parity_limit))
    gen = random.Random(data.draw(st.integers(0, 2**32)))
    source = [gen.randbytes(size) for _ in range(codec.k)]
    assert codec.encode(source, p) == reference_parity(codec, source, p)


@pytest.mark.parametrize("family", ["fountain", "polar"])
@pytest.mark.parametrize("k, p", [(200, 40), (180, 76)])
def test_xor_encode_and_decode_at_large_k_equal_the_int_references(family, k, p):
    codec = build_codec(family, k + p, k, seed=k + p)
    gen = random.Random(k * p)
    source = [gen.randbytes(1500) for _ in range(k)]
    assert codec.encode(source, p) == reference_parity(codec, source, p)
    check_xor_decode(codec, source, frozenset(gen.sample(range(1, k + 1), p)), p)


@pytest.mark.parametrize("size", [0, 1, 9, 1500])
def test_xor_encode_of_zero_full_and_repeated_columns(size):
    k = 37
    gen = random.Random(size)
    column = gen.getrandbits(k)
    codec = ExplicitXorCodec(k, [0, (1 << k) - 1, column, column, 0, (1 << k) - 1, 1 << (k - 1)])
    source = [gen.randbytes(size) for _ in range(k)]
    # every parity count, 0 included, and each twice: the second reads the stored tables
    for p in [*range(codec.parity_limit + 1), *range(codec.parity_limit, -1, -1)]:
        assert codec.encode(source, p) == reference_parity(codec, source, p)


@pytest.mark.parametrize("family", FAMILIES)
def test_threads_encoding_other_shapes_on_one_codec_get_their_own_parity(family):
    # every family's codec keeps the tables of its last encode: each thread
    # cycles through four parity counts and sizes, so the threads replace the
    # tables under one another
    codec = build_codec(family, 32, 24, seed=5)
    gen = random.Random(5)
    jobs = [([gen.randbytes(size) for _ in range(24)], p) for size in (16, 40) for p in (3, 8)]
    want = [reference_parity(codec, source, p) for source, p in jobs]

    def cycle(first: int) -> bool:
        return all(codec.encode(*jobs[(first + t) % 4]) == want[(first + t) % 4]
                   for t in range(400))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            assert all(pool.map(cycle, range(8), timeout=60))
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("gather, merge", [
    (1, 0),  # a piece per output, a group per bit length
    (40_000, 0),  # groups cut into pieces of a few outputs
    (400_000, 1 << 15),
    (1 << 40, 1 << 40),  # one piece, one group
])
@pytest.mark.parametrize("family", ["fountain", "polar"])
def test_xor_kernel_pieces_and_groups_change_no_byte(monkeypatch, gather, merge, family):
    monkeypatch.setattr(gf2, "_GATHER_BYTES", gather)
    monkeypatch.setattr(gf2, "_MERGE_BYTES", merge)
    k, p = 200, 40
    codec = build_codec(family, k + p, k, seed=11)
    gen = random.Random(gather ^ merge)
    source = [gen.randbytes(1500) for _ in range(k)]
    assert codec.encode(source, p) == reference_parity(codec, source, p)
    check_xor_decode(codec, source, frozenset(gen.sample(range(1, k + 1), p)), p)
