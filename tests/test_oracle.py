"""Decodability oracle and decode: the mask-native elimination of the xor
codecs against the simple remap paths, the packed elimination against the
tuple form, the MDS oracle against counting, MDS decode against the
scaled-packet loops, decode against the oracle for every family, the shared
oracle front, and the batched per-prefix loss totals against the oracle."""
from __future__ import annotations

import random
from functools import lru_cache, reduce
from itertools import combinations
from operator import xor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erasurelab import build_mds, gf2
from erasurelab.codec import DecodeResult, ExplicitXorCodec, normalize_received
from erasurelab.fountain import FountainCode
from erasurelab.gf256 import MUL_TABLE, Gf256Matrix, MdsCode
from erasurelab.polar import polar_for_parity


def reference_unrecovered(codec, received_indices) -> frozenset[int]:
    """Simple path: remap each parity column into a dense space of the
    missing source packets, eliminate there and map the pinned bits back.
    An MDS block is whole once k distinct indices lie in 1..n."""
    idx = set(received_indices)
    missing = [i for i in range(1, codec.k + 1) if i not in idx]
    if not missing:
        return frozenset()
    if isinstance(codec, MdsCode):
        if any(i > codec.n for i in idx):
            raise ValueError("index past the block")
        in_block = sum(1 for i in idx if 1 <= i <= codec.n)
        return frozenset() if in_block >= codec.k else frozenset(missing)
    bitpos = {src: t for t, src in enumerate(missing)}
    equations = []
    for i in idx:
        if i <= codec.k:
            continue
        mask = codec.parity_mask(i - codec.k)
        coeffs = 0
        while mask:
            low = mask & -mask
            src = low.bit_length()
            if src in bitpos:
                coeffs |= 1 << bitpos[src]
            mask ^= low
        equations.append(coeffs)
    pinned = set()
    for row in gf2.reduce_echelon(equations):
        if row.bit_count() == 1:
            pinned.add(missing[row.bit_length() - 1])
    return frozenset(m for m in missing if m not in pinned)


def reference_reduce_augmented(rows) -> list[tuple[int, int]]:
    """Elimination of (coefficient bits, rhs) rows, both halves xored
    together, pivot the lowest coefficient bit; a row whose coefficients
    cancel is dropped. Sorted by pivot."""
    basis: dict[int, tuple[int, int]] = {}
    for r, rhs in rows:
        for p, (q, qrhs) in basis.items():
            if r & p:
                r ^= q
                rhs ^= qrhs
        if not r:
            continue
        p = r & -r
        for pk in list(basis):
            qk, qkrhs = basis[pk]
            if qk & p:
                basis[pk] = (qk ^ r, qkrhs ^ rhs)
        basis[p] = (r, rhs)
    return [basis[p] for p in sorted(basis)]


def _gather(row: int, mask: int) -> int:
    """The bits of row at the set bits of mask, packed low to high."""
    out = b = 0
    for t in range(mask.bit_length()):
        if (mask >> t) & 1:
            out |= ((row >> t) & 1) << b
            b += 1
    return out


@st.composite
def packed_rows(draw):
    """(width, unknowns, rows): random rows, zero rows, duplicate rows and
    rows whose unknown bits are the sum of earlier rows' while their
    ride-along bits are not. unknowns is a mask of the width or -1."""
    width = draw(st.integers(1, 16))
    word = st.integers(0, (1 << width) - 1)
    unknowns = draw(st.one_of(word, st.just(-1)))
    rows: list[int] = []
    for kind in draw(st.lists(st.sampled_from(("word", "zero", "dup", "cancel")), max_size=14)):
        if kind == "zero":
            rows.append(0)
        elif kind == "word" or not rows:
            rows.append(draw(word))
        elif kind == "dup":
            rows.append(draw(st.sampled_from(rows)))
        else:
            picked = draw(st.lists(st.sampled_from(rows), min_size=1, max_size=4))
            rows.append(reduce(xor, picked) & unknowns | draw(word) & ~unknowns)
    return width, unknowns, rows


@settings(max_examples=400, deadline=None)
@given(case=packed_rows())
def test_packed_elimination_matches_the_tuple_reference(case):
    width, unknowns, rows = case
    known = unknowns & ((1 << width) - 1)
    ride = ~unknowns & ((1 << width) - 1)
    want = reference_reduce_augmented([(_gather(r, known), _gather(r, ride)) for r in rows])
    got = gf2.reduce_augmented(rows, unknowns)
    assert [(_gather(r, known), _gather(r, ride)) for r in got] == want
    if unknowns == -1:
        assert gf2.reduce_echelon(rows) == got


def reference_decode(codec, received) -> DecodeResult:
    """Simple path: remap each parity column into a dense space of the
    missing source packets and subtract each known source from every row
    that covers it; payloads ride along as xor right-hand sides."""
    packets = normalize_received(received, codec.n)
    known = {i: pkt for i, pkt in packets.items() if i <= codec.k}
    missing = [i for i in range(1, codec.k + 1) if i not in known]
    if not missing:
        return DecodeResult(recovered=dict(sorted(known.items())),
                            unrecoverable=frozenset())
    size = len(next(iter(packets.values()))) if packets else 0
    bitpos = {src: t for t, src in enumerate(missing)}
    equations = []
    for idx in sorted(packets):
        if idx <= codec.k:
            continue
        mask = codec.parity_mask(idx - codec.k)
        rhs = int.from_bytes(packets[idx], "little")
        coeffs = 0
        while mask:
            low = mask & -mask
            src = low.bit_length()
            if src in bitpos:
                coeffs |= 1 << bitpos[src]
            else:
                rhs ^= int.from_bytes(known[src], "little")
            mask ^= low
        equations.append((coeffs, rhs))
    recovered = dict(known)
    pinned = set()
    for coeffs, rhs in reference_reduce_augmented(equations):
        if coeffs.bit_count() == 1:
            src = missing[coeffs.bit_length() - 1]
            recovered[src] = rhs.to_bytes(size, "little")
            pinned.add(src)
    return DecodeResult(recovered=dict(sorted(recovered.items())),
                        unrecoverable=frozenset(m for m in missing if m not in pinned))


def reference_mds_decode(codec, received) -> DecodeResult:
    """Simple path: with at least k packets, subtract the known sources from
    the lowest-numbered e parity packets one scaled packet at a time, invert
    the e x e submatrix and apply it; with fewer, return the received
    sources as they are."""
    packets = normalize_received(received, codec.n)
    known = {i: pkt for i, pkt in packets.items() if i <= codec.k}
    missing = [i for i in range(1, codec.k + 1) if i not in known]
    if not missing or len(packets) < codec.k:
        return DecodeResult(recovered=dict(sorted(known.items())),
                            unrecoverable=frozenset(missing))
    use = sorted(i for i in packets if i > codec.k)[:len(missing)]
    size = len(next(iter(packets.values())))
    b = []
    for idx in use:
        coeffs = codec.generator.data[:, idx - 1]
        acc = np.frombuffer(packets[idx], dtype=np.uint8).copy()
        for i, pkt in known.items():
            c = coeffs[i - 1]
            if c:
                acc ^= MUL_TABLE[c][np.frombuffer(pkt, dtype=np.uint8)]
        b.append(acc)
    a_inv = Gf256Matrix([[int(codec.generator.data[m - 1, idx - 1]) for m in missing]
                         for idx in use]).invert()
    recovered = dict(known)
    for c, m in enumerate(missing):
        acc = np.zeros(size, dtype=np.uint8)
        for r in range(len(use)):
            f = a_inv.data[c, r]
            if f:
                acc ^= MUL_TABLE[f][b[r]]
        recovered[m] = acc.tobytes()
    return DecodeResult(recovered=dict(sorted(recovered.items())),
                        unrecoverable=frozenset())


@lru_cache(maxsize=None)
def _polar(k: int, p: int):
    return polar_for_parity(k, p, 0.05)


@lru_cache(maxsize=None)
def _mds(n: int, k: int):
    return build_mds(n, k)


@st.composite
def codecs(draw, max_k: int = 40, families=("fountain", "polar", "explicit")):
    """A fountain, polar, explicit xor or MDS codec."""
    k = draw(st.integers(1, max_k))
    family = draw(st.sampled_from(families))
    if family == "mds":
        return _mds(k + draw(st.integers(0, 12)), k)
    if family == "fountain":
        return FountainCode(k, draw(st.integers(0, 2**64 - 1)), n=draw(st.integers(k, k + 12)))
    if family == "polar":
        return _polar(k, draw(st.integers(0, 12)))
    masks = draw(st.lists(st.integers(0, (1 << k) - 1), max_size=12))
    return ExplicitXorCodec(k, masks)


def _outcome(fn, received):
    try:
        return fn(received)
    except ValueError:
        return ValueError


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_oracle_matches_reference_path(data):
    codec = data.draw(codecs(families=("fountain", "polar", "explicit", "mds")))
    k = codec.k
    limit = codec.parity_limit
    # duplicates, any order, indices below 1 and parity indices past the limit
    received = data.draw(st.lists(st.integers(-2, k + limit + 2), max_size=k + limit + 4))
    got = _outcome(codec.unrecovered_sources, iter(received))
    want = _outcome(lambda r: reference_unrecovered(codec, r), iter(received))
    assert got == want
    if got is ValueError:
        assert max(received) > k + limit
        assert not set(range(1, k + 1)) <= set(received)
    else:
        assert got <= frozenset(range(1, k + 1))
        assert not got & set(received)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_decode_agrees_with_oracle_and_returns_source_bytes(data):
    codec = data.draw(codecs(max_k=24, families=("mds", "fountain", "polar", "explicit")))
    k = codec.k
    p = codec.parity_limit
    gen = random.Random(data.draw(st.integers(0, 2**32)))
    source = [gen.randbytes(16) for _ in range(k)]
    packets = dict(enumerate(source + codec.encode(source, p), start=1))
    received = data.draw(st.sets(st.sampled_from(sorted(packets))))
    result = codec.decode({i: packets[i] for i in received})
    assert result.unrecoverable == codec.unrecovered_sources(received)
    assert set(result.recovered) | result.unrecoverable == set(range(1, k + 1))
    for i, pkt in result.recovered.items():
        assert pkt == source[i - 1]


def _decoded(decode, received):
    """Recovered items in order and the unrecoverable set, or the error."""
    try:
        result = decode(received)
    except ValueError as exc:
        return str(exc)
    return list(result.recovered.items()), result.unrecoverable


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_decode_matches_reference_decode(data):
    codec = data.draw(codecs(max_k=24, families=("mds", "fountain", "polar", "explicit")))
    k = codec.k
    p = codec.parity_limit
    gen = random.Random(data.draw(st.integers(0, 2**32)))
    size = data.draw(st.integers(0, 24))
    source = [gen.randbytes(size) for _ in range(k)]
    packets = dict(enumerate(source + codec.encode(source, p), start=1))
    picked = data.draw(st.sets(st.sampled_from(sorted(packets))))
    # corrupted parity payloads make the system inconsistent (MDS then
    # returns wrong bytes); both paths must still return the same bytes
    corrupt = data.draw(st.sets(st.sampled_from(sorted(packets)[k:]))) if p else set()
    received = [(i, gen.randbytes(size) if i in corrupt else packets[i]) for i in picked]
    # extra indices: new ones, duplicates and ones outside 1..k+p, which decode rejects
    extra = data.draw(st.lists(st.integers(-1, k + p + 3), max_size=2))
    received += [(i, packets.get(i) or gen.randbytes(size)) for i in extra]
    received = data.draw(st.permutations(received))
    reference = reference_mds_decode if isinstance(codec, MdsCode) else reference_decode
    assert (_decoded(codec.decode, received)
            == _decoded(lambda r: reference(codec, r), received))


# k = 4 source packets and a parity limit of 4 in every family
FRONT_CODECS = {
    "explicit": lambda: ExplicitXorCodec(4, [0b0011, 0b0110, 0b1100, 0b1001]),
    "mds": lambda: build_mds(8, 4),
    "fountain": lambda: FountainCode(4, 7, n=8),
    "polar": lambda: polar_for_parity(4, 4, 0.05),
}


@pytest.mark.parametrize("family", sorted(FRONT_CODECS))
def test_oracle_ignores_indices_below_one_and_checks_parity_range_once(family):
    codec = FRONT_CODECS[family]()
    assert (codec.n, codec.k) == (8, 4)
    # generators are read once
    assert codec.unrecovered_sources(i for i in [0, -5, 1, 2, 3, 4]) == frozenset()
    assert codec.unrecovered_sources(i for i in [0, -1, -2]) == frozenset({1, 2, 3, 4})
    # nothing lost: an index past the block is not checked
    assert codec.unrecovered_sources([1, 2, 3, 4, 99]) == frozenset()
    for received in ([0, -1, 2, 3, 4, 5, 5, 6], [-3, 1, 8, 6, 6], [0, 4, 5, 6, 7, 8]):
        assert (codec.unrecovered_sources(i for i in received)
                == reference_unrecovered(codec, received))
    for received, j in (([1, 2, 3, 99], 95), ([0, 2, 9, 5, 5], 5), ([-1, 12, 6], 8)):
        with pytest.raises(ValueError, match=f"^parity index {j} out of range$"):
            codec.unrecovered_sources(i for i in received)


def test_columns_past_k_bits_decode_as_their_truncation():
    # a column bit at k or above would collide with the selection bits of decode's plans
    wide = ExplicitXorCodec(3, [0b1011, -1])
    narrow = ExplicitXorCodec(3, [0b011, 0b111])
    source = [b"\x01\x02", b"\x04\x08", b"\x10\x20"]
    packets = dict(enumerate(source + narrow.encode(source, 2), start=1))
    assert wide.encode(source, 2) == narrow.encode(source, 2)
    for size in range(len(packets) + 1):
        for picked in combinations(packets, size):
            received = {i: packets[i] for i in picked}
            result = wide.decode(received)
            assert result == narrow.decode(received)
            assert result.unrecoverable == wide.unrecovered_sources(picked)
            assert all(pkt == source[i - 1] for i, pkt in result.recovered.items())


def oracle_totals(codec, erased, weights, n: int) -> list[int]:
    """Reference for unrecovered_totals: the oracle on each mask in turn, at
    each prefix of k+j packets, times the mask's weight. A restricted mask
    that repeats is asked once."""
    totals = []
    for sent in range(codec.k, n + 1):
        full = (1 << sent) - 1
        lost: dict[int, int] = {}
        total = 0
        for m, w in zip(erased, weights):
            seen = int(m) & full
            if seen not in lost:
                lost[seen] = len(codec.unrecovered_sources(gf2.ones(~seen & full)))
            total += int(w) * lost[seen]
        totals.append(total)
    return totals


def _batch_totals(codec, erased, weights, n: int) -> list[int]:
    return codec.unrecovered_totals(np.array(erased, dtype=np.uint64), n,
                                    np.array(weights, dtype=np.int64))


@st.composite
def block_masks(draw, n: int):
    """Masks of an n-packet block: uniform, sparse (few losses) or dense."""
    word = st.integers(0, (1 << n) - 1)
    sparse = st.tuples(word, word, word).map(lambda t: t[0] & t[1] & t[2])
    dense = st.tuples(word, word).map(lambda t: t[0] | t[1])
    return draw(st.lists(st.one_of(word, sparse, dense, st.sampled_from([0, (1 << n) - 1])),
                         max_size=40))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_batch_totals_match_the_oracle_at_every_prefix(data):
    family = data.draw(st.sampled_from(("mds", "fountain", "polar", "explicit", "repeats")))
    if family == "repeats":
        # zero and repeated columns leave equations that add nothing
        k = data.draw(st.integers(1, 40))
        pool = [0] + data.draw(st.lists(st.integers(1, (1 << k) - 1), min_size=1, max_size=3))
        codec = ExplicitXorCodec(k, data.draw(st.lists(st.sampled_from(pool), max_size=12)))
    elif family == "fountain":
        # up to 64 - k random columns: over-determined systems that fill the mask word
        k = data.draw(st.integers(1, 60))
        codec = FountainCode(k, data.draw(st.integers(0, 2**64 - 1)),
                             n=k + data.draw(st.integers(0, 64 - k)))
    else:
        codec = data.draw(codecs(max_k=60, families=(family,)))
    k = codec.k
    limit = codec.parity_limit
    n = k + data.draw(st.integers(0, min(limit, 64 - k)))
    erased = data.draw(block_masks(n))
    weights = data.draw(st.lists(st.integers(0, 1 << 40), min_size=len(erased),
                                 max_size=len(erased)))
    assert _batch_totals(codec, erased, weights, n) == oracle_totals(codec, erased, weights, n)


def test_batch_totals_match_the_oracle_on_every_pattern_of_polar_16_12():
    codec = polar_for_parity(12, 4, 0.05)
    erased = np.arange(1 << 16, dtype=np.uint64)
    weights = np.arange(1 << 16, dtype=np.int64) % 7 + 1
    assert (codec.unrecovered_totals(erased, 16, weights)
            == oracle_totals(codec, erased, weights, 16))


def test_batch_totals_across_chunk_boundaries():
    codec = polar_for_parity(12, 4, 0.05)
    gen = random.Random(3)
    for size in (0, 1, gf2._CHUNK - 1, gf2._CHUNK, gf2._CHUNK + 1):
        erased = [gen.getrandbits(16) & gen.getrandbits(16) for _ in range(size)]
        weights = [gen.randrange(1, 1000) for _ in range(size)]
        totals = _batch_totals(codec, erased, weights, 16)
        assert totals == oracle_totals(codec, erased, weights, 16)


def test_batch_totals_at_the_edges_of_the_mask_word():
    gen = random.Random(5)
    # n = 64 fills the word; k = n leaves no parity, up to k = 64
    for codec, n in ((polar_for_parity(60, 4, 0.05), 64), (_mds(64, 60), 64),
                     (FountainCode(60, 9, n=64), 64), (polar_for_parity(64, 0, 0.05), 64),
                     (FountainCode(64, 9, n=64), 64), (_polar(12, 4), 12), (_mds(16, 12), 12)):
        erased = [0, (1 << n) - 1] + [gen.getrandbits(n) & gen.getrandbits(n)
                                     for _ in range(300)]
        weights = [gen.randrange(1, 1 << 30) for _ in erased]
        assert _batch_totals(codec, erased, weights, n) == oracle_totals(codec, erased,
                                                                          weights, n)


@pytest.mark.parametrize("n, j", [(6, 3), (2, -1)])
def test_batch_totals_check_the_parity_range(n, j):
    for codec in (ExplicitXorCodec(3, [0b011, 0b110]), _mds(5, 3)):
        with pytest.raises(ValueError, match=f"^parity index {j} out of range$"):
            codec.unrecovered_totals(np.zeros(2, dtype=np.uint64), n, np.ones(2, dtype=np.int64))
