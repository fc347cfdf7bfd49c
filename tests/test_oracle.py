"""Decodability oracle and decode: the mask-native elimination of the xor
codecs against the simple remap paths, the MDS oracle against counting, MDS
decode against the scaled-packet loops, decode against the oracle for every
family, and the batched per-prefix loss totals against the oracle."""
from __future__ import annotations

import random
from functools import lru_cache

import numpy as np
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


def reference_decode(codec, received) -> DecodeResult:
    """Simple path: remap each parity column into a dense space of the
    missing source packets and subtract each known source from every row
    that covers it; payloads ride along as xor right-hand sides."""
    limit = codec.parity_limit
    packets = normalize_received(received, None if limit is None else codec.k + limit)
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
    for coeffs, rhs in gf2.reduce_augmented(equations):
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
    """A fountain (bounded or not), polar, explicit xor or MDS codec."""
    k = draw(st.integers(1, max_k))
    family = draw(st.sampled_from(families))
    if family == "mds":
        return _mds(k + draw(st.integers(1, 12)), k)
    if family == "fountain":
        n = draw(st.one_of(st.none(), st.integers(k, k + 12)))
        return FountainCode(k, draw(st.integers(0, 2**64 - 1)), n=n)
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
    limit = codec.parity_limit if codec.parity_limit is not None else 12
    # duplicates, any order, indices below 1 and parity indices past the limit
    received = data.draw(st.lists(st.integers(-2, k + limit + 2), max_size=k + limit + 4))
    got = _outcome(codec.unrecovered_sources, iter(received))
    want = _outcome(lambda r: reference_unrecovered(codec, r), iter(received))
    assert got == want
    if got is ValueError:
        assert codec.parity_limit is not None
        assert max(received) > k + codec.parity_limit
        assert not set(range(1, k + 1)) <= set(received)
    else:
        assert got <= frozenset(range(1, k + 1))
        assert not got & set(received)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_decode_agrees_with_oracle_and_returns_source_bytes(data):
    codec = data.draw(codecs(max_k=24, families=("mds", "fountain", "polar", "explicit")))
    k = codec.k
    p = codec.parity_limit if codec.parity_limit is not None else data.draw(st.integers(0, 12))
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
    p = codec.parity_limit if codec.parity_limit is not None else data.draw(st.integers(0, 12))
    gen = random.Random(data.draw(st.integers(0, 2**32)))
    size = data.draw(st.integers(0, 24))
    source = [gen.randbytes(size) for _ in range(k)]
    packets = dict(enumerate(source + codec.encode(source, p), start=1))
    picked = data.draw(st.sets(st.sampled_from(sorted(packets))))
    # corrupted parity payloads make the system inconsistent (MDS then
    # returns wrong bytes); both paths must still return the same bytes
    corrupt = data.draw(st.sets(st.sampled_from(sorted(packets)[k:]))) if p else set()
    received = [(i, gen.randbytes(size) if i in corrupt else packets[i]) for i in picked]
    # duplicates and indices outside 1..k+p, which an unbounded fountain accepts
    extra = data.draw(st.lists(st.integers(-1, k + p + 3), max_size=2))
    received += [(i, packets.get(i) or gen.randbytes(size)) for i in extra]
    received = data.draw(st.permutations(received))
    reference = reference_mds_decode if isinstance(codec, MdsCode) else reference_decode
    assert (_decoded(codec.decode, received)
            == _decoded(lambda r: reference(codec, r), received))


def test_oracle_ignores_indices_below_one_and_checks_parity_range_once():
    codec = ExplicitXorCodec(3, [0b011, 0b110])
    assert codec.unrecovered_sources([0, -5, 1, 4]) == frozenset({3})
    assert codec.unrecovered_sources([1, 2, 3, 99]) == frozenset()
    try:
        codec.unrecovered_sources([1, 2, 4, 6])
    except ValueError as exc:
        assert "parity index 3 out of range" in str(exc)
    else:
        raise AssertionError("expected ValueError for parity index 3 of 2")
    mds = build_mds(8, 4)
    assert mds.unrecovered_sources([0, -1, -2, 5]) == frozenset({1, 2, 3, 4})
    assert mds.unrecovered_sources([0, 2, 6, 7, 8]) == frozenset()
    assert mds.unrecovered_sources([1, 2, 3, 4, 99]) == frozenset()
    try:
        mds.unrecovered_sources([1, 2, 3, 99])
    except ValueError as exc:
        assert "parity index 95 out of range" in str(exc)
    else:
        raise AssertionError("expected ValueError for index 99 of an 8-packet block")


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
    else:
        codec = data.draw(codecs(max_k=60, families=(family,)))
    k = codec.k
    limit = codec.parity_limit if codec.parity_limit is not None else 64 - k
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
                     (FountainCode(64, 9), 64), (_polar(12, 4), 12), (_mds(16, 12), 12)):
        erased = [0, (1 << n) - 1] + [gen.getrandbits(n) & gen.getrandbits(n)
                                     for _ in range(300)]
        weights = [gen.randrange(1, 1 << 30) for _ in erased]
        assert _batch_totals(codec, erased, weights, n) == oracle_totals(codec, erased,
                                                                          weights, n)


def test_batch_totals_check_the_parity_range():
    for codec in (ExplicitXorCodec(3, [0b011, 0b110]), _mds(5, 3)):
        try:
            codec.unrecovered_totals(np.zeros(2, dtype=np.uint64), 6, np.ones(2, dtype=np.int64))
        except ValueError as exc:
            assert "parity index 3 out of range" in str(exc)
        else:
            raise AssertionError(f"expected ValueError for 3 parity packets of {codec!r}")
