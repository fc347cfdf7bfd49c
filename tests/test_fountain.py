"""Random binary fountain: column statistics and decode behavior."""
from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erasurelab import FountainCode, rng
from erasurelab.gf2 import reduce_echelon


def test_columns_are_deterministic_per_seed():
    a = FountainCode(12, seed=5, n=76)
    b = FountainCode(12, seed=5, n=76)
    c = FountainCode(12, seed=6, n=76)
    masks_a = [a.parity_mask(j) for j in range(1, 65)]
    masks_b = [b.parity_mask(j) for j in range(1, 65)]
    masks_c = [c.parity_mask(j) for j in range(1, 65)]
    assert masks_a == masks_b
    assert masks_a != masks_c


def test_bounded_code_rejects_parity_past_its_limit():
    # n=6 leaves parity 1..2; index 9 is parity 5, which the code never sends
    code = FountainCode(4, 1, n=6)
    with pytest.raises(ValueError, match="parity index 5 out of range"):
        code.unrecovered_sources([1, 2, 9])
    with pytest.raises(ValueError):
        code.decode({1: b"a", 2: b"b", 9: b"c"})
    assert code.unrecovered_sources([1, 2, 5, 6]) == code.decode(
        {1: b"a", 2: b"b", 5: b"c", 6: b"d"}).unrecoverable


def test_mean_column_degree_is_half_k():
    code = FountainCode(10, seed=7, n=10 + 10000)
    total = sum(code.parity_mask(j).bit_count() for j in range(1, 10001))
    mean = total / 10000
    # each source joins a column with probability 1/2; sigma ~ 0.016
    assert 4.8 < mean < 5.2


def test_degree_zero_columns_occur_at_coin_rate():
    # an all-miss column has probability 2^-k; k=6 makes it observable
    draws = 40000
    code = FountainCode(6, seed=11, n=6 + draws)
    zeros = sum(1 for j in range(1, draws + 1) if code.parity_mask(j) == 0)
    expect = draws * 2**-6
    sigma = math.sqrt(draws * 2**-6 * (1 - 2**-6))
    assert abs(zeros - expect) < 5 * sigma


def test_square_system_invertibility_rate():
    # k random columns are jointly invertible with probability
    # prod_{i=1..k} (1 - 2^-i); for k=6 that is about 0.2887
    k = 6
    expect = math.prod(1 - 2.0**-i for i in range(1, k + 1))
    trials = 3000
    hits = 0
    for seed in range(trials):
        code = FountainCode(k, seed=seed, n=2 * k)
        if len(reduce_echelon([code.parity_mask(j) for j in range(1, k + 1)])) == k:
            hits += 1
    sigma = math.sqrt(expect * (1 - expect) / trials)
    assert abs(hits / trials - expect) < 5 * sigma


def test_decode_failure_rate_within_bound():
    # e lost sources against e+2 parity columns: failure <= 2^-2
    k, extra = 8, 2
    e = 4
    trials = 2000
    failures = 0
    rnd = random.Random(123)
    src = [bytes([i] * 4) for i in range(k)]
    for seed in range(trials):
        code = FountainCode(k, seed=seed, n=k + e + extra)
        parity = code.encode(src, e + extra)
        lost = set(rnd.sample(range(1, k + 1), e))
        received = {i: src[i - 1] for i in range(1, k + 1) if i not in lost}
        received.update({k + j + 1: parity[j] for j in range(e + extra)})
        out = code.decode(received)
        if out.unrecoverable:
            failures += 1
        else:
            for i in lost:
                assert out.recovered[i] == src[i - 1]
    bound = 2.0**-extra
    sigma = math.sqrt(bound * (1 - bound) / trials)
    assert failures / trials <= bound + 3 * sigma


def test_some_seed_recovers_single_loss_in_one_column():
    # a first column containing source 1 repairs its loss immediately
    src = [bytes([i] * 2) for i in range(6)]
    hit = False
    for seed in range(64):
        code = FountainCode(6, seed=seed, n=7)
        if not code.parity_mask(1) & 1:
            continue
        parity = code.encode(src, 1)
        received = {i: src[i - 1] for i in range(2, 7)}
        received[7] = parity[0]
        out = code.decode(received)
        assert out.recovered[1] == src[0]
        hit = True
        break
    assert hit


def test_parity_limit_enforced_when_n_given():
    code = FountainCode(4, seed=0, n=6)
    assert code.parity_limit == 2
    with pytest.raises(ValueError):
        code.encode([b"a", b"b", b"c", b"d"], 3)


def test_constructor_validation():
    with pytest.raises(ValueError):
        FountainCode(0, seed=1, n=4)
    with pytest.raises(ValueError):
        FountainCode(4, seed=1, n=3)


def test_spec_reports_seed():
    code = FountainCode(4, seed=9, n=8)
    assert code.spec.family == "fountain"
    assert code.spec.seed == 9
    assert (code.spec.n, code.spec.k) == (8, 4)


def test_columns_follow_the_seeded_stream():
    # column j is the k-bit draw of word j of the seed's fountain stream
    for k, seed in ((1, 0), (12, 5), (64, 2**64 - 1), (100, 3)):
        stream = rng.substream(seed, rng.STREAM_FOUNTAIN)
        code = FountainCode(k, seed, n=k + 40)
        assert code.masks == tuple(rng.bits(rng.word(stream, j), k) for j in range(1, 41))


@settings(max_examples=100, deadline=None)
@given(k=st.integers(1, 80), seed=st.integers(0, 2**64 - 1),
       extra=st.tuples(st.integers(0, 40), st.integers(0, 40)))
def test_longer_block_extends_the_shorter_one(k, seed, extra):
    # column j does not depend on n: two blocks agree on every shared column
    a, b = (FountainCode(k, seed, n=k + p) for p in extra)
    shared = min(extra)
    assert a.masks[:shared] == b.masks[:shared]
    assert all(a.parity_mask(j) == b.parity_mask(j) for j in range(1, shared + 1))
