"""Counter-based RNG: determinism, distribution sanity, vector equivalence."""
from __future__ import annotations

import numpy as np

from erasurelab import rng


def test_word_is_deterministic_and_64_bit():
    a = rng.word(12345, 0)
    assert a == rng.word(12345, 0)
    assert 0 <= a <= rng.MASK64
    assert rng.word(12345, 1) != a


def test_substreams_do_not_collide():
    seen = set()
    for stream in (rng.STREAM_FOUNTAIN, rng.STREAM_RECEIVER, rng.STREAM_BENCH):
        for seed in range(50):
            seen.add(rng.substream(seed, stream))
    assert len(seen) == 150


def test_bits_packs_words_low_bit_first():
    base = rng.substream(7, rng.STREAM_FOUNTAIN)
    mask = rng.bits(base, 20)
    assert 0 <= mask < 1 << 20
    assert mask == rng.word(base, 0) & ((1 << 20) - 1)
    wide = rng.bits(base, 100)
    assert wide & rng.MASK64 == rng.word(base, 0)
    assert wide >> 64 == rng.word(base, 1) & ((1 << 36) - 1)


def test_word_uniformity_rough():
    # mean of 64-bit uniform words should sit near 2^63
    vals = [rng.word(99, c) for c in range(20000)]
    mean = sum(vals) / len(vals)
    assert abs(mean / 2.0**63 - 1.0) < 0.02


def test_erasure_mask_matches_probability():
    total = 0
    packets = 32
    receivers = 5000
    for r in range(receivers):
        total += rng.erasure_mask(3, r, packets, 0.1).bit_count()
    freq = total / (receivers * packets)
    # binomial std error at p=0.1 over 160k draws is about 7.5e-4
    assert abs(freq - 0.1) < 0.005


def test_vectorized_masks_match_scalar():
    for seed in (0, 1, 42):
        vec = rng.erasure_masks(seed, first=17, count=300, packets=24, p_e=0.05)
        for i in range(300):
            assert int(vec[i]) == rng.erasure_mask(seed, 17 + i, 24, 0.05)


def test_vectorized_masks_edge_probabilities():
    zeros = rng.erasure_masks(5, 0, 100, 16, 0.0)
    assert not zeros.any()
    ones = rng.erasure_masks(5, 0, 100, 16, 1.0)
    assert (ones == (1 << 16) - 1).all()


def test_vectorized_masks_reject_wide_blocks():
    try:
        rng.erasure_masks(0, 0, 1, 65, 0.1)
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError for more than 64 packets")


def test_mask_partition_independence():
    whole = rng.erasure_masks(11, 0, 1000, 20, 0.3)
    parts = np.concatenate([
        rng.erasure_masks(11, 0, 400, 20, 0.3),
        rng.erasure_masks(11, 400, 600, 20, 0.3),
    ])
    assert (whole == parts).all()


def test_masks_of_fewer_packets_are_prefixes_of_masks_of_more():
    # packet t's bit depends only on (seed, receiver, t), not on the block size
    for seed, first in ((0, 0), (3, 17), (2**64 - 1, 1_000_003), (42, 2**40)):
        for p_e in (0.05, 0.3):
            wide = {m: rng.erasure_masks(seed, first, 200, m, p_e) for m in (1, 13, 32, 63, 64)}
            for n in range(0, 64):
                for m, masks in wide.items():
                    if n < m:
                        want = masks & np.uint64((1 << n) - 1)
                        assert (rng.erasure_masks(seed, first, 200, n, p_e) == want).all()


def test_seeds_outside_64_bits_are_rejected_not_aliased():
    assert rng.substream(0, rng.STREAM_RECEIVER) != rng.substream(rng.MASK64,
                                                                  rng.STREAM_RECEIVER)
    for seed in (-1, 2**64, 2**64 + 5):
        try:
            rng.substream(seed, rng.STREAM_RECEIVER)
        except ValueError as exc:
            assert "seed" in str(exc)
        else:
            raise AssertionError(f"expected ValueError for seed {seed}")
