"""Counter-based RNG: determinism, distribution sanity, vector equivalence."""
from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from erasurelab import rng


def _mix64_whole(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(rng._MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(rng._MIX2)
    return z ^ (z >> np.uint64(31))


def reference_erasure_masks(seed: int, first: int, count: int, packets: int,
                            p_e: float) -> np.ndarray:
    """The whole-array draw: every packet's words mixed over all receivers at
    once, in fresh temporaries."""
    threshold = int(p_e * 2.0**64)
    root = rng.substream(seed, rng.STREAM_RECEIVER)
    with np.errstate(over="ignore"):
        r = np.arange(first, first + count, dtype=np.uint64)
        base = _mix64_whole(np.uint64(root) + (r + np.uint64(1)) * np.uint64(rng._GOLDEN))
        masks = np.zeros(count, dtype=np.uint64)
        if threshold >= 2**64:
            return masks | np.uint64((1 << packets) - 1)
        thr = np.uint64(threshold)
        for t in range(packets):
            w = _mix64_whole(base + np.uint64(((t + 1) * rng._GOLDEN) & rng.MASK64))
            masks |= (w < thr).astype(np.uint64) << np.uint64(t)
    return masks


def erasure_mask(seed: int, receiver: int, packets: int, p_e: float) -> int:
    """The scalar draw, one receiver and one word at a time: bit t is set,
    packet t+1 lost, when word t of the receiver's stream lies below p_e *
    2**64."""
    threshold = int(p_e * 2.0**64)
    base = rng.word(rng.substream(seed, rng.STREAM_RECEIVER), receiver)
    mask = 0
    for t in range(packets):
        if rng.word(base, t) < threshold:
            mask |= 1 << t
    return mask


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


def test_erasure_masks_match_probability():
    packets = 32
    receivers = 5000
    total = int(np.bitwise_count(rng.erasure_masks(3, 0, receivers, packets, 0.1)).sum())
    freq = total / (receivers * packets)
    # binomial std error at p=0.1 over 160k draws is about 7.5e-4
    assert abs(freq - 0.1) < 0.005


def test_vectorized_masks_match_scalar():
    for seed in (0, 1, 42):
        vec = rng.erasure_masks(seed, first=17, count=300, packets=24, p_e=0.05)
        for i in range(300):
            assert int(vec[i]) == erasure_mask(seed, 17 + i, 24, 0.05)


def test_vectorized_masks_edge_probabilities():
    zeros = rng.erasure_masks(5, 0, 100, 16, 0.0)
    assert not zeros.any()
    ones = rng.erasure_masks(5, 0, 100, 16, 1.0)
    assert (ones == (1 << 16) - 1).all()


@pytest.mark.parametrize("as_float", [np.float16, np.float32])
def test_a_numpy_probability_draws_the_masks_of_its_value(as_float):
    # the threshold p_e * 2**64 is taken of the checked Python float: in float16 it
    # would overflow, in float32 it is exact only because the factor is a power of two
    for value in (0.1, 0.05, 0.7, 1.0):
        p_e = as_float(value)
        want = rng.erasure_masks(3, 0, 1 << 16, 16, float(p_e))
        assert (rng.erasure_masks(3, 0, 1 << 16, 16, p_e) == want).all(), p_e


def test_piece_boundaries_change_no_bit(monkeypatch):
    # with 7-receiver pieces the counts fall short of, fill and cross piece boundaries
    monkeypatch.setattr(rng, "_PIECE", 7)
    for first in (0, 3, 2**40 + 5):
        for count in (0, 1, 6, 7, 8, 22):
            for packets in (1, 16, 64):
                for p_e in (0.0, 0.05, 1.0):
                    got = rng.erasure_masks(9, first, count, packets, p_e)
                    assert got.dtype == np.uint64 and got.shape == (count,)
                    want = [erasure_mask(9, first + i, packets, p_e) for i in range(count)]
                    assert got.tolist() == want, (first, count, packets, p_e)


def test_accumulator_byte_boundaries_change_no_bit(monkeypatch):
    # packet counts on either side of the 8-packet accumulator bytes, drawn in
    # 7-receiver pieces so the short last piece slices every byte row
    monkeypatch.setattr(rng, "_PIECE", 7)
    for packets in (7, 8, 9, 15, 17, 56, 63, 64):
        for first, count in ((0, 7), (5, 16), (2**40 + 3, 23)):
            for p_e in (0.05, 0.5, 0.999):
                got = rng.erasure_masks(4, first, count, packets, p_e)
                want = [erasure_mask(4, first + i, packets, p_e) for i in range(count)]
                assert got.tolist() == want, (packets, first, count, p_e)


def test_nothing_is_mixed_when_nothing_can_be_lost(monkeypatch):
    def no_mix(z, tmp):
        raise AssertionError("a draw with threshold 0 mixed words")

    monkeypatch.setattr(rng, "_mix64_into", no_mix)
    for p_e in (0.0, 2.0**-65):
        got = rng.erasure_masks(3, 10, 1000, 64, p_e)
        assert got.dtype == np.uint64 and got.shape == (1000,) and not got.any()


def test_threads_draw_at_once_without_sharing_scratch():
    # each call owns its buffers, so concurrent draws equal the serial ones
    jobs = [(1, 0, 3 * rng._PIECE + 11, 40, 0.05), (1, 10**9, 2 * rng._PIECE + 5, 17, 0.3)]
    serial = [rng.erasure_masks(*job) for job in jobs]
    results = [[] for _ in jobs]

    def draw(i):
        for _ in range(3):
            results[i].append(rng.erasure_masks(*jobs[i]).tobytes())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=draw, args=(i,)) for i in range(len(jobs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [[want.tobytes()] * 3 for want in serial]


def test_full_size_draw_equals_the_whole_array_draw():
    count = 2 * rng._PIECE + 3
    for seed, first, packets, p_e in ((0, 0, 16, 0.05), (7, 1_000_003, 64, 0.3),
                                      (2**64 - 1, 5, 13, 0.05)):
        got = rng.erasure_masks(seed, first, count, packets, p_e)
        want = reference_erasure_masks(seed, first, count, packets, p_e)
        assert got.tobytes() == want.tobytes(), (seed, first, packets, p_e)


@pytest.mark.parametrize("first, count, packets, p_e", [
    (0, 1, 16, -0.1), (0, 1, 16, 1.5), (0, 1, 16, float("nan")), (-3, 1, 16, 0.05),
    (2**64, 1, 16, 0.05), (0, 1, 65, 0.1), (0, 1, -1, 0.1),
    (0, -1, 16, 0.05), (2**64 - 1, 2, 16, 0.05),
])
def test_erasure_masks_rejects_bad_arguments(first, count, packets, p_e):
    with pytest.raises(ValueError):
        rng.erasure_masks(0, first, count, packets, p_e)


def test_the_last_receiver_draws_alone():
    # receivers lie in [0, 2**64): the last one is in range, and one past it raises
    got = rng.erasure_masks(5, 2**64 - 1, 1, 16, 0.5)
    assert got.tolist() == [erasure_mask(5, 2**64 - 1, 16, 0.5)]
    with pytest.raises(ValueError, match=r"^receivers must lie in \[0, 2\*\*64\), "
                                         r"got first=18446744073709551616, count=1$"):
        rng.erasure_masks(5, 2**64, 1, 16, 0.5)


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
