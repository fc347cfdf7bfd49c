"""Polar-kernel construction: channel qualities, split, reservoir, decoding."""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import pytest

from erasurelab import gf2
from erasurelab.polar import (
    BLOCK_CAP,
    ConstructionError,
    PolarCodec,
    bhattacharyya,
    channel_split,
    polar_for_parity,
    quality_order,
)

BEST_FIRST_16 = [16, 15, 14, 12, 8, 13, 11, 10, 7, 6, 4, 9, 5, 3, 2, 1]


def exact_bhattacharyya(levels: int, epsilon: Fraction) -> list[Fraction]:
    """Rational-arithmetic oracle for the erasure recursion."""
    z = [epsilon]
    for _ in range(levels):
        nxt = []
        for v in z:
            nxt.append(2 * v - v * v)
            nxt.append(v * v)
        z = nxt
    return z


def kernel_rows(levels: int) -> list[int]:
    """Packed rows of the Kronecker power of [[1, 0], [1, 1]] by its recursion."""
    rows = [1]
    for _ in range(levels):
        half = len(rows)
        rows = rows + [r | (r << half) for r in rows]
    return rows


def test_single_level_split():
    assert bhattacharyya(1, 0.5) == [0.75, 0.25]


def test_two_level_values():
    z = bhattacharyya(2, 0.05)
    assert z == pytest.approx([0.18549375, 0.00950625, 0.00499375, 0.00000625], abs=1e-15)
    # best channel first
    assert quality_order(z) == [4, 3, 2, 1]


def test_four_level_golden_order():
    z = bhattacharyya(4, 0.05)
    assert quality_order(z) == BEST_FIRST_16


def test_bhattacharyya_matches_exact_oracle():
    for levels in range(1, 7):
        for eps in (Fraction(1, 20), Fraction(1, 100), Fraction(1, 5)):
            exact = exact_bhattacharyya(levels, eps)
            approx = bhattacharyya(levels, float(eps))
            for a, b in zip(approx, exact):
                assert a == pytest.approx(float(b), rel=1e-12, abs=1e-300)
            # float ordering agrees with the exact rational ordering
            exact_order = sorted(range(1, len(exact) + 1),
                                 key=lambda c: (exact[c - 1], -c))
            assert quality_order(approx) == exact_order, (levels, eps)


def test_bhattacharyya_validation():
    with pytest.raises(ValueError):
        bhattacharyya(0, 0.5)
    with pytest.raises(ValueError):
        bhattacharyya(2, 0.0)
    with pytest.raises(ValueError):
        bhattacharyya(2, 1.0)


def test_channel_split_16_8():
    info, frozen = channel_split(4, 8, 0.05)
    assert info == (16, 15, 14, 12, 8, 13, 11, 10)
    assert frozen == (1, 2, 3, 5, 9, 4, 6, 7)


def test_channel_split_partition():
    for levels in (2, 3, 4):
        n = 1 << levels
        for k in range(1, n):
            info, frozen = channel_split(levels, k, 0.05)
            assert len(info) == k
            assert sorted(info + frozen) == list(range(1, n + 1))


def test_construction_16_8_golden():
    c = PolarCodec(4, 8, 0.05)
    assert c.n == 16
    assert c.info_channels == (16, 15, 14, 12, 8, 13, 11, 10)
    assert c.parity_channels == (1, 2, 3, 5, 9, 4, 6, 7)
    assert list(c.masks) == [255, 157, 91, 55, 239, 25, 21, 19]
    assert c.raw_degrees() == [16, 8, 8, 8, 8, 4, 4, 4]
    assert c.effective_degrees() == [8, 5, 5, 5, 7, 3, 3, 3]
    # the best frozen channel contributes an all-ones repair column
    assert c.masks[0] == (1 << c.k) - 1


def test_construction_16_10_degrees():
    c = PolarCodec(4, 10, 0.05)
    assert c.raw_degrees() == [16, 8, 8, 8, 8, 4]
    assert c.effective_degrees() == [10, 6, 6, 7, 7, 3]


def test_info_submatrix_self_inverse_exhaustive():
    for levels in range(1, 7):
        n = 1 << levels
        g = kernel_rows(levels)
        for k in range(1, n):
            for eps in (0.01, 0.05, 0.2):
                c = PolarCodec(levels, k, eps)
                info0 = [ch - 1 for ch in sorted(c.info_channels)]
                sub = [sum(((g[i] >> j) & 1) << s for s, j in enumerate(info0)) for i in info0]
                assert [gf2.xor_rows(r, sub) for r in sub] == [1 << t for t in range(k)]
                # mask j-1 is column parity_channels[j-1] on the information rows, in
                # info_channels order; its raw degree counts the column's ones on all rows
                cols = [[(g[i] >> (ch - 1)) & 1 for i in range(n)] for ch in c.parity_channels]
                info = c.info_channels
                assert list(c.masks) == [sum(col[ch - 1] << t for t, ch in enumerate(info))
                                         for col in cols]
                assert c.raw_degrees() == [sum(col) for col in cols]


def test_construction_validation():
    with pytest.raises(ValueError):
        PolarCodec(4, 0, 0.05)
    with pytest.raises(ValueError):
        PolarCodec(4, 16, 0.05)
    with pytest.raises(ValueError):
        PolarCodec(2, 2, 1.5)


def test_codec_round_trip_with_reservoir():
    codec = PolarCodec(4, 8, 0.05)
    src = [bytes([i * 3 + 1] * 32) for i in range(8)]
    parity = codec.encode(src, 8)
    assert len(parity) == 8
    # lose three sources, repair from three reservoir columns
    received = {i: src[i - 1] for i in range(4, 9)}
    received.update({8 + j: parity[j - 1] for j in (1, 2, 3)})
    out = codec.decode(received)
    assert not out.unrecoverable
    for i in (1, 2, 3):
        assert out.recovered[i] == src[i - 1]


def test_decode_invariant_under_input_order():
    codec = PolarCodec(4, 8, 0.05)
    src = [bytes([i + 10] * 8) for i in range(8)]
    parity = codec.encode(src, 8)
    pairs = [(i, src[i - 1]) for i in (3, 4, 5, 6, 7, 8)]
    pairs += [(8 + j, parity[j - 1]) for j in (1, 4, 6)]
    a = codec.decode(pairs)
    b = codec.decode(list(reversed(pairs)))
    assert a.recovered == b.recovered
    assert a.unrecoverable == b.unrecoverable


def test_systematic_only_patterns_recover_up_to_four():
    # with every reservoir column present, any <= 4 losses among the
    # 8 source packets are repairable
    codec = PolarCodec(4, 8, 0.05)
    parity_idx = list(range(9, 17))
    for e in (1, 2, 3, 4):
        for lost in combinations(range(1, 9), e):
            kept = [i for i in range(1, 9) if i not in lost]
            assert codec.unrecovered_sources(kept + parity_idx) == frozenset()


def test_whole_block_minimum_distance_is_three():
    # losing sources 1 and 5 plus the only separating parity column
    # pins them to their xor; every other <= 3 loss pattern recovers
    codec = PolarCodec(4, 8, 0.05)
    everything = set(range(1, 17))
    failing = [lost
               for e in (1, 2, 3)
               for lost in combinations(range(1, 17), e)
               if codec.unrecovered_sources(everything - set(lost))]
    assert failing == [(1, 5, 13)]


def test_whole_block_four_loss_failures_exist():
    codec = PolarCodec(4, 8, 0.05)
    everything = set(range(1, 17))
    failing = [lost for lost in combinations(range(1, 17), 4)
               if codec.unrecovered_sources(everything - set(lost))]
    assert len(failing) == 25
    assert (1, 2, 5, 13) in failing


def test_polar_for_parity_block_choice():
    codec = polar_for_parity(8, 8, 0.05)
    assert codec.n == 16
    codec = polar_for_parity(8, 9, 0.05)
    assert codec.n == 32
    codec = polar_for_parity(16, 1, 0.05)
    # a full block leaves no frozen channels, so the next size is used
    assert codec.n == 32
    with pytest.raises(ValueError):
        polar_for_parity(BLOCK_CAP, 1, 0.05)


def test_parity_limit_matches_reservoir():
    codec = polar_for_parity(10, 6, 0.05)
    assert codec.parity_limit == 6
    src = [bytes([i] * 4) for i in range(10)]
    with pytest.raises(ValueError):
        codec.encode(src, 7)


def test_construction_error_is_exposed():
    assert issubclass(ConstructionError, Exception)


def test_construction_rejects_a_submatrix_that_is_not_self_inverse(monkeypatch):
    # channels 1, 2, 4 give the submatrix [[1,0,0],[1,1,0],[1,1,1]], whose square is not I
    monkeypatch.setattr("erasurelab.polar.channel_split", lambda *args: ((1, 2, 4), (3,)))
    with pytest.raises(ConstructionError, match="not self-inverse for levels=2, k=3"):
        PolarCodec(2, 3, 0.05)
