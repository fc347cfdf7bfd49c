"""Polar-kernel construction: channel qualities, split, reservoir, decoding."""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from erasurelab import gf2, polar
from erasurelab.codec import ExplicitXorCodec
from erasurelab.multicast import enumerate_patterns, simulate_incremental, weighted_cdf
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


@pytest.mark.parametrize("epsilon", [0.01, 0.05, 0.1, 0.3, 0.5])
def test_bhattacharyya_respects_the_subset_order(epsilon):
    # a channel whose index bits (c' - 1) hold those of another (c - 1) is at
    # least as good: z_c >= z_c' on every such pair of the float recursion
    pairs = 0
    for levels in range(1, 9):
        z = bhattacharyya(levels, epsilon)
        top = len(z) - 1
        for a in range(len(z)):
            free = top & ~a
            extra = free
            while extra:  # every nonempty subset of the bits a lacks
                assert z[a] >= z[a | extra], (levels, a + 1, (a | extra) + 1)
                pairs += 1
                extra = (extra - 1) & free
    # pairs a < b with a's bits inside b's: 3**levels - 2**levels per level
    assert pairs == sum(3**levels - 2**levels for levels in range(1, 9)) == 9330


def order_curve(codec: PolarCodec, order: list[int]) -> list[float]:
    """The full-credit weighted_cdf fractions, rounds 0..len(order), when the
    reservoir columns go out in `order` (indices into codec.masks), over every
    pattern of 1..3 lost sources at p_e = codec.epsilon."""
    patterns = enumerate_patterns(codec.k, 3, codec.epsilon)
    reordered = ExplicitXorCodec(codec.k, [codec.masks[i] for i in order])
    return [f for _, f in weighted_cdf(simulate_incremental(reordered, patterns), patterns).points]


def order_area(codec: PolarCodec, order: list[int]) -> float:
    """The score of a reservoir order: the area under its order_curve."""
    return sum(order_curve(codec, order))


@pytest.mark.parametrize("levels, k", [(4, 8), (5, 16), (5, 20)])
def test_no_adjacent_swap_of_the_reservoir_raises_the_repair_area(levels, k):
    codec = PolarCodec(levels, k, 0.05)
    designed = list(range(len(codec.masks)))
    area = order_area(codec, designed)
    for i in range(len(designed) - 1):
        swapped = designed[:i] + [i + 1, i] + designed[i + 2:]
        assert order_area(codec, swapped) <= area + 1e-12, i


def test_a_swap_of_incomparable_channels_raises_the_repair_area_at_64_40():
    # worst first orders every pair of channels comparable in the subset order;
    # channels 4 and 33 (bits 000011 and 100000 of c - 1) are not comparable,
    # and sending 33 first repairs every pattern by round 7
    codec = PolarCodec(6, 40, 0.05)
    assert codec.parity_channels[6:8] == (4, 33)
    designed = list(range(len(codec.masks)))
    swapped = designed[:6] + [7, 6] + designed[8:]
    before, after = order_curve(codec, designed), order_curve(codec, swapped)
    assert [t for t, (a, b) in enumerate(zip(before, after)) if a != b] == [7]
    assert (round(before[7], 6), after[7]) == (0.979612, 1.0)
    assert (round(sum(before), 6), round(sum(after), 6)) == (22.434185, 22.454573)


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


def test_polar_for_parity_levels_equal_the_level_search(monkeypatch):
    # the closed form against the search it replaced: the smallest 2**levels,
    # levels >= 1, that holds k + p packets and exceeds k
    monkeypatch.setattr(polar, "PolarCodec", lambda levels, k, epsilon: levels)
    for k in range(1, 600):
        for p in range(600):
            levels = 1
            while (1 << levels) < k + p or (1 << levels) <= k:
                levels += 1
            assert polar_for_parity(k, p, 0.05) == levels, (k, p)


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


def test_construction_rejects_an_information_set_that_is_not_closed_upward(monkeypatch):
    # channel 1 alone gives the block [[1]], its own inverse, but row 0 | 1 is frozen:
    # the upward-closure check is stricter than B·B = I on splits channel_split never returns
    monkeypatch.setattr("erasurelab.polar.channel_split", lambda *args: ((1,), (2, 3, 4)))
    with pytest.raises(ConstructionError, match="not self-inverse for levels=2, k=1"):
        PolarCodec(2, 1, 0.05)


@pytest.mark.parametrize("epsilon", [1e-300, 0.01, 0.05, 0.3, 0.9, 1 - 1e-16])
def test_every_split_is_closed_upward(epsilon):
    # each k's information set is a prefix of quality_order, so every split is closed
    # upward exactly when row c | 1 << b ranks before row c for each clear bit b of c
    for levels in range(1, 17):
        n = 1 << levels
        rank = np.empty(n, dtype=np.int64)
        rank[np.array(quality_order(bhattacharyya(levels, epsilon))) - 1] = np.arange(n)
        c = np.arange(n)
        for b in range(levels):
            clear = c[c >> b & 1 == 0]
            assert (rank[clear | 1 << b] < rank[clear]).all(), (levels, b)


def systematic_parity_columns(codec: PolarCodec) -> list[int]:
    """Arikan's systematic polar code on codec's split, by columns: column j-1 of
    B·A over the information rows, bit t-1 for info_channels[t-1], where B is the
    kernel power on the information rows and columns and A on the information rows
    and the frozen columns, taken from kernel_rows."""
    g = kernel_rows(codec.n.bit_length() - 1)
    info = [ch - 1 for ch in codec.info_channels]
    b_rows = [sum((g[r] >> c & 1) << t for t, c in enumerate(info)) for r in info]
    a_cols = [sum((g[r] >> (ch - 1) & 1) << t for t, r in enumerate(info))
              for ch in codec.parity_channels]
    return [sum(((b_row & a_col).bit_count() & 1) << s for s, b_row in enumerate(b_rows))
            for a_col in a_cols]


@pytest.mark.parametrize("levels, k", [(4, 8), (6, 40)])
def test_systematic_polar_reference_is_the_transform_of_the_sources_times_b(levels, k):
    # x = uG, with u = src·B on the information rows and 0 on the frozen rows, carries
    # the sources on the information rows and the B·A parity on the frozen rows
    codec = PolarCodec(levels, k, 0.05)
    g = kernel_rows(levels)
    info = [ch - 1 for ch in codec.info_channels]
    src = [int.from_bytes(bytes((7 * t + i) % 251 for i in range(16)), "little")
           for t in range(k)]
    u = [0] * codec.n
    for t, r in enumerate(info):  # u[r] is src·B at row r: B[s, t] = G[info[s], info[t]]
        u[r] = gf2.xor_rows(gf2.pack(s + 1 for s, q in enumerate(info) if g[q] >> r & 1), src)
    x = [gf2.xor_rows(sum((g[i] >> j & 1) << i for i in range(codec.n)), u)
         for j in range(codec.n)]
    assert [x[r] for r in info] == src
    textbook = ExplicitXorCodec(k, systematic_parity_columns(codec))
    packets = [v.to_bytes(16, "little") for v in src]
    assert textbook.encode(packets, codec.parity_limit) == [
        x[ch - 1].to_bytes(16, "little") for ch in codec.parity_channels]


def test_the_reservoir_shares_about_half_its_columns_with_the_systematic_polar_code():
    shared = {}
    for levels, k in [(4, 8), (5, 16), (6, 40), (8, 180)]:
        codec = PolarCodec(levels, k, 0.05)
        shared[codec.n, k] = sum(a == b for a, b in zip(codec.masks,
                                                        systematic_parity_columns(codec)))
    assert shared == {(16, 8): 4, (32, 16): 10, (64, 40): 12, (256, 180): 35}
