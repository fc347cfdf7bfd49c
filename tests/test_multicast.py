"""Incremental-repair simulation over enumerated loss patterns."""
from __future__ import annotations

import math

import pytest

from erasurelab import (
    FountainCode,
    build_mds,
    enumerate_patterns,
    simulate_incremental,
    weighted_cdf,
)
from erasurelab.codec import ExplicitXorCodec
from erasurelab.multicast import RecoveryTable
from erasurelab.polar import PolarCodec, polar_for_parity


def reference_simulate_incremental(codec, pattern_set, rounds: int) -> RecoveryTable:
    """The plain repair loop: each round rebuilds the received indices from
    scratch and asks the oracle until the pattern is repaired."""
    k = codec.k
    lost_sizes = []
    recovered = []
    for pattern in pattern_set.patterns:
        lost = pattern.lost
        survivors = [i for i in range(1, k + 1) if i not in lost]
        row = [0]
        for t in range(1, rounds + 1):
            if row[-1] == len(lost):
                row.append(len(lost))
                continue
            received = survivors + [k + j for j in range(1, t + 1)]
            unrec = codec.unrecovered_sources(received)
            row.append(len(lost) - len(unrec))
        lost_sizes.append(len(lost))
        recovered.append(tuple(row))
    return RecoveryTable(rounds=rounds, lost_sizes=tuple(lost_sizes), recovered=tuple(recovered))


def test_pattern_counts():
    assert len(enumerate_patterns(4, 1, 0.1).patterns) == 4
    assert len(enumerate_patterns(8, 4, 0.05).patterns) == 162


def test_pattern_probabilities():
    ps = enumerate_patterns(4, 2, 0.1)
    for pat in ps.patterns:
        i = len(pat.lost)
        assert pat.probability == pytest.approx(0.1**i * 0.9 ** (4 - i), rel=1e-12)
    # equally many losses, equal probability
    singles = {p.probability for p in ps.patterns if len(p.lost) == 1}
    assert len(singles) == 1


def test_pattern_cap_error_mentions_remedy():
    with pytest.raises(ValueError, match="[sS]ampling|[lL]ower"):
        enumerate_patterns(64, 16, 0.05)


def test_pattern_validation():
    with pytest.raises(ValueError):
        enumerate_patterns(4, 5, 0.1)
    with pytest.raises(ValueError):
        enumerate_patterns(4, 0, 0.1)


def test_negative_rounds_rejected():
    patterns = enumerate_patterns(6, 2, 0.1)
    with pytest.raises(ValueError, match="rounds must be at least 0, got -3"):
        simulate_incremental(build_mds(8, 6), patterns, rounds=-3)


@pytest.mark.parametrize("pe", [0.0, 1.0])
def test_cdf_of_patterns_with_zero_total_weight_rejected(pe):
    # at pe=0 no loss occurs; at pe=1 every packet is lost, past e_max
    patterns = enumerate_patterns(4, 2, pe)
    table = simulate_incremental(build_mds(6, 4), patterns)
    with pytest.raises(ValueError, match="zero total weight"):
        weighted_cdf(table, patterns)


def test_mds_rounds_follow_singleton_rule():
    # an MDS code repairs a pattern at round t exactly when it lost <= t packets
    patterns = enumerate_patterns(8, 4, 0.05)
    code = build_mds(12, 8)
    table = simulate_incremental(code, patterns, rounds=4)
    for idx, pat in enumerate(patterns.patterns):
        full = table.full_recovery_round(idx)
        assert full == len(pat.lost)


def test_polar_first_round_repairs_all_single_losses():
    patterns = enumerate_patterns(8, 1, 0.05)
    codec = PolarCodec(4, 8, 0.05)
    table = simulate_incremental(codec, patterns, rounds=8)
    for idx in range(len(patterns.patterns)):
        assert table.full_recovery_round(idx) == 1


def test_fountain_first_round_repairs_half_on_average():
    patterns = enumerate_patterns(8, 1, 0.05)
    total = 0.0
    seeds = 200
    for seed in range(seeds):
        codec = FountainCode(8, seed, n=16)
        table = simulate_incremental(codec, patterns, rounds=8)
        curve = weighted_cdf(table, patterns)
        total += dict(curve.points)[1]
    # each source joins the first column with probability one half
    assert abs(total / seeds - 0.5) < 0.04


def test_recovery_is_monotone_per_pattern():
    patterns = enumerate_patterns(8, 3, 0.05)
    codec = PolarCodec(4, 8, 0.05)
    table = simulate_incremental(codec, patterns, rounds=8)
    for row in table.recovered:
        assert all(a <= b for a, b in zip(row, row[1:]))


def test_cdf_monotone_and_reaches_one():
    patterns = enumerate_patterns(8, 4, 0.05)
    codec = PolarCodec(4, 8, 0.05)
    table = simulate_incremental(codec, patterns)
    curve = weighted_cdf(table, patterns)
    fractions = [f for _, f in curve.points]
    assert fractions[0] == 0.0
    assert all(a <= b + 1e-15 for a, b in zip(fractions, fractions[1:]))
    assert fractions[-1] == pytest.approx(1.0, abs=1e-12)


def test_mds_cdf_closed_form():
    k, e_max, p_e = 8, 4, 0.05
    patterns = enumerate_patterns(k, e_max, p_e)
    code = build_mds(k + e_max, k)
    curve = weighted_cdf(simulate_incremental(code, patterns, rounds=e_max), patterns)
    weight = math.fsum(math.comb(k, i) * p_e**i * (1 - p_e) ** (k - i)
                       for i in range(1, e_max + 1))
    for t, fraction in curve.points:
        expect = math.fsum(math.comb(k, i) * p_e**i * (1 - p_e) ** (k - i)
                           for i in range(1, min(t, e_max) + 1)) / weight
        assert fraction == pytest.approx(expect, abs=1e-12)


def test_partial_credit_exceeds_full_credit():
    patterns = enumerate_patterns(8, 4, 0.05)
    codec = PolarCodec(4, 8, 0.05)
    table = simulate_incremental(codec, patterns)
    full = dict(weighted_cdf(table, patterns).points)
    partial = weighted_cdf(table, patterns, partial=True)
    assert partial.partial
    for t, fraction in partial.points:
        assert fraction >= full[t] - 1e-15
    # with multi-loss patterns present the two curves must differ somewhere
    assert any(fraction > full[t] + 1e-12 for t, fraction in partial.points)


def test_default_rounds_use_parity_budget():
    patterns = enumerate_patterns(8, 2, 0.05)
    codec = PolarCodec(4, 8, 0.05)
    table = simulate_incremental(codec, patterns)
    assert table.rounds == 8
    assert simulate_incremental(FountainCode(8, seed=1, n=11), patterns).rounds == 3


def test_explicit_codec_permutation_changes_curve():
    c = PolarCodec(4, 8, 0.05)
    masks = list(c.masks)
    patterns = enumerate_patterns(8, 3, 0.05)
    designed = ExplicitXorCodec(8, masks)
    shuffled = ExplicitXorCodec(8, masks[1:4] + [masks[0]] + masks[4:])
    auc_designed = sum(f for _, f in
                       weighted_cdf(simulate_incremental(designed, patterns, rounds=8),
                                    patterns).points)
    auc_shuffled = sum(f for _, f in
                       weighted_cdf(simulate_incremental(shuffled, patterns, rounds=8),
                                    patterns).points)
    # moving the all-ones column away from the front hurts early repair
    assert auc_designed > auc_shuffled


@pytest.mark.parametrize("codec", [
    build_mds(12, 8),
    FountainCode(8, seed=4, n=14),
    polar_for_parity(8, 8, 0.05),
    # zero and repeated columns: equations that repair nothing new
    ExplicitXorCodec(8, [0, 0b1011, 0b1011, 0, 0xFF, 0b1011, 0x80]),
], ids=["mds", "fountain", "polar", "explicit"])
def test_simulation_matches_the_reference_loop(codec):
    patterns = enumerate_patterns(8, 3, 0.05)
    for rounds in (0, 1, codec.parity_limit):
        assert (simulate_incremental(codec, patterns, rounds=rounds)
                == reference_simulate_incremental(codec, patterns, rounds))
