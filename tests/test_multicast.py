"""Incremental-repair simulation over enumerated loss patterns."""
from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erasurelab import (
    FountainCode,
    build_mds,
    enumerate_patterns,
    simulate_incremental,
    weighted_cdf,
)
from erasurelab.codec import ExplicitXorCodec
from erasurelab.gf256 import MdsCode
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


def test_full_recovery_round_is_none_for_a_pattern_never_repaired():
    # the one parity column covers source 1 only, so source 2 stays lost
    table = RecoveryTable(rounds=1, lost_sizes=(2,),
                          recovered=ExplicitXorCodec(2, [0b01]).recovery_rows([frozenset({1, 2})], 1))
    assert table.recovered == ((0, 1),)
    assert table.full_recovery_round(0) is None


def test_simulation_rejects_inputs_that_do_not_match():
    patterns = enumerate_patterns(4, 2, 0.1)
    with pytest.raises(ValueError, match="^codec has k=6, patterns have k=4$"):
        simulate_incremental(build_mds(8, 6), patterns)
    table = simulate_incremental(build_mds(6, 4), enumerate_patterns(4, 1, 0.1))
    with pytest.raises(ValueError, match="^pattern set does not match the recovery table$"):
        weighted_cdf(table, patterns)


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


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mds_recovery_rows_equal_the_reference_loop(data):
    k = data.draw(st.integers(1, 10), label="k")
    e_max = data.draw(st.integers(1, k), label="e_max")
    codec = build_mds(k + e_max, k)
    # rounds below e_max leave the larger patterns unrepaired
    rounds = data.draw(st.integers(0, codec.parity_limit), label="rounds")
    patterns = enumerate_patterns(k, e_max, 0.05)
    assert (codec.recovery_rows([p.lost for p in patterns.patterns], rounds)
            == reference_simulate_incremental(codec, patterns, rounds).recovered)


@pytest.mark.parametrize("codec", [
    build_mds(12, 8),
    FountainCode(8, seed=4, n=14),
    polar_for_parity(8, 8, 0.05),
    ExplicitXorCodec(8, [0, 0b1011, 0xFF]),
], ids=["mds", "fountain", "polar", "explicit"])
def test_recovery_rows_reject_rounds_outside_the_parity_limit(codec):
    patterns = enumerate_patterns(8, 2, 0.05)
    lost = [p.lost for p in patterns.patterns]
    limit = codec.parity_limit
    for rounds, message in ((-1, "rounds must be at least 0, got -1"),
                            (limit + 1, f"rounds {limit + 1} exceed the parity limit {limit}")):
        with pytest.raises(ValueError, match=message) as raised:
            codec.recovery_rows(lost, rounds)
        with pytest.raises(ValueError) as simulated:
            simulate_incremental(codec, patterns, rounds=rounds)
        assert str(raised.value) == str(simulated.value)


@pytest.mark.parametrize("codec", [
    build_mds(8, 4),
    FountainCode(4, seed=4, n=8),
    polar_for_parity(4, 4, 0.05),
], ids=["mds", "fountain", "polar"])
def test_recovery_rows_reject_sets_outside_the_sources(codec):
    k = codec.k
    # the sources at both ends are accepted
    assert len(codec.recovery_rows([frozenset({1, k})], 2)) == 1
    for pattern in ({0}, {k + 1}, {2, k + 3}):
        with pytest.raises(ValueError, match=rf"^lost set \[.*\] holds an index outside 1\.\.{k}$"):
            codec.recovery_rows([frozenset({1}), frozenset(pattern)], 2)


def oracle_calls(codec, run) -> tuple[object, list[list[int]]]:
    """What run() returns, and the received indices, sorted, of each
    unrecovered_sources call it makes on codec."""
    calls = []
    oracle = codec.unrecovered_sources

    def counted(received):
        calls.append(sorted(received))
        return oracle(received)

    codec.unrecovered_sources = counted
    try:
        return run(), calls
    finally:
        del codec.unrecovered_sources


def brings_new_equation(codec, received: list[int]) -> bool:
    """Whether the last parity packet of an oracle call's received indices
    adds an equation: its column, cut down to the lost sources, is neither
    zero nor one of the earlier columns cut down the same way."""
    k = codec.k
    lost = 0
    for i in set(range(1, k + 1)).difference(received):
        lost |= 1 << (i - 1)
    t = sum(i > k for i in received)
    columns = [m & lost for m in codec.masks[:t]]
    return columns[-1] not in {0, *columns[:-1]}


@pytest.mark.parametrize("codec", [
    build_mds(12, 8),
    FountainCode(8, seed=4, n=14),
    polar_for_parity(8, 8, 0.05),
    ExplicitXorCodec(8, [0, 0b1011, 0b1011, 0, 0xFF, 0b1011, 0x80]),
], ids=["mds", "fountain", "polar", "explicit"])
def test_only_mds_simulates_without_the_oracle(codec):
    patterns = enumerate_patterns(8, 3, 0.05)
    _, simulated = oracle_calls(codec, lambda: simulate_incremental(codec, patterns))
    _, reference = oracle_calls(codec, lambda: reference_simulate_incremental(
        codec, patterns, codec.parity_limit))
    if isinstance(codec, MdsCode):
        assert simulated == []
        return
    # the xor codecs ask what the reference loop asks, less the rounds whose
    # column brings the lost set no new equation
    expected = [received for received in reference if brings_new_equation(codec, received)]
    assert len(expected) < len(reference)
    assert simulated == expected


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_xor_recovery_rows_skip_only_rounds_without_a_new_equation(data):
    k = data.draw(st.integers(1, 10), label="k")
    column = st.integers(0, (1 << k) - 1)
    # a small pool to draw from makes zero and repeated columns common
    pool = data.draw(st.lists(column, min_size=1, max_size=3), label="pool")
    masks = data.draw(st.lists(st.one_of(st.just(0), st.sampled_from(pool), column),
                               max_size=12), label="masks")
    codec = ExplicitXorCodec(k, masks)
    e_max = data.draw(st.integers(1, k), label="e_max")
    rounds = data.draw(st.integers(0, codec.parity_limit), label="rounds")
    patterns = enumerate_patterns(k, e_max, 0.05)
    rows, simulated = oracle_calls(
        codec, lambda: codec.recovery_rows([p.lost for p in patterns.patterns], rounds))
    reference, calls = oracle_calls(
        codec, lambda: reference_simulate_incremental(codec, patterns, rounds))
    assert rows == reference.recovered
    assert simulated == [received for received in calls if brings_new_equation(codec, received)]
