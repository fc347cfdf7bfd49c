"""Loss-rate formulas against brute-force enumeration, planner, cost models."""
from __future__ import annotations

import math
import os
import statistics
import sys
import threading
import tracemalloc
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erasurelab import analytics, build_mds, gf2, rng
from erasurelab.analytics import (
    PARITY_SCAN_CAP,
    ParityPlan,
    _lost_totals,
    collectable_packets,
    delay_budget,
    min_parity,
    op_count,
    plr_empirical,
    plr_fountain,
    plr_mds,
    systematic_erasures_pmf,
)
from erasurelab.codec import ExplicitXorCodec, build_codec
from erasurelab.fountain import FountainCode
from erasurelab.polar import polar_for_parity
from test_acceptance import fountain_ensemble_plr


def brute_force_plr(n: int, k: int, p_e: float, codec) -> float:
    """Average lost-source fraction over every erasure pattern of the block."""
    total = 0.0
    for kept_size in range(n + 1):
        for kept in combinations(range(1, n + 1), kept_size):
            weight = p_e ** (n - kept_size) * (1.0 - p_e) ** kept_size
            total += weight * len(codec.unrecovered_sources(kept))
    return total / k


def reference_analytic_plr(n: int, k: int, p_e: float, failure_prob) -> float:
    """The loss mixture as one term per (i systematic erasures, e erasures),
    each binomial and hypergeometric factor computed afresh."""
    terms = []
    for i in range(1, k + 1):
        for e in range(i, min(n, n - k + i) + 1):
            fail = failure_prob(e)
            if fail == 0.0:
                continue
            binomial = math.comb(n, e) * p_e**e * (1.0 - p_e) ** (n - e)
            terms.append(i * fail * binomial * systematic_erasures_pmf(e, i, n, k))
    return math.fsum(terms) / k


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_analytic_plr_is_bit_identical_to_the_reference_mixture(data):
    n = data.draw(st.integers(1, 200), label="n")
    k = data.draw(st.integers(1, n), label="k")
    p_e = data.draw(st.floats(0.0, 1.0), label="p_e")
    budget = n - k
    assert plr_mds(n, k, p_e).plr == reference_analytic_plr(
        n, k, p_e, lambda e: 1.0 if e > budget else 0.0)
    assert plr_fountain(n, k, p_e).plr == reference_analytic_plr(
        n, k, p_e, lambda e: 1.0 if e > budget else 2.0 ** -(budget - e))


def reference_linear_plr(n: int, k: int, p_e: float, failure_prob) -> float:
    """The loss mixture in O(n) terms: given e erasures, e*k/n of them are
    systematic on average, so the rate is (1/n) * sum_e e * fail(e) * P(E = e)."""
    return math.fsum(e * failure_prob(e) * math.comb(n, e) * p_e**e * (1.0 - p_e) ** (n - e)
                     for e in range(1, n + 1)) / n


@pytest.mark.parametrize("n, k", [(1, 1), (8, 4), (20, 10), (64, 40), (128, 100), (300, 200),
                                  (456, 200)])
@pytest.mark.parametrize("p_e", [1e-4, 1e-3, 0.01, 0.1, 0.5, 0.9])
def test_analytic_plr_matches_the_linear_form(n, k, p_e):
    budget = n - k
    assert plr_mds(n, k, p_e).plr == pytest.approx(
        reference_linear_plr(n, k, p_e, lambda e: 1.0 if e > budget else 0.0), rel=1e-14, abs=0.0)
    assert plr_fountain(n, k, p_e).plr == pytest.approx(
        reference_linear_plr(n, k, p_e, lambda e: 1.0 if e > budget else 2.0 ** -(budget - e)),
        rel=1e-14, abs=0.0)


def test_hypergeometric_corner():
    # all four erasures land on the four systematic packets of (8,4)
    assert systematic_erasures_pmf(4, 4, 8, 4) == pytest.approx(1 / 70, abs=1e-15)
    # sums to one over the support
    s = math.fsum(systematic_erasures_pmf(3, i, 8, 4) for i in range(4))
    assert s == pytest.approx(1.0, abs=1e-12)


def test_hypergeometric_validation():
    with pytest.raises(ValueError):
        systematic_erasures_pmf(9, 0, 8, 4)
    with pytest.raises(ValueError):
        systematic_erasures_pmf(3, 5, 8, 4)


def test_plr_without_parity_is_channel_rate():
    assert plr_mds(4, 4, 0.05).plr == pytest.approx(0.05, rel=1e-12)
    assert plr_fountain(4, 4, 0.05).plr == pytest.approx(0.05, rel=1e-12)


def test_plr_mds_matches_brute_force_small():
    code = build_mds(6, 3)
    for p_e in (0.01, 0.05, 0.3):
        expect = brute_force_plr(6, 3, p_e, code)
        assert plr_mds(6, 3, p_e).plr == pytest.approx(expect, abs=1e-14)


def test_plr_mds_monotonicity():
    # more parity helps, a worse channel hurts
    values = [plr_mds(n, 8, 0.05).plr for n in range(8, 20)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    rates = [plr_mds(12, 8, p).plr for p in (0.01, 0.05, 0.1, 0.3)]
    assert all(a <= b for a, b in zip(rates, rates[1:]))


def test_fountain_bound_dominates_mds():
    for n, k in ((8, 4), (16, 8), (12, 10)):
        for p_e in (0.01, 0.05, 0.2):
            assert plr_fountain(n, k, p_e).plr >= plr_mds(n, k, p_e).plr


def test_fountain_bound_vs_monte_carlo():
    # the 2^-(spare equations) failure model upper-bounds measured loss
    n, k, p_e = 12, 6, 0.1
    bound = plr_fountain(n, k, p_e).plr
    receivers = 30000
    codec = FountainCode(k, seed=19, n=n)
    measured = plr_empirical(codec, n, k, p_e, receivers=receivers, seed=19).plr
    sigma = math.sqrt(bound * (1 - bound) / (receivers * k))
    assert measured <= bound + 3 * sigma


def all_codes_fountain_plr(n: int, k: int, p_e: Fraction) -> Fraction:
    """The loss rate averaged over every erasure pattern and every choice of
    the n - k k-bit columns, each pattern decoded by
    ExplicitXorCodec.unrecovered_sources. A pattern reads only the columns of
    the parity it receives, so for each received parity set the average runs
    over every choice of those columns, with the others zero."""
    p = n - k
    lost: dict[tuple[int, int], int] = {}  # (erasures, received parity): summed over choices
    for kept in range(1 << p):
        js = gf2.ones(kept)
        parity = [k + j for j in js]
        for columns in product(range(1 << k), repeat=len(js)):
            masks = [0] * p
            for j, column in zip(js, columns):
                masks[j - 1] = column
            unrecovered = ExplicitXorCodec(k, masks).unrecovered_sources
            for gone in range(1, 1 << k):
                sources = [t for t in range(1, k + 1) if not gone >> (t - 1) & 1]
                key = (gone.bit_count() + p - len(js), len(js))
                lost[key] = lost.get(key, 0) + len(unrecovered(sources + parity))
    return sum(Fraction(total, 1 << (k * m)) * p_e**e * (1 - p_e) ** (n - e)
               for (e, m), total in lost.items()) / k


@pytest.mark.parametrize("n, k", [(5, 2), (6, 3), (7, 3)])
def test_fountain_ensemble_equals_the_average_over_every_code(n, k):
    p_e = Fraction(1, 10)
    assert fountain_ensemble_plr(n, k, p_e) == all_codes_fountain_plr(n, k, p_e)


@pytest.mark.parametrize("n, k", [(1, 1), (2, 1), (8, 4), (16, 8), (16, 12), (32, 16),
                                  (64, 40), (128, 64), (128, 120)])
def test_fountain_bound_is_at_least_the_ensemble(n, k):
    for p_e in (1e-3, 0.05, 0.3, 0.5, 0.9, 0.99):
        # near p_e = 1 almost every term fails for certain in both, and the float sums
        # round apart by an ulp
        assert plr_fountain(n, k, p_e).plr >= fountain_ensemble_plr(n, k, p_e) * (1 - 1e-12)


def empirical_bernstein_radius(values: list[float], delta: float) -> float:
    """Radius r that the mean of len(values) i.i.d. draws in [0, 1] leaves
    around their expectation with probability at most delta, from the sample
    variance V alone: sqrt(2 V L / m) + 7 L / (3 (m - 1)) with L = ln(4 /
    delta), the empirical Bernstein bound (Maurer and Pontil, COLT 2009,
    Theorem 4) taken on both sides."""
    m = len(values)
    log_term = math.log(4 / delta)
    return (math.sqrt(2 * statistics.variance(values) * log_term / m)
            + 7 * log_term / (3 * (m - 1)))


def test_fountain_seed_mean_is_the_ensemble_rate():
    # Seed s draws the code's columns and its receivers' erasures from separate
    # streams, so the per-seed rates are i.i.d. in [0, 1] with mean exactly the
    # ensemble rate. delta = 1e-3: a fair column draw fails with probability at
    # most 1e-3. At (8, 4) and p_e = 0.4 the exact rate is 0.17151; columns whose
    # ones come with probability 0.45 read 0.18036 over these seeds, further out
    # than their radius of 0.00415.
    n, k, p_e, seeds, receivers = 8, 4, 0.4, 8000, 1024
    rates = [plr_empirical(FountainCode(k, s, n), n, k, p_e, receivers=receivers, seed=s).plr
             for s in range(seeds)]
    gap = abs(statistics.fmean(rates) - fountain_ensemble_plr(n, k, p_e))
    assert gap <= empirical_bernstein_radius(rates, 1e-3)


def test_empirical_matches_analytic_mds():
    codec = build_mds(8, 4)
    analytic = plr_mds(8, 4, 0.05).plr
    measured = plr_empirical(codec, 8, 4, 0.05, receivers=50000, seed=2).plr
    assert abs(measured - analytic) < 2e-4


def test_empirical_worker_count_invariance(monkeypatch):
    # eight batches, so every worker count runs that many threads
    monkeypatch.setattr(analytics, "_BATCH", 4096)
    codec = polar_for_parity(8, 8, 0.05)
    reports = [plr_empirical(codec, 16, 8, 0.05, receivers=30000, seed=5, workers=w)
               for w in (1, 2, 3, 8)]
    assert len({r.plr for r in reports}) == 1


def test_empirical_seed_sensitivity():
    codec = build_mds(8, 4)
    a = plr_empirical(codec, 8, 4, 0.2, receivers=20000, seed=1).plr
    b = plr_empirical(codec, 8, 4, 0.2, receivers=20000, seed=1).plr
    c = plr_empirical(codec, 8, 4, 0.2, receivers=20000, seed=2).plr
    assert a == b
    assert a != c


def test_empirical_validates_codec_shape():
    codec = build_mds(8, 4)
    with pytest.raises(ValueError):
        plr_empirical(codec, 8, 6, 0.05)
    with pytest.raises(ValueError):
        plr_empirical(codec, 10, 4, 0.05)


def test_min_parity_trivial_target():
    # a target at or above the channel rate needs no parity at all
    plan = min_parity("mds", 10, 0.05, 0.05)
    assert plan.p == 0
    assert plan.n == 10
    assert plan.plr == pytest.approx(0.05)


def test_min_parity_is_minimal_mds():
    plan = min_parity("mds", 10, 0.05, 1e-6)
    assert plan is not None
    assert plr_mds(10 + plan.p, 10, 0.05).plr <= 1e-6
    assert plr_mds(10 + plan.p - 1, 10, 0.05).plr > 1e-6


def test_min_parity_relaxation_monotone():
    for family in ("mds", "fountain"):
        tight = min_parity(family, 20, 0.05, 0.001)
        loose = min_parity(family, 20, 0.05, 0.01)
        assert loose.p <= tight.p


def test_min_parity_fountain_needs_at_least_mds():
    for k in (6, 12, 24, 44):
        for target in (0.01, 0.001):
            f = min_parity("fountain", k, 0.05, target)
            m = min_parity("mds", k, 0.05, target)
            assert f.p >= m.p


def test_min_parity_polar_monte_carlo():
    plan = min_parity("polar", 8, 0.05, 0.01, receivers=20000, seed=3)
    assert plan is not None
    assert plan.method == "mc"
    assert plan.block_length is not None
    assert plan.n == 8 + plan.p
    # the found plan actually meets the target when re-measured
    codec = polar_for_parity(8, plan.p, 0.05)
    again = plr_empirical(codec, plan.n, 8, 0.05, receivers=20000, seed=3).plr
    assert again <= 0.01


def reference_min_parity_polar(k: int, p_e: float, target: float, receivers: int, seed: int,
                               workers: int) -> ParityPlan | None:
    """The per-p scan: a new codec and one plr_empirical call for each n."""
    if p_e <= target:
        return ParityPlan(family="polar", k=k, p=0, n=k, plr=p_e, method="analytic")
    for p in range(1, PARITY_SCAN_CAP + 1):
        n = k + p
        if n > rng.MAX_PACKETS:
            return None
        codec = build_codec("polar", n, k, epsilon=p_e)
        plr = plr_empirical(codec, n, k, p_e, receivers=receivers, seed=seed,
                            workers=workers).plr
        if plr <= target:
            return ParityPlan(family="polar", k=k, p=p, n=n, plr=plr, method="mc",
                              receivers=receivers, seed=seed,
                              block_length=codec.n)
    return None


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("k, p_e, target, receivers, seed", [
    (8, 0.05, 1e-3, 5_000, 0),
    (8, 0.05, 1e-3, 5_000, 3),
    (16, 0.05, 1e-3, 5_000, 0),
    (20, 0.1, 1e-3, 5_000, 0),  # p=12 fills the 32-packet block
    (20, 0.1, 1e-4, 5_000, 0),  # the scan crosses into the 64-packet block
    (12, 0.3, 1e-2, 3_000, 4),
    (60, 0.3, 1e-7, 500, 1),  # None at the 64-packet cap
    (8, 0.01, 0.05, 5_000, 0),  # p=0 meets the target
])
def test_min_parity_polar_equals_the_per_parity_scan(monkeypatch, k, p_e, target, receivers,
                                                     seed, workers):
    monkeypatch.setattr(analytics, "_BATCH", 256)  # so two workers run two threads
    want = reference_min_parity_polar(k, p_e, target, receivers, seed, workers)
    got = min_parity("polar", k, p_e, target, receivers=receivers, seed=seed, workers=workers)
    assert got == want


def reference_min_parity_analytic(family: str, k: int, p_e: float,
                                  target: float) -> ParityPlan | None:
    """The per-p scan for MDS and fountain: the channel rate at p = 0, then
    the analytic rate at each n, MDS while n fits GF(256)."""
    plr_of = {"mds": plr_mds, "fountain": plr_fountain}[family]
    for p in range(PARITY_SCAN_CAP + 1):
        n = k + p
        if family == "mds" and n > 256:
            return None
        plr = p_e if p == 0 else plr_of(n, k, p_e).plr
        if plr <= target:
            return ParityPlan(family=family, k=k, p=p, n=n, plr=plr, method="analytic")
    return None


@pytest.mark.parametrize("family, k, p_e, target, p", [
    ("mds", 10, 0.05, 0.05, 0),  # the channel rate meets the target
    ("fountain", 10, 0.05, 0.05, 0),
    ("mds", 250, 0.01, 1e-3, 6),  # all 6 parity packets that the 256-packet cap leaves
    ("mds", 250, 0.002, 1e-8, None),  # p=7 would meet it, past the cap
    ("fountain", 250, 0.002, 1e-8, 20),  # no cap
    ("mds", 200, 0.5, 1e-12, None),  # unreachable
    ("fountain", 200, 0.5, 1e-12, None),
    ("fountain", 20, 0.1, 1e-6, 24),  # more than 10 parity packets
])
def test_min_parity_analytic_equals_the_per_parity_scan(family, k, p_e, target, p):
    want = reference_min_parity_analytic(family, k, p_e, target)
    assert (want.p if want else None) == p
    assert min_parity(family, k, p_e, target) == want


@pytest.mark.parametrize("family", ["mds", "fountain", "polar"])
def test_min_parity_checks_receivers_and_workers_up_front(family):
    # p_e <= target, p_e = 1, an analytic family and the 64-packet cap all
    # return before any Monte-Carlo run; the checks come first all the same
    for k, p_e, target in ((8, 0.01, 0.05), (8, 1.0, 1e-6), (8, 0.05, 1e-3), (64, 0.05, 1e-3)):
        with pytest.raises(ValueError, match="^need at least one receiver$"):
            min_parity(family, k, p_e, target, receivers=0)
        with pytest.raises(ValueError, match="^need at least one worker$"):
            min_parity(family, k, p_e, target, workers=0)


@pytest.mark.parametrize("family", ["mds", "fountain", "polar"])
def test_min_parity_returns_none_when_every_packet_is_lost(family):
    assert min_parity(family, 8, 1.0, 0.5) is None
    assert min_parity(family, 8, 1.0, 1e-6, receivers=1) is None


def test_min_parity_unreachable_returns_none():
    assert min_parity("mds", 200, 0.5, 1e-12) is None


def test_min_parity_past_the_mds_field_size_still_plans_no_parity():
    # k=300 fits no MDS block, but a target at the channel rate needs no parity
    for family in ("mds", "fountain", "polar"):
        plan = min_parity(family, 300, 0.01, 0.05)
        assert (plan.p, plan.n, plan.plr, plan.method) == (0, 300, 0.01, "analytic")
    assert min_parity("mds", 300, 0.05, 0.01) is None
    assert min_parity("mds", 256, 0.05, 0.01) is None
    # the MDS scan stops at the field size, far below the analytic block cap
    assert min_parity("mds", 1100, 0.05, 1e-6) is None


def test_analytic_rates_below_their_block_cap_are_pinned():
    # recorded before the cap: every rate at n <= 1,029 stays bit-identical
    assert plr_mds(1029, 1000, 0.05).plr == 0.04999008794300262
    assert plr_fountain(1029, 1000, 0.05).plr == 0.0499966403966747
    plan = min_parity("fountain", 1000, 0.001, 1e-9)
    assert (plan.p, plan.n, plan.plr) == (23, 1023, 6.621666126685932e-10)


def test_min_parity_fountain_stops_at_the_analytic_block_cap():
    # k=1000 leaves room for 29 parity packets, too few at p_e = 0.05
    assert min_parity("fountain", 1000, 0.05, 1e-6) is None
    assert min_parity("fountain", 1029, 0.05, 1e-6) is None
    # a k past the cap needs no analytic rate when no parity is needed
    for family in ("mds", "fountain"):
        plan = min_parity(family, 1100, 0.01, 0.05)
        assert (plan.p, plan.n, plan.method) == (0, 1100, "analytic")


def test_min_parity_polar_stops_at_the_simulated_block_cap():
    # k=60 leaves room for 4 parity packets before k+p passes 64 packets
    assert min_parity("polar", 60, 0.3, 1e-7, receivers=500, seed=1) is None


def test_empirical_leaves_no_state_on_the_codec(monkeypatch):
    monkeypatch.setattr(analytics, "_BATCH", 625)  # eight batches for eight workers
    codec = polar_for_parity(8, 4, 0.05)
    before = dict(vars(codec))
    first = plr_empirical(codec, 12, 8, 0.05, receivers=5000, seed=2)
    assert vars(codec) == before
    # more workers than cores and frequent thread switches must not change the count
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        again = plr_empirical(codec, 12, 8, 0.05, receivers=5000, seed=2, workers=8)
    finally:
        sys.setswitchinterval(interval)
    assert again == first
    assert vars(codec) == before


@pytest.mark.parametrize("workers", [1, 2])
def test_empirical_memory_does_not_grow_with_the_receivers(workers):
    # A worker holds one batch at a time: its _BATCH uint64 masks, np.unique's
    # sorted copy and its flags and indices, at most 3 words per receiver, and
    # erasure_masks' scratch, 4 words per receiver of a _PIECE. So the traced
    # peak stays under workers * (24 * _BATCH + 32 * _PIECE) bytes, 7 MiB per
    # worker, whatever the receiver count.
    ceiling = workers * (24 * analytics._BATCH + 32 * rng._PIECE)
    codec = polar_for_parity(12, 4, 0.05)
    peaks = []
    for receivers in (1 << 20, 1 << 22):
        tracemalloc.start()
        try:
            plr_empirical(codec, 16, 12, 0.05, receivers=receivers, seed=3, workers=workers)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks
    assert max(peaks) <= ceiling, (peaks, ceiling)


def test_empirical_loss_total_equals_the_oracle_total(monkeypatch):
    monkeypatch.setattr(analytics, "_BATCH", 1 << 15)
    n, k, p_e, receivers = 16, 12, 0.05, 300_000
    codec = polar_for_parity(k, n - k, p_e)
    full = (1 << n) - 1

    def oracle_total(seed: int) -> int:
        masks, cnts = np.unique(rng.erasure_masks(seed, 0, receivers, n, p_e),
                                return_counts=True)
        return sum(len(codec.unrecovered_sources(gf2.ones(~m & full))) * c
                   for m, c in zip(masks.tolist(), cnts.tolist()))

    # 300,000 receivers span ten batches at one worker; eight worker threads
    # switching often each count their own range
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(3):
            want = oracle_total(seed) / (receivers * k)
            for workers in (1, 8):
                got = plr_empirical(codec, n, k, p_e, receivers=receivers, seed=seed,
                                    workers=workers)
                assert got.plr == want, (seed, workers)
    finally:
        sys.setswitchinterval(interval)


def test_lost_totals_are_pinned_for_every_family():
    # recorded from the whole-array mask draw; 300,000 receivers span two
    # batches and are no multiple of the mask draw's piece size
    want = {
        "mds": [179791, 82600, 24064, 4985, 848],
        "fountain": [179791, 106486, 78248, 35149, 12839],
        "polar": [179791, 82600, 46402, 22982, 9282],
    }
    codecs = {"mds": build_mds(16, 12), "fountain": FountainCode(12, 0, n=16),
              "polar": polar_for_parity(12, 4, 0.05)}
    for family, codec in codecs.items():
        for workers in (1, 2):
            assert _lost_totals(codec, 16, 0.05, 300_000, 0, workers) == want[family], \
                (family, workers)


class SerialPool:
    """Stands in for ThreadPoolExecutor: runs every range on the calling thread."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return list(map(fn, *iterables))


def test_lost_totals_start_no_more_threads_than_batches(monkeypatch):
    # 300,000 receivers fill two batches, so a thousand workers get two threads
    started = []

    class CountingPool(SerialPool):
        def __init__(self, max_workers):
            started.append(max_workers)

    codec = polar_for_parity(12, 4, 0.05)
    want = plr_empirical(codec, 16, 12, 0.05, receivers=300_000, seed=0, workers=1)
    monkeypatch.setattr(analytics, "ThreadPoolExecutor", CountingPool)
    got = plr_empirical(codec, 16, 12, 0.05, receivers=300_000, seed=0, workers=1000)
    assert started and max(started) <= 2
    assert got.plr == want.plr


PLACEMENT = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs thread placement and at least two CPUs")


@PLACEMENT
@pytest.mark.parametrize("serial", [False, True], ids=["threads", "serial pool"])
def test_two_workers_move_to_their_own_cpus_and_give_them_back(monkeypatch, serial):
    # two workers get 10,000 receivers each, three 4,096-receiver batches
    # apiece; each worker thread moves to its own share of the caller's
    # CPUs and gives them all back before its first batch. The serial pool
    # runs both ranges on the calling thread, which must keep its own CPUs
    monkeypatch.setattr(analytics, "_BATCH", 4096)
    codec = polar_for_parity(12, 4, 0.05)
    want = plr_empirical(codec, 16, 12, 0.05, receivers=20_000, seed=4, workers=1)
    caller = os.sched_getaffinity(0)
    moves, batches = {}, []
    real_move, real_draw = os.sched_setaffinity, rng.erasure_masks

    def move(tid, cpus):
        moves.setdefault(tid, []).append(set(cpus))
        real_move(tid, cpus)

    def draw(*args):
        batches.append((threading.get_native_id(), os.sched_getaffinity(0)))
        return real_draw(*args)

    monkeypatch.setattr(os, "sched_setaffinity", move)
    monkeypatch.setattr(rng, "erasure_masks", draw)
    if serial:
        monkeypatch.setattr(analytics, "ThreadPoolExecutor", SerialPool)
    got = plr_empirical(codec, 16, 12, 0.05, receivers=20_000, seed=4, workers=2)
    assert got.plr == want.plr
    assert os.sched_getaffinity(0) == caller
    # the pool may hand both ranges to one thread: on each thread every move
    # to a share is followed by the give-back, and each share is taken once
    for cpus in moves.values():
        assert len(cpus) % 2 == 0 and cpus[1::2] == [caller] * (len(cpus) // 2), moves
    taken = sorted(sorted(share) for cpus in moves.values() for share in cpus[0::2])
    assert taken == sorted(sorted(caller)[w::2] for w in range(2))
    assert len(batches) == 6 and all(cpus == caller for _, cpus in batches)
    assert {tid for tid, _ in batches} <= set(moves)
    main = threading.get_native_id()
    assert set(moves) == {main} if serial else main not in moves


@PLACEMENT
def test_more_workers_than_cpus_are_left_to_the_scheduler(monkeypatch):
    # one worker more than the caller's CPUs: the shares would overlap, so
    # no worker moves
    monkeypatch.setattr(analytics, "_BATCH", 4096)
    workers = len(os.sched_getaffinity(0)) + 1
    codec = polar_for_parity(12, 4, 0.05)
    want = plr_empirical(codec, 16, 12, 0.05, receivers=4096 * workers, seed=4, workers=1)
    moved = []
    monkeypatch.setattr(os, "sched_setaffinity", lambda *args: moved.append(args))
    got = plr_empirical(codec, 16, 12, 0.05, receivers=4096 * workers, seed=4,
                        workers=workers)
    assert moved == []
    assert got.plr == want.plr


@PLACEMENT
@pytest.mark.parametrize("refuse", ["move", "give back"])
def test_a_refused_placement_keeps_the_totals(monkeypatch, refuse):
    # the kernel refuses the move to a share or the give-back, as when the
    # cpuset shrinks during the call; the worker runs where it is
    monkeypatch.setattr(analytics, "_BATCH", 4096)
    codec = polar_for_parity(12, 4, 0.05)
    want = plr_empirical(codec, 16, 12, 0.05, receivers=20_000, seed=4, workers=2)
    caller, real, refused = os.sched_getaffinity(0), os.sched_setaffinity, []

    def move(tid, cpus):
        if (set(cpus) == caller) == (refuse == "give back"):
            refused.append(tid)
            raise OSError("cpuset changed")
        real(tid, cpus)

    monkeypatch.setattr(os, "sched_setaffinity", move)
    got = plr_empirical(codec, 16, 12, 0.05, receivers=20_000, seed=4, workers=2)
    assert len(refused) == 2 and got.plr == want.plr
    assert os.sched_getaffinity(0) == caller


def test_empirical_at_channel_extremes():
    # no erasure loses nothing; erasing every packet loses every source
    for codec in (build_mds(16, 12), FountainCode(12, 4, n=16), polar_for_parity(12, 4, 0.05)):
        assert plr_empirical(codec, 16, 12, 0.0, receivers=1000, seed=1).plr == 0.0
        assert plr_empirical(codec, 16, 12, 1.0, receivers=1000, seed=1).plr == 1.0


def test_min_parity_validation():
    with pytest.raises(ValueError):
        min_parity("huffman", 8, 0.05, 0.01)
    with pytest.raises(ValueError):
        min_parity("mds", 8, 0.05, 0.0)


def test_op_count_examples():
    assert op_count("mds", 1, 1).per_column == pytest.approx(1.0)
    assert op_count("mds", 8, 4).per_column == pytest.approx(15.0)
    assert op_count("fountain", 9, 4).per_column == pytest.approx(4.0)
    assert op_count("polar", 9, 4).per_column == pytest.approx(4.0)


def test_op_count_scaling():
    a = op_count("mds", 8, 4, packet_size=1500)
    assert a.per_packet == pytest.approx(15.0 * 1500)
    assert a.per_block == pytest.approx(15.0 * 1500 * 4)
    b = op_count("fountain", 9, 2, packet_size=1600, word_bytes=8)
    assert b.per_packet == pytest.approx(4.0 * 200)
    assert b.per_block == pytest.approx(4.0 * 200 * 2)


def test_delay_budget_zero_case():
    assert delay_budget(0.0, 0.0, 0, 0.0, 0.0, 0.0) == 0.0


def test_delay_budget_composition():
    base = delay_budget(rtt=0.1, packet_interval=0.0012, k=10, encode_delay=1e-4,
                        decode_delay=1e-4, transmit_delay=0.0012)
    assert base == pytest.approx(0.0634, abs=1e-12)
    # each feedback round adds a round trip plus both transmissions
    with_arq = delay_budget(rtt=0.1, packet_interval=0.0012, k=10, encode_delay=1e-4,
                            decode_delay=1e-4, transmit_delay=0.0012, repair_rounds=2)
    assert with_arq == pytest.approx(base + 2 * (0.1 + 2 * 0.0012), abs=1e-12)


def test_collectable_packets_reference_point():
    # a 100 ms budget at 1.2 ms spacing collects the leading packet plus 83
    assert collectable_packets(0.1, 0.0012) == 84
    assert collectable_packets(0.0, 0.0012) == 1
    with pytest.raises(ValueError):
        collectable_packets(0.1, 0.0)


@pytest.mark.parametrize("call, message", [
    (lambda: delay_budget(-0.1, 0.0, 0, 0.0, 0.0, 0.0), "delay components must be non-negative"),
    (lambda: delay_budget(0.0, 0.0, 0, 0.0, -1e-6, 0.0), "delay components must be non-negative"),
    (lambda: delay_budget(0.0, 0.0, -1, 0.0, 0.0, 0.0), "counts must be non-negative"),
    (lambda: delay_budget(0.0, 0.0, 0, 0.0, 0.0, 0.0, repair_rounds=-1),
     "counts must be non-negative"),
    (lambda: collectable_packets(-0.1, 0.0012), "budget must be non-negative"),
    # zero repair rounds times an infinite transmit delay would be NaN
    (lambda: delay_budget(0.1, 0.1, 8, 0, 0, float("inf")), "delay components must be finite"),
    (lambda: delay_budget(float("nan"), 0.1, 8, 0, 0, 0), "delay components must be finite"),
    (lambda: delay_budget(0.1, 0.1, 8, float("-inf"), 0, 0), "delay components must be finite"),
    (lambda: collectable_packets(float("inf"), 0.1), "budget and packet interval must be finite"),
    (lambda: collectable_packets(1.0, float("nan")), "budget and packet interval must be finite"),
    (lambda: collectable_packets(1.0, float("inf")), "budget and packet interval must be finite"),
    (lambda: delay_budget(0.1, 0.1, float("nan"), 0, 0, 0), "counts must be finite"),
    (lambda: delay_budget(0.1, 0.1, 8, 0, 0, 0, repair_rounds=float("inf")),
     "counts must be finite"),
], ids=["rtt", "decode delay", "k", "repair rounds", "budget", "infinite transmit delay",
        "NaN rtt", "minus infinite encode delay", "infinite budget", "NaN interval",
        "infinite interval", "NaN k", "infinite repair rounds"])
def test_delay_inputs_must_be_non_negative(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("budget, interval, packets", [(0.3, 0.1, 4), (0.7, 0.1, 8),
                                                        (0.6, 0.2, 4)])
def test_collectable_packets_counts_the_packet_at_an_exact_multiple(budget, interval, packets):
    # 0.3 / 0.1 and 0.6 / 0.2 are 2.9999999999999996, 0.7 / 0.1 is 6.999999999999999
    assert collectable_packets(budget, interval) == packets
