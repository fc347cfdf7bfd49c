"""Acceptance gate: twelve numbered criteria, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Criterion 7 is statistical and slow; it carries the `slow` marker.
"""
from __future__ import annotations

import math
import time
from itertools import combinations, permutations

import pytest

from erasurelab import analytics, bench
from erasurelab.codec import ExplicitXorCodec
from erasurelab.fountain import FountainCode
from erasurelab.gf2 import xor_rows
from erasurelab.gf256 import build_mds
from erasurelab.multicast import enumerate_patterns, simulate_incremental, weighted_cdf
from erasurelab.polar import PolarCodec, bhattacharyya, channel_split, quality_order

BEST_FIRST_16 = [16, 15, 14, 12, 8, 13, 11, 10, 7, 6, 4, 9, 5, 3, 2, 1]


def verdict(number: int, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[acceptance] criterion {number}: {state}{suffix}")
    assert ok, f"criterion {number} failed{suffix}"


def test_criterion_01_channel_ordering_golden():
    # warm-up, then time the real computation
    bhattacharyya(4, 0.05)
    elapsed = []
    for _ in range(3):
        t0 = time.perf_counter()
        z = bhattacharyya(4, 0.05)
        order = quality_order(z)
        info, frozen = channel_split(4, 8, 0.05)
        elapsed.append(time.perf_counter() - t0)
    ok = (order == BEST_FIRST_16
          and info == (16, 15, 14, 12, 8, 13, 11, 10)
          and frozen == (1, 2, 3, 5, 9, 4, 6, 7)
          and min(elapsed) < 1e-3)
    verdict(1, ok, f"min runtime {min(elapsed)*1e6:.0f} us")


def test_criterion_02_degree_golden():
    c = PolarCodec(4, 10, 0.05)
    ok = (c.raw_degrees() == [16, 8, 8, 8, 8, 4]
          and c.effective_degrees() == [10, 6, 6, 7, 7, 3])
    verdict(2, ok)


def kernel_rows(m: int) -> list[int]:
    """Packed rows of the Kronecker power of [[1, 0], [1, 1]] by its recursion."""
    rows = [1]
    for _ in range(m):
        half = len(rows)
        rows = rows + [r | (r << half) for r in rows]
    return rows


def is_identity_square(rows: list[int]) -> bool:
    return [xor_rows(r, rows) for r in rows] == [1 << i for i in range(len(rows))]


def test_criterion_03_self_inverse_suite():
    t0 = time.perf_counter()
    ok = True
    for m in range(11):
        ok = ok and is_identity_square(kernel_rows(m))
    for m in range(1, 7):
        n = 1 << m
        g = kernel_rows(m)
        for k in range(1, n):
            for eps in (0.01, 0.05, 0.2):
                c = PolarCodec(m, k, eps)
                rows = [ch - 1 for ch in sorted(c.info_channels)]
                sub = [sum(((g[i] >> j) & 1) << s for s, j in enumerate(rows)) for i in rows]
                ok = ok and is_identity_square(sub)
    elapsed = time.perf_counter() - t0
    verdict(3, ok and elapsed < 10.0, f"{elapsed:.1f}s")


def test_criterion_04_mds_exhaustive():
    t0 = time.perf_counter()
    ok = True
    for n, k in ((6, 3), (8, 4), (8, 6), (10, 5)):
        code = build_mds(n, k)
        src = [bytes(((i * 31 + b) & 0xFF for b in range(16))) for i in range(k)]
        parity = code.encode(src, n - k)
        packets = {i + 1: src[i] for i in range(k)}
        packets.update({k + j + 1: parity[j] for j in range(n - k)})
        for e in range(n - k + 1):
            for lost in combinations(range(1, n + 1), e):
                out = code.decode({i: packets[i] for i in packets if i not in lost})
                ok = ok and not out.unrecoverable
                ok = ok and all(out.recovered[i + 1] == src[i] for i in range(k))
        failing = sum(1 for lost in combinations(range(1, n + 1), n - k + 1)
                      if code.unrecovered_sources(set(range(1, n + 1)) - set(lost)))
        ok = ok and failing >= 1
    elapsed = time.perf_counter() - t0
    verdict(4, ok and elapsed < 30.0, f"{elapsed:.1f}s")


def test_criterion_05_mds_formula_vs_enumeration():
    t0 = time.perf_counter()
    ok = True
    worst = 0.0
    for n, k in ((8, 4), (16, 12)):
        code = build_mds(n, k)
        for p_e in (0.05,):
            terms = []
            for mask in range(1 << n):
                kept = [i + 1 for i in range(n) if not (mask >> i) & 1]
                lost_count = len(code.unrecovered_sources(kept))
                if lost_count:
                    e = n - len(kept)
                    terms.append(p_e**e * (1 - p_e) ** (n - e) * lost_count)
            brute = math.fsum(terms) / k
            delta = abs(analytics.plr_mds(n, k, p_e).plr - brute)
            worst = max(worst, delta)
            ok = ok and delta < 1e-12
    elapsed = time.perf_counter() - t0
    verdict(5, ok and elapsed < 60.0, f"worst |d|={worst:.2e}, {elapsed:.1f}s")


def test_criterion_06_fountain_bound_one_sided():
    t0 = time.perf_counter()
    n, k, p_e = 16, 8, 0.05
    receivers = 50_000
    bound = analytics.plr_fountain(n, k, p_e).plr
    codec = FountainCode(k, seed=1, n=n)
    measured = analytics.plr_empirical(codec, n, k, p_e, receivers=receivers,
                                       seed=1, workers=4).plr
    sigma = math.sqrt(max(measured, 1e-9) * (1 - measured) / (receivers * k))
    elapsed = time.perf_counter() - t0
    ok = bound >= measured - 3 * sigma and elapsed < 60.0
    verdict(6, ok, f"bound={bound:.3e} measured={measured:.3e}")


def exact_loss_moments(codec, n: int, k: int, p_e: float) -> tuple[float, float]:
    """Exact loss rate and variance of one receiver's loss fraction L/k.

    Reference path for criterion 7: it enumerates all 2^n erasure patterns
    through `unrecovered_sources` alone, weighting a pattern with e erasures
    by p_e^e (1 - p_e)^(n - e). Returns (mu, v): mu is the exact PLR and v
    the variance of L/k, a value in [0, 1].
    """
    first, second = [], []
    for mask in range(1 << n):
        survivors = [t + 1 for t in range(n) if not (mask >> t) & 1]
        lost = len(codec.unrecovered_sources(survivors))
        if lost:
            e = bin(mask).count("1")
            weight = p_e**e * (1 - p_e) ** (n - e)
            first.append(weight * lost / k)
            second.append(weight * (lost / k) ** 2)
    mu = math.fsum(first)
    return mu, math.fsum(second) - mu * mu


def bernstein_radius(receivers: int, variance: float, delta: float) -> float:
    """Radius r that the mean of `receivers` i.i.d. values in [0, 1] with the
    given variance leaves around its expectation with probability at most
    delta: the positive root of R r^2 = 2 ln(2/delta) (v + r/3)."""
    log_term = math.log(2 / delta)
    return (log_term / 3
            + math.sqrt(log_term**2 / 9 + 2 * receivers * log_term * variance)) / receivers


@pytest.mark.slow
def test_criterion_07_estimator_consistency_scaled():
    # seeds declared up front; the pairs below were fixed before any
    # outcome was observed and are not tuned
    seed_pairs = [(1, 1001), (2, 1002), (3, 1003)]
    codes = [(3, 4), (3, 6), (4, 8), (4, 10), (4, 12)]
    small_receivers, big_receivers = 50_000, 5_000_000
    # Each estimate is the mean of a receiver's loss fraction L/k in [0, 1],
    # so Bernstein's inequality bounds its distance from the exact rate mu.
    # 30 estimates (5 shapes x 3 seed pairs x 2 sizes) share a false-alarm
    # budget of 1e-3 by the union bound: delta = 1e-3 / 30 each, so a correct
    # estimator fails this criterion with probability at most 1e-3. Exact
    # rates at p_e = 0.05, with the standard deviation of a 50k estimate:
    #   (8,4) 2.0613e-4, 4.55e-5   (8,6) 6.3652e-3, 1.97e-4
    #   (16,8) 4.8818e-5, 1.56e-5  (16,10) 2.5579e-4, 3.38e-5
    #   (16,12) 2.6160e-3, 9.42e-5
    # A fixed bound of 2e-4 on |d| would sit at only 1.0 standard deviation
    # of d at (8,6) and 2.1 at (16,12). A normal z is no fit either: a 50k
    # estimate rests on about 20 lost packets at (16,8) and 40 at (8,4), too
    # few for normal tails; Bernstein's bound holds at any count.
    delta = 1e-3 / 30
    failing = 0
    worst = 0.0
    for m, k in codes:
        n = 1 << m
        codec = PolarCodec(m, k, 0.05)
        mu, variance = exact_loss_moments(codec, n, k, 0.05)
        r_small = bernstein_radius(small_receivers, variance, delta)
        r_big = bernstein_radius(big_receivers, variance, delta)
        print(f"  {(n, k)} exact={mu:.4e} r50k={r_small:.3e} r5M={r_big:.3e}")
        for s_small, s_big in seed_pairs:
            small = analytics.plr_empirical(codec, n, k, 0.05, receivers=small_receivers,
                                            seed=s_small, workers=4).plr
            big = analytics.plr_empirical(codec, n, k, 0.05, receivers=big_receivers,
                                          seed=s_big, workers=4).plr
            diff = abs(small - big)
            # the third check follows from the first two; it is stated on its
            # own as the consistency across scale this criterion is about
            ok = (abs(small - mu) <= r_small and abs(big - mu) <= r_big
                  and diff <= r_small + r_big)
            failing += not ok
            worst = max(worst, abs(small - mu) / r_small, abs(big - mu) / r_big)
            print(f"  {(n, k)} seed {s_small}: 50k={small:.6e} 5M={big:.6e} "
                  f"|d|={diff:.3e} r={r_small + r_big:.3e} "
                  f"50k-mu={small - mu:+.3e} 5M-mu={big - mu:+.3e} "
                  f"{'ok' if ok else 'OVER'}")
    verdict(7, not failing,
            f"worst |estimate - exact| at {worst:.2f} of its Bernstein radius, "
            f"{failing}/15 draws over")


def test_criterion_08_multicast_cdf_shape():
    t0 = time.perf_counter()
    ok = True
    detail = []
    for p_e in (0.01, 0.05):
        k, e_max = 8, 4
        patterns = enumerate_patterns(k, e_max, p_e)
        mds = build_mds(k + e_max, k)
        mds_curve = weighted_cdf(simulate_incremental(mds, patterns, rounds=e_max),
                                 patterns)
        polar = PolarCodec(4, k, p_e)
        polar_table = simulate_incremental(polar, patterns, rounds=8)
        polar_curve = weighted_cdf(polar_table, patterns)

        # (a) the MDS curve is the truncated binomial expression
        weight = math.fsum(math.comb(k, i) * p_e**i * (1 - p_e) ** (k - i)
                           for i in range(1, e_max + 1))
        for t, fraction in mds_curve.points:
            expect = math.fsum(math.comb(k, i) * p_e**i * (1 - p_e) ** (k - i)
                               for i in range(1, min(t, e_max) + 1)) / weight
            ok = ok and abs(fraction - expect) < 1e-12

        # (b) the all-ones first column repairs every single loss at once
        for idx, pat in enumerate(patterns.patterns):
            if len(pat.lost) == 1:
                ok = ok and polar_table.full_recovery_round(idx) == 1

        # (c) binary never beats MDS, and catches up by the last round
        mds_points = dict(mds_curve.points)
        mds_final = mds_curve.points[-1][1]
        for t, fraction in polar_curve.points:
            reference = mds_points.get(t, mds_final)
            ok = ok and fraction <= reference + 1e-12
        if p_e == 0.01:
            gap = mds_final - polar_curve.points[-1][1]
            detail.append(f"final gap {gap:.3e}")
            ok = ok and gap < 0.1

    # (d) a 4-loss pattern over the whole 16-packet block that never decodes
    codec = PolarCodec(4, 8, 0.05)
    everything = set(range(1, 17))
    failing = sum(1 for lost in combinations(range(1, 17), 4)
                  if codec.unrecovered_sources(everything - set(lost)))
    detail.append(f"{failing} stuck 4-loss patterns")
    ok = ok and failing >= 1
    elapsed = time.perf_counter() - t0
    verdict(8, ok and elapsed < 30.0, "; ".join(detail))


def test_criterion_09_reservoir_order_is_optimal():
    t0 = time.perf_counter()
    c = PolarCodec(4, 8, 0.05)
    masks = list(c.masks)
    patterns = enumerate_patterns(8, 3, 0.05)

    def area(order):
        codec = ExplicitXorCodec(8, [masks[i] for i in order] + masks[4:])
        curve = weighted_cdf(simulate_incremental(codec, patterns, rounds=8),
                             patterns)
        return sum(f for _, f in curve.points)

    designed = area((0, 1, 2, 3))
    best = max(area(p) for p in permutations(range(4)))
    elapsed = time.perf_counter() - t0
    ok = designed >= best - 1e-12 and elapsed < 60.0
    verdict(9, ok, f"designed auc={designed:.6f} best={best:.6f}")


def test_criterion_10_planner_monotone_and_ordered():
    t0 = time.perf_counter()
    ok = True
    plans = {}
    for family in ("mds", "fountain", "polar"):
        for k in (10, 20, 40):
            for target in (0.01, 0.001):
                plan = analytics.min_parity(family, k, 0.05, target,
                                            receivers=50_000, seed=1, workers=4)
                ok = ok and plan is not None
                plans[family, k, target] = plan.p if plan else None
    for family in ("mds", "fountain", "polar"):
        for k in (10, 20, 40):
            ok = ok and plans[family, k, 0.01] <= plans[family, k, 0.001]
    for k in (10, 20, 40):
        for target in (0.01, 0.001):
            ok = ok and plans["fountain", k, target] >= plans["mds", k, target]
    elapsed = time.perf_counter() - t0
    verdict(10, ok and elapsed < 300.0, f"{elapsed:.1f}s")


def test_criterion_11_binary_beats_mds_throughput():
    t0 = time.perf_counter()
    k, p, e, size = 36, 8, 8, 1500
    slow_code = bench.bench_codec("mds", k, p, packet_size=size, erasure_count=e,
                                  iterations=100, seed=5)
    fast_code = bench.bench_codec("fountain", k, p, packet_size=size,
                                  erasure_count=e, iterations=100, seed=5)
    ok = slow_code.decode_complete and fast_code.decode_complete
    mds_ns = slow_code.encode.median_ns + slow_code.decode.median_ns
    binary_ns = fast_code.encode.median_ns + fast_code.decode.median_ns
    ratio = mds_ns / binary_ns
    elapsed = time.perf_counter() - t0
    ok = ok and ratio >= 1.5 and elapsed < 120.0
    verdict(11, ok, f"measured ratio {ratio:.1f}x (platform specific)")


def test_criterion_12_command_line_determinism():
    from click.testing import CliRunner

    from erasurelab.cli import main

    def run(args):
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 0, result.output
        return result.output

    ok = True
    plr_args = ["plr", "--family", "polar", "--n", "16", "--k", "8", "--pe", "0.05",
                "--method", "mc", "--receivers", "30000", "--seed", "7"]
    a = run(plr_args + ["--workers", "1"])
    b = run(plr_args + ["--workers", "1"])
    c = run(plr_args + ["--workers", "6"])
    ok = ok and a == b == c

    mc_args = ["multicast", "--k", "8", "--pe", "0.05", "--emax", "3",
               "--families", "mds,fountain,polar", "--seed", "13"]
    ok = ok and run(mc_args) == run(mc_args)

    plan_args = ["plan", "--family", "polar", "--k", "8", "--pe", "0.05",
                 "--plr-target", "0.01", "--receivers", "20000", "--seed", "4"]
    ok = ok and run(plan_args) == run(plan_args)
    verdict(12, ok)
