"""Timing harness: shape of reports, verification behavior, scaling."""
from __future__ import annotations

import statistics

import pytest

from erasurelab import bench
from erasurelab.bench import Timing, bench_codec


def test_timing_quartiles():
    t = Timing.of([10, 20, 30, 40, 50])
    assert t.median_ns == 30
    assert t.p25_ns <= t.median_ns <= t.p75_ns


def test_report_fields_and_throughput():
    report = bench_codec("fountain", 8, 4, packet_size=256, iterations=100, seed=1)
    assert report.family == "fountain"
    assert report.k == 8 and report.p == 4
    assert report.erasure_count == 4
    assert report.iterations >= 100
    assert report.encode.median_ns > 0
    assert report.decode.median_ns > 0
    assert report.encode_mbytes_per_s > 0
    assert report.model.per_column == pytest.approx(3.5)


def test_zero_parity_encode_is_noise_level():
    # no parity means no arithmetic; both families finish in microseconds
    for family in ("mds", "fountain"):
        report = bench_codec(family, 8, 0, packet_size=1500, iterations=100, seed=2)
        assert report.erasure_count == 0
        assert report.encode_mbytes_per_s == 0.0
        assert report.encode.median_ns < 1_000_000


def test_mds_decode_must_complete():
    # with p > k the default erasure count is k, every source packet
    for k, p, erasures, expect in ((12, 6, 6, 6), (4, 8, None, 4)):
        report = bench_codec("mds", k, p, erasure_count=erasures, iterations=100, seed=3)
        assert report.erasure_count == expect
        assert report.decode_complete


def test_packet_size_linearity():
    # the two sizes alternate, so a slow or fast spell of the CPU falls on
    # both sides of a pair, and the median pair ignores a spell that did not
    ratios = []
    for _ in range(9):
        small = bench_codec("fountain", 16, 8, packet_size=4096, iterations=150, seed=4)
        large = bench_codec("fountain", 16, 8, packet_size=8192, iterations=150, seed=4)
        ratios.append(large.encode.median_ns / small.encode.median_ns)
    # doubling the payload should roughly double the xor work
    assert 1.5 < statistics.median(ratios) < 2.5, ratios


def test_erasure_count_validation():
    with pytest.raises(ValueError):
        bench_codec("mds", 8, 4, erasure_count=5, iterations=100, seed=5)
    with pytest.raises(ValueError):
        bench_codec("mds", 8, 4, iterations=10, seed=5)
    with pytest.raises(ValueError):
        bench_codec("nonsense", 8, 4, iterations=100, seed=5)


def test_iteration_floor():
    assert bench.MIN_ITERATIONS >= 100
