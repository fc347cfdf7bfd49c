"""Timing harness: shape of reports, verification behavior, scaling."""
from __future__ import annotations

import re
import statistics

import pytest

from erasurelab import bench
from erasurelab.bench import Timing, bench_codec
from erasurelab.codec import DecodeResult


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


@pytest.mark.parametrize("family, k, message", [
    ("polar", 0, "need 1 <= k <= n, got k=0, n=2"),
    ("bogus", 4, "unknown family 'bogus'"),
])
def test_code_checks_come_before_the_iteration_floor(family, k, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        bench_codec(family, k, 2, iterations=1)


@pytest.mark.parametrize("size", [0, -1])
def test_packet_size_is_checked_before_any_work(monkeypatch, size):
    def build_codec(*args, **kwargs):
        raise AssertionError("bench_codec built a codec")

    monkeypatch.setattr(bench, "build_codec", build_codec)
    with pytest.raises(ValueError, match="^packet size and word width must be positive$"):
        bench_codec("mds", 4, 2, packet_size=size, seed=1)


def _serve_codecs_with(monkeypatch, method, wrap):
    """Make bench_codec's codec a real one whose instance `method` is
    wrap(the real bound method)."""
    real_build = bench.build_codec

    def build_codec(*args, **kwargs):
        codec = real_build(*args, **kwargs)
        setattr(codec, method, wrap(getattr(codec, method)))
        return codec

    monkeypatch.setattr(bench, "build_codec", build_codec)


def _flip(packet: bytes) -> bytes:
    return bytes([packet[0] ^ 1]) + packet[1:]


def _with_flipped(result: DecodeResult, i: int) -> DecodeResult:
    return DecodeResult(recovered={**result.recovered, i: _flip(result.recovered[i])},
                        unrecoverable=result.unrecoverable)


@pytest.mark.parametrize("family", ["mds", "fountain", "polar"])
def test_a_wrong_recovered_packet_is_caught(monkeypatch, family):
    repaired = []

    def wrap(decode):
        def wrong_decode(received):
            result = decode(received)
            i = min(set(result.recovered) - set(received))
            repaired.append(i)
            return _with_flipped(result, i)
        return wrong_decode

    _serve_codecs_with(monkeypatch, "decode", wrap)
    with pytest.raises(AssertionError) as exc:
        bench_codec(family, 8, 8, erasure_count=2, seed=6)
    assert str(exc.value) == f"decoder returned a wrong packet for index {repaired[0]}"


def test_an_mds_source_reported_unrecoverable_is_caught(monkeypatch):
    def wrap(decode):
        def short_decode(received):
            result = decode(received)
            i = min(set(result.recovered) - set(received))
            recovered = {j: pkt for j, pkt in result.recovered.items() if j != i}
            return DecodeResult(recovered=recovered, unrecoverable=frozenset({i}))
        return short_decode

    _serve_codecs_with(monkeypatch, "decode", wrap)
    with pytest.raises(AssertionError, match="^MDS decode left packets unrecovered$"):
        bench_codec("mds", 8, 4, seed=6)


@pytest.mark.parametrize("method", ["encode", "decode"])
def test_an_output_that_changes_between_iterations_is_caught(monkeypatch, method):
    calls = []

    def wrap(call):
        def drifting(*args):
            calls.append(None)
            out = call(*args)
            if len(calls) == 1:  # bench_codec's own first call, checked against the source
                return out
            if method == "encode":
                return [_flip(out[0])] + out[1:]
            return _with_flipped(out, min(out.recovered))
        return drifting

    _serve_codecs_with(monkeypatch, method, wrap)
    with pytest.raises(AssertionError, match=f"^{method} output changed between iterations$"):
        bench_codec("fountain", 8, 4, seed=6)
    assert len(calls) == 2  # the first timed call stops the run


def test_iteration_floor():
    assert bench.MIN_ITERATIONS >= 100
