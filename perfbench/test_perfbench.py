"""Tests of the benchmark itself: tracing restores what it wraps, traced
calls return what untraced calls return, self times are exact, the
reference computation is timed between a round's calls, and BENCHMARK.json
matches the definitions in run.py.

Run with `python3 -m pytest perfbench` from the root of the repository.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from erasurelab import analytics, fountain, gf2, gf256, multicast, polar, rng  # noqa: E402

MODULES = (analytics, fountain, gf2, gf256, multicast, polar, rng)
CLASSES = (gf256.MdsCode, gf256.Gf256Matrix, fountain.FountainCode, polar.PolarCodec)


def _snapshot():
    return ([dict(vars(m)) for m in MODULES], [dict(vars(c)) for c in CLASSES])


def _outputs():
    """One small call of each kind the workloads make, and its result."""
    source = [bytes([i]) * 64 for i in range(8)]
    codecs = [gf256.build_mds(12, 8), fountain.FountainCode(8, 5, n=12),
              polar.polar_for_parity(8, 4, 0.05)]
    out = []
    for codec in codecs:
        parity = codec.encode(source, 4)
        received = {i: source[i - 1] for i in range(3, 9)}
        received.update((8 + j, parity[j - 1]) for j in range(1, 5))
        out.append((parity, codec.decode(received).recovered))
    for workers in (1, 2):
        out.append(analytics.plr_empirical(polar.polar_for_parity(8, 4, 0.05), 12, 8, 0.05,
                                           receivers=20_000, seed=3, workers=workers).plr)
    out.append(analytics.min_parity("polar", 8, 0.05, 1e-2, receivers=5_000, seed=3))
    patterns = multicast.enumerate_patterns(8, 2, 0.05)
    for codec, rounds in ((polar.polar_for_parity(8, 2, 0.05), 8), (gf256.build_mds(10, 8), 2)):
        table = multicast.simulate_incremental(codec, patterns, rounds=rounds)
        out.append(multicast.weighted_cdf(table, patterns).points)
    return out


def test_uninstall_restores_every_wrapped_function():
    before = _snapshot()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert _snapshot() != before
        assert fountain.FountainCode.encode is not fountain.FountainCode.__mro__[1].encode
    finally:
        tracer.uninstall()
    assert _snapshot() == before
    assert not tracer.installed


def test_traced_outputs_equal_untraced_outputs():
    plain = _outputs()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        traced = _outputs()
    finally:
        tracer.uninstall()
    assert traced == plain
    table = tracing.SpanTable(tracer)
    for name in ("codec.encode.mds", "codec.decode.fountain", "oracle.polar",
                 "rng.erasure_masks", "gf2.reduce_echelon", "multicast.weighted_cdf"):
        assert table.mask(name).any(), name


def test_worker_thread_spans_hang_under_the_calling_span():
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        analytics.plr_empirical(gf256.build_mds(12, 8), 12, 8, 0.05, receivers=600_000,
                                seed=1, workers=2)
    finally:
        tracer.uninstall()
    table = tracing.SpanTable(tracer)
    (plr_id,) = table.mask("analytics.plr_empirical").nonzero()[0]
    masks = table.mask("rng.erasure_masks")
    assert masks.sum() >= 2
    assert (table.parent[masks] == plr_id).all()
    assert 0 <= table.self_ns[plr_id] <= table.duration[plr_id]


def test_self_time_subtracts_the_union_of_child_intervals():
    tracer = tracing.Tracer()
    name = tracer.name_id("x")
    # parent 0 covers [0, 100]; children 1 and 2 overlap, child 3 has child 4
    for row in ((1, 0, 10, 20), (2, 0, 15, 30), (4, 3, 52, 55), (3, 0, 50, 60),
                (0, -1, 0, 100)):
        sid, parent, t0, t1 = row
        tracer.spans.extend((sid, parent, name, tracer.phase, t0, t1))
    table = tracing.SpanTable(tracer)
    assert table.self_ns.tolist() == [70, 10, 15, 7, 3]


def test_codec_blocks_round_passes_its_checks_traced_and_untraced():
    work = workloads.CodecBlocks(seed=4)
    work.setup()
    tracer = tracing.Tracer()
    work.run_round()
    tracing.install(tracer)
    try:
        work.run_round(tracer)
    finally:
        tracer.uninstall()
    assert work.attempted > 0 and work.failed == 0, work.failures
    view = layers.LayerView(tracing.SpanTable(tracer), 1)
    metrics = layers.layer_metrics(view, work.layer_context(), 0.0,
                                   dict.fromkeys(layers.SETUP_PARTS, 0.0), 0.0)
    assert metrics["gf256.MdsCode.encode.us_p50"][0] > 0
    assert metrics["oracle.calls"][0] == 0
    # a traced round, not only the first one, generates fountain columns
    k, p = work.SHAPES["block"]
    assert metrics["rng.bits.calls"][0] == p + work.SHAPES["small"][1]


def test_reference_is_timed_between_calls_and_uses_nothing_of_the_package():
    work = workloads.CodecBlocks(seed=4)
    work.setup()
    sampler = reference.Sampler(work.reference_work)
    work.between_calls = sampler
    work.run_round()
    assert len(sampler.samples) >= 2 and min(sampler.samples) > 0
    assert workloads.trimmed_mean([1.0] * 9 + [100.0]) == 1.0
    assert not [m for m in vars(reference).values()
                if getattr(m, "__name__", "").startswith("erasurelab")]


def test_mds_standard_error_matches_the_sample_variance():
    n, k, p_e = 16, 12, 0.05
    moment = workloads._mds_second_moment(n, k, p_e)
    mean = analytics.plr_mds(n, k, p_e).plr
    masks = rng.erasure_masks(7, 0, 400_000, n, p_e)
    lost = [bin(int(m) & 0xFFF).count("1") if bin(int(m)).count("1") > n - k else 0
            for m in masks]
    sample_moment = sum((x / k) ** 2 for x in lost) / len(lost)
    assert sample_moment == pytest.approx(moment, rel=0.1)
    assert moment > mean**2


def test_manifest_matches_committed_benchmark_json():
    committed = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert committed["end_to_end"] == list(run.END_TO_END)
    assert [w["name"] for w in committed["workloads"]] == list(run.WORKLOAD_NAMES)
    empty = layers.LayerView(tracing.SpanTable(tracing.Tracer()), 1)
    names = layers.layer_metrics(empty, {}, 0.0, dict.fromkeys(layers.SETUP_PARTS, 0.0), 0.0)
    assert [m["name"] for m in committed["per_layer"]] == list(names)
