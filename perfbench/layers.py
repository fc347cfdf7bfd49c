"""Per-layer metrics computed from the spans of the traced rounds.

Every workload reports every metric; a layer the workload does not reach
reads 0. Counts and seconds are per round (totals over the traced rounds
divided by their number); `us_p50` values are medians over single calls.
Names follow the layer they measure: `oracle` is `unrecovered_sources` of
whichever codec class serves it, and `trace.overhead_ratio` is the time of a
traced round over that of an untraced one, minus one.
"""
from __future__ import annotations

import numpy as np

from tracing import SpanTable

SETUP_PARTS = ("import_s", "build_mds_s", "construct_polar_s", "inputs_s", "cold_import_s")
MC_PHASES = ("w1", "w2", "planner")


def _median_us(values) -> float:
    return float(np.median(values)) / 1e3 if len(values) else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class LayerView:
    def __init__(self, table: SpanTable, rounds: int):
        self.t = table
        self.rounds = rounds

    def mask(self, name, phases=None):
        if phases is None:
            return self.t.mask(name)
        m = np.zeros(len(self.t.name), dtype=bool)
        for phase in phases:
            m |= self.t.mask(name, phase)
        return m

    def calls(self, name, phases=None) -> float:
        return int(self.mask(name, phases).sum()) / self.rounds

    def seconds(self, name, phases=None) -> float:
        return int(self.t.duration[self.mask(name, phases)].sum()) * 1e-9 / self.rounds

    def self_seconds(self, name, phases=None) -> float:
        return int(self.t.self_ns[self.mask(name, phases)].sum()) * 1e-9 / self.rounds

    def p50_us(self, name, phases=None) -> float:
        return _median_us(self.t.duration[self.mask(name, phases)])

    def self_p50_us(self, name, phases=None) -> float:
        return _median_us(self.t.self_ns[self.mask(name, phases)])


def layer_metrics(view: LayerView, ctx: dict, lookups: float, setup: dict,
                  overhead: float) -> dict[str, tuple[float, str]]:
    """All per-layer metrics as name -> (value, unit). `lookups` is the
    number of distinct masks per batch summed over a round's Monte-Carlo
    batches; `ctx` holds the workload's own per-round quantities."""
    v = view
    out: dict[str, tuple[float, str]] = {}
    block, small = ("block",), ("small",)

    out["gf256.MdsCode.encode.us_p50"] = (v.p50_us("codec.encode.mds", block), "us")
    out["gf256.MdsCode.decode.self_us_p50"] = (v.self_p50_us("codec.decode.mds", block), "us")
    out["gf256.Gf256Matrix.invert.us_p50"] = (v.p50_us("gf256.Gf256Matrix.invert"), "us")
    out["gf256.Gf256Matrix.invert.calls"] = (v.calls("gf256.Gf256Matrix.invert"), "count")
    for family in ("fountain", "polar"):
        out[f"codec.encode.us_p50.{family}"] = (v.p50_us(f"codec.encode.{family}", block), "us")
    for family in ("mds", "fountain", "polar"):
        out[f"codec.encode.small_us_p50.{family}"] = (
            v.p50_us(f"codec.encode.{family}", small), "us")
    out["fountain.parity_mask.calls"] = (v.calls("fountain.parity_mask"), "count")
    out["rng.bits.calls"] = (v.calls("rng.bits"), "count")
    for family in ("fountain", "polar"):
        out[f"codec.decode.self_us_p50.{family}"] = (
            v.self_p50_us(f"codec.decode.{family}", block), "us")
    for family in ("mds", "fountain", "polar"):
        out[f"codec.decode.small_us_p50.{family}"] = (
            v.p50_us(f"codec.decode.{family}", small), "us")
    out["gf2.reduce_augmented.us_p50"] = (v.p50_us("gf2.reduce_augmented"), "us")
    out["gf2.reduce_augmented.calls"] = (v.calls("gf2.reduce_augmented"), "count")
    for family in ("fountain", "polar"):
        out[f"codec.decode_complete_ratio.{family}"] = (ctx.get(f"complete.{family}", 0.0),
                                                       "ratio")
    out["analytics.op_count.ops_per_s.mds"] = (
        _ratio(ctx.get("op_count.mds", 0.0), v.p50_us("codec.encode.mds", block) * 1e-6), "1/s")
    xor_us = _median_us(v.t.duration[v.mask("codec.encode.fountain", block)
                                     | v.mask("codec.encode.polar", block)])
    out["analytics.op_count.ops_per_s.xor"] = (
        _ratio(ctx.get("op_count.xor", 0.0), xor_us * 1e-6), "1/s")
    out["codec.xor_bytes_per_block"] = (ctx.get("xor_bytes_per_block", 0.0), "B_computed")

    masks_s = v.seconds("rng.erasure_masks")
    out["rng.erasure_masks.s"] = (masks_s, "s")
    out["rng.erasure_masks.receivers_per_s"] = (_ratio(ctx.get("receivers", 0.0), masks_s), "1/s")
    out["analytics.plr_empirical.self_s"] = (v.self_seconds("analytics.plr_empirical"), "s")
    out["analytics.plr_empirical.speedup_2w"] = (
        _ratio(v.seconds("analytics.plr_empirical", ("w1",)),
               v.seconds("analytics.plr_empirical", ("w2",))), "ratio")
    mc_oracle = v.calls("oracle", MC_PHASES)
    out["analytics.distinct_patterns"] = (mc_oracle, "count")
    out["analytics.loss_cache_hit_ratio"] = (1.0 - mc_oracle / lookups if lookups else 0.0,
                                             "ratio")

    oracle_calls, oracle_s = v.calls("oracle"), v.seconds("oracle")
    out["oracle.calls"] = (oracle_calls, "count")
    out["oracle.s"] = (oracle_s, "s")
    out["oracle.self_s"] = (v.self_seconds("oracle"), "s")
    out["oracle.us_p50"] = (v.p50_us("oracle"), "us")
    out["oracle.patterns_per_s"] = (_ratio(oracle_calls, oracle_s), "1/s")
    out["gf2.reduce_echelon.calls"] = (v.calls("gf2.reduce_echelon"), "count")
    out["gf2.reduce_echelon.s"] = (v.seconds("gf2.reduce_echelon"), "s")

    out["analytics.min_parity.s"] = (v.seconds("analytics.min_parity"), "s")
    out["analytics.min_parity.evaluations"] = (ctx.get("evaluations", 0.0), "count")
    out["polar.polar_for_parity.calls"] = (v.calls("polar.polar_for_parity"), "count")
    out["polar.polar_for_parity.s"] = (v.seconds("polar.polar_for_parity"), "s")
    out["analytics.plr_empirical.calls"] = (v.calls("analytics.plr_empirical"), "count")

    for fn in ("enumerate_patterns", "simulate_incremental", "weighted_cdf"):
        out[f"multicast.{fn}.s"] = (v.seconds(f"multicast.{fn}"), "s")
    repair_calls = v.calls("oracle", ("multicast",))
    out["multicast.oracle_calls_per_pattern_round"] = (
        _ratio(repair_calls, ctx.get("pattern_rounds", 0.0)), "ratio")
    out["multicast.useful_call_ratio"] = (_ratio(ctx.get("useful_calls", 0.0), repair_calls),
                                          "ratio")

    for part in SETUP_PARTS:
        out[f"setup.{part}"] = (setup[part], "s")
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return out
