"""Command line front end.

Exit codes: 0 on success, 2 on parameter errors, 3 when a planning target is
unreachable. Commands that draw random numbers print the seed they used, so
any run can be reproduced afterwards with --seed.
"""
from __future__ import annotations

import csv
import json
import secrets
import sys

import click

from . import analytics, bench, multicast, rng
from .codec import CodeSpec, build_codec
from .fountain import FountainCode
from .gf256 import build_mds
from .polar import construct_systematic, polar_for_parity

SCHEMA_VERSION = 1

PLR_FIELDS = ["family", "n", "k", "pe", "method", "receivers", "seed", "plr"]
CDF_FIELDS = ["family", "parity_sent", "weighted_fraction"]
BENCH_FIELDS = ["family", "k", "parity", "erasures", "size", "encode_ns_med", "decode_ns_med"]

SEED = click.IntRange(0, rng.MASK64)  # rng.substream's seed range, checked up front


def fmt(value) -> str:
    """Numbers as text: floats at 9 significant digits, '.' separator."""
    if isinstance(value, float):
        return f"{value:.9g}"
    return "" if value is None else str(value)


def _json_value(value):
    if isinstance(value, float):
        return float(f"{value:.9g}")
    return value


def emit(rows: list[dict], fields: list[str], as_json: bool, csv_path: str | None,
         command: str) -> None:
    if csv_path:
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(fields)
            for row in rows:
                writer.writerow([fmt(row.get(f)) for f in fields])
    if as_json:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "rows": [{f: _json_value(row.get(f)) for f in fields} for row in rows],
        }
        click.echo(json.dumps(payload, indent=2))


def resolve_seed(seed: int | None) -> int:
    """Use the given seed or draw one and announce it."""
    if seed is None:
        seed = secrets.randbits(48)
        click.echo(f"seed: {seed}")
    return seed


@click.group()
def main():
    """Packet erasure coding laboratory."""


@main.command()
@click.option("--family", type=click.Choice(["polar"]), default="polar", show_default=True)
@click.option("--k", type=int, required=True, help="Source packets per block.")
@click.option("--parity", type=int, required=True, help="Parity packets to plan for.")
@click.option("--epsilon", type=float, default=0.05, show_default=True,
              help="Channel erasure probability used for the construction.")
@click.option("--json", "as_json", is_flag=True, help="Also print a JSON object.")
def construct(family, k, parity, epsilon, as_json):
    """Print a code construction: channel split, reservoir, degrees."""
    try:
        codec = polar_for_parity(k, parity, epsilon)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    c = codec.construction
    masks = c.reservoir_masks()[:parity]
    raw = c.raw_degrees()[:parity]
    eff = c.effective_degrees()[:parity]
    click.echo(f"family: {family}")
    click.echo(f"block_length: {c.block_length}")
    click.echo(f"k: {c.k}")
    click.echo(f"parity: {parity}")
    click.echo(f"epsilon: {fmt(c.epsilon)}")
    click.echo("info_channels: " + ",".join(str(ch) for ch in c.info_channels))
    click.echo("parity_channels: " + ",".join(str(ch) for ch in c.parity_channels))
    for j, mask in enumerate(masks, start=1):
        bits = "".join("1" if (mask >> t) & 1 else "0" for t in range(c.k))
        click.echo(f"reservoir[{j}]: {bits}")
    click.echo("raw_degrees: " + ",".join(str(d) for d in raw))
    click.echo("effective_degrees: " + ",".join(str(d) for d in eff))
    if as_json:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": "construct",
            "family": family,
            "block_length": c.block_length,
            "k": c.k,
            "parity": parity,
            "epsilon": _json_value(c.epsilon),
            "info_channels": list(c.info_channels),
            "parity_channels": list(c.parity_channels),
            "reservoir": ["".join("1" if (m >> t) & 1 else "0" for t in range(c.k))
                          for m in masks],
            "raw_degrees": raw,
            "effective_degrees": eff,
        }
        click.echo(json.dumps(payload, indent=2))


@main.command()
@click.option("--family", type=click.Choice(["mds", "fountain", "polar"]), required=True)
@click.option("--k", type=int, required=True)
@click.option("--pe", type=float, required=True, help="Channel erasure probability.")
@click.option("--plr-target", type=float, required=True, help="Residual loss target.")
@click.option("--receivers", type=int, default=analytics.DEFAULT_RECEIVERS,
              show_default=True, help="Monte-Carlo receivers (polar only).")
@click.option("--seed", type=SEED, default=None, help="Monte-Carlo seed (polar only).")
@click.option("--workers", type=int, default=1, show_default=True)
@click.option("--json", "as_json", is_flag=True)
def plan(family, k, pe, plr_target, receivers, seed, workers, as_json):
    """Smallest parity count meeting a loss target."""
    if family == "polar":
        seed = resolve_seed(seed)
    else:
        seed = seed if seed is not None else 0
    try:
        plan = analytics.min_parity(family, k, pe, plr_target, receivers=receivers,
                                    seed=seed, workers=workers)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if plan is None:
        click.echo(f"target {fmt(plr_target)} unreachable for family {family} "
                   f"at k={k}, pe={fmt(pe)}", err=True)
        sys.exit(3)
    click.echo(f"family: {plan.family}")
    click.echo(f"k: {plan.k}")
    click.echo(f"p: {plan.p}")
    click.echo(f"n: {plan.n}")
    if plan.block_length is not None:
        click.echo(f"block_length: {plan.block_length}")
    click.echo(f"plr: {fmt(plan.plr)}")
    click.echo(f"method: {plan.method}")
    if as_json:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": "plan",
            "family": plan.family,
            "k": plan.k,
            "p": plan.p,
            "n": plan.n,
            "block_length": plan.block_length,
            "plr": _json_value(plan.plr),
            "method": plan.method,
            "receivers": plan.receivers,
            "seed": plan.seed,
        }
        click.echo(json.dumps(payload, indent=2))


@main.command()
@click.option("--family", type=click.Choice(["mds", "fountain", "polar"]), required=True)
@click.option("--n", type=int, required=True, help="Total packets sent per block.")
@click.option("--k", type=int, required=True)
@click.option("--pe", type=float, required=True)
@click.option("--method", type=click.Choice(["analytic", "mc"]), default="analytic",
              show_default=True)
@click.option("--receivers", type=int, default=analytics.DEFAULT_RECEIVERS, show_default=True)
@click.option("--seed", type=SEED, default=None)
@click.option("--workers", type=int, default=1, show_default=True)
@click.option("--csv", "csv_path", type=click.Path(dir_okay=False), default=None,
              help="Write plr.csv rows to this file.")
@click.option("--json", "as_json", is_flag=True)
def plr(family, n, k, pe, method, receivers, seed, workers, as_json, csv_path):
    """Residual packet loss rate of one code on one channel."""
    try:
        if method == "analytic":
            if family == "mds":
                report = analytics.plr_mds(n, k, pe)
            elif family == "fountain":
                report = analytics.plr_fountain(n, k, pe)
            else:
                raise click.UsageError(
                    "polar has no closed-form loss rate; use --method mc")
        else:
            seed = resolve_seed(seed)
            spec = CodeSpec(family=family, n=n, k=k,
                            seed=seed if family == "fountain" else None,
                            epsilon=pe if family == "polar" else None)
            codec = build_codec(spec)
            report = analytics.plr_empirical(codec, n, k, pe, receivers=receivers,
                                             seed=seed, workers=workers)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    row = {"family": report.family, "n": report.n, "k": report.k, "pe": report.p_e,
           "method": report.method, "receivers": report.receivers,
           "seed": report.seed, "plr": report.plr}
    click.echo(f"family: {report.family}")
    click.echo(f"n: {report.n}")
    click.echo(f"k: {report.k}")
    click.echo(f"pe: {fmt(report.p_e)}")
    click.echo(f"method: {report.method}")
    if report.receivers is not None:
        click.echo(f"receivers: {report.receivers}")
    click.echo(f"plr: {fmt(report.plr)}")
    emit([row], PLR_FIELDS, as_json, csv_path, "plr")


@main.command(name="multicast")
@click.option("--k", type=int, required=True)
@click.option("--pe", type=float, required=True)
@click.option("--emax", type=int, required=True, help="Largest loss count enumerated.")
@click.option("--families", default="mds,polar", show_default=True,
              help="Comma separated subset of mds,fountain,polar.")
@click.option("--rounds", type=int, default=None,
              help="Repair rounds to simulate (default: each code's parity budget).")
@click.option("--partial", is_flag=True, help="Credit partial repair instead of all-or-nothing.")
@click.option("--seed", type=SEED, default=None, help="Fountain column seed.")
@click.option("--epsilon", type=float, default=None,
              help="Polar construction parameter (default: pe).")
@click.option("--csv", "csv_path", type=click.Path(dir_okay=False), default=None,
              help="Write cdf.csv rows to this file.")
@click.option("--json", "as_json", is_flag=True)
def multicast_cmd(k, pe, emax, families, rounds, partial, seed, epsilon, as_json, csv_path):
    """Weighted repair CDF per family over incremental parity rounds."""
    fams = [f.strip() for f in families.split(",") if f.strip()]
    bad = [f for f in fams if f not in ("mds", "fountain", "polar")]
    if bad or not fams:
        raise click.UsageError(f"unknown families: {','.join(bad) or families!r}")
    if "fountain" in fams:
        seed = resolve_seed(seed)
    try:
        patterns = multicast.enumerate_patterns(k, emax, pe)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    eps = epsilon if epsilon is not None else pe
    rows = []
    try:
        for fam in fams:
            if fam == "mds":
                codec = build_mds(k + emax, k)
                fam_rounds = rounds if rounds is not None else emax
            elif fam == "polar":
                codec = polar_for_parity(k, emax, eps)
                fam_rounds = rounds if rounds is not None else codec.parity_limit
            else:
                budget = polar_for_parity(k, emax, eps).parity_limit
                fam_rounds = rounds if rounds is not None else budget
                codec = FountainCode(k, seed, n=k + fam_rounds)
            table = multicast.simulate_incremental(codec, patterns, rounds=fam_rounds)
            curve = multicast.weighted_cdf(table, patterns, partial=partial)
            for t, fraction in curve.points:
                rows.append({"family": fam, "parity_sent": t, "weighted_fraction": fraction})
    except ValueError as exc:
        raise click.UsageError(str(exc))
    click.echo(",".join(CDF_FIELDS))
    for row in rows:
        click.echo(f"{row['family']},{row['parity_sent']},{fmt(row['weighted_fraction'])}")
    emit(rows, CDF_FIELDS, as_json, csv_path, "multicast")


@main.command(name="bench")
@click.option("--family", type=click.Choice(["mds", "fountain", "polar"]), required=True)
@click.option("--k", type=int, required=True)
@click.option("--parity", type=int, required=True)
@click.option("--erasures", type=int, default=None,
              help="Erased source packets for decode (default: parity count).")
@click.option("--size", type=int, default=1500, show_default=True, help="Packet size in bytes.")
@click.option("--iters", type=int, default=bench.MIN_ITERATIONS, show_default=True)
@click.option("--seed", type=SEED, default=None)
@click.option("--csv", "csv_path", type=click.Path(dir_okay=False), default=None,
              help="Write bench.csv rows to this file.")
@click.option("--json", "as_json", is_flag=True)
def bench_cmd(family, k, parity, erasures, size, iters, seed, as_json, csv_path):
    """Median encode/decode time of one configuration."""
    seed = resolve_seed(seed)
    try:
        report = bench.bench_codec(family, k, parity, packet_size=size,
                                   erasure_count=erasures, iterations=iters, seed=seed)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    click.echo(f"family: {report.family}")
    click.echo(f"k: {report.k}")
    click.echo(f"parity: {report.p}")
    click.echo(f"erasures: {report.erasure_count}")
    click.echo(f"size: {report.packet_size}")
    click.echo(f"iterations: {report.iterations}")
    click.echo(f"encode_ns_med: {fmt(report.encode.median_ns)}")
    click.echo(f"decode_ns_med: {fmt(report.decode.median_ns)}")
    click.echo(f"encode_mbytes_per_s: {fmt(report.encode_mbytes_per_s)}")
    click.echo(f"decode_complete: {report.decode_complete}")
    click.echo(f"model_ops_per_column: {fmt(report.model.per_column)}")
    row = {"family": report.family, "k": report.k, "parity": report.p,
           "erasures": report.erasure_count, "size": report.packet_size,
           "encode_ns_med": report.encode.median_ns,
           "decode_ns_med": report.decode.median_ns}
    emit([row], BENCH_FIELDS, as_json, csv_path, "bench")


if __name__ == "__main__":
    main()
