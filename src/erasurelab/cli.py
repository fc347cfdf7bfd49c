"""Command line front end.

Exit codes: 0 on success, 2 on parameter errors, 3 when a planning target is
unreachable. Commands that draw random numbers print the seed they drew once
their inputs are accepted, so any run can be reproduced afterwards with --seed.
"""
from __future__ import annotations

import csv
import json
import secrets
import sys

import click

from . import analytics, bench, multicast, rng
from .codec import FAMILIES, build_codec

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


def show(fields: dict) -> None:
    """Print `key: value` lines. None values are skipped, a list is joined with
    commas, and a tuple gives one `key[j]: item` line per item (j from 1)."""
    for key, value in fields.items():
        if isinstance(value, tuple):
            for j, item in enumerate(value, start=1):
                click.echo(f"{key}[{j}]: {item}")
        elif isinstance(value, list):
            click.echo(f"{key}: " + ",".join(fmt(v) for v in value))
        elif value is not None:
            click.echo(f"{key}: {fmt(value)}")


def show_json(command: str, payload: dict) -> None:
    """Print payload as one JSON object behind the schema version and command."""
    out = {"schema_version": SCHEMA_VERSION, "command": command}
    out.update((key, _json_value(value)) for key, value in payload.items())
    click.echo(json.dumps(out, indent=2))


def emit(rows: list[dict], fields: list[str], as_json: bool, csv_path: str | None,
         command: str) -> None:
    if csv_path:
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(fields)
            for row in rows:
                writer.writerow([fmt(row.get(f)) for f in fields])
    if as_json:
        show_json(command, {"rows": [{f: _json_value(row.get(f)) for f in fields}
                                     for row in rows]})


def channel_epsilon(pe: float) -> dict:
    """build_codec's epsilon for a channel of erasure probability pe, checked
    before any code is built: pe itself, or build_codec's default at pe 0 or
    1, where the loss does not depend on the code and the polar construction
    would reject pe."""
    rng.check_probability(pe)
    return {} if pe in (0, 1) else {"epsilon": pe}


def resolve_seed(seed: int | None) -> tuple[int, int | None]:
    """The seed to use, and the one drawn when none was given (else None),
    which the command announces with `show({"seed": drawn})` once its library
    call has accepted the inputs."""
    drawn = secrets.randbits(48) if seed is None else None
    return (drawn if seed is None else seed), drawn


class Command(click.Command):
    """A subcommand whose library ValueError is a parameter error: exit 2
    with the subcommand's usage line and the library's message."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ValueError as exc:
            raise click.UsageError(str(exc), ctx)


@click.group()
def main():
    """Packet erasure coding laboratory."""


main.command_class = Command  # before the subcommands below are declared


@main.command()
@click.option("--k", type=int, required=True, help="Source packets per block.")
@click.option("--parity", type=int, required=True, help="Parity packets to plan for.")
@click.option("--epsilon", type=float, default=0.05, show_default=True,
              help="Channel erasure probability used for the construction.")
@click.option("--json", "as_json", is_flag=True, help="Also print a JSON object.")
def construct(k, parity, epsilon, as_json):
    """Print a polar code construction: channel split, reservoir, degrees."""
    codec = build_codec("polar", k + parity, k, epsilon=epsilon)
    fields = {
        "family": "polar",
        "block_length": codec.n,
        "k": k,
        "parity": parity,
        "epsilon": codec.epsilon,
        "info_channels": list(codec.info_channels),
        "parity_channels": list(codec.parity_channels),
        "reservoir": tuple("".join("1" if (m >> t) & 1 else "0" for t in range(k))
                           for m in codec.masks[:parity]),
        "raw_degrees": codec.raw_degrees()[:parity],
        "effective_degrees": codec.effective_degrees()[:parity],
    }
    show(fields)
    if as_json:
        show_json("construct", fields)


@main.command()
@click.option("--family", type=click.Choice(FAMILIES), required=True)
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
    seed, drawn = (seed or 0, None) if family in analytics.ANALYTIC_PLR else resolve_seed(seed)
    plan = analytics.min_parity(family, k, pe, plr_target, receivers=receivers,
                                seed=seed, workers=workers)
    show({"seed": drawn})
    if plan is None:
        click.echo(f"target {fmt(plr_target)} unreachable for family {family} "
                   f"at k={k}, pe={fmt(pe)}", err=True)
        sys.exit(3)
    fields = {"family": plan.family, "k": plan.k, "p": plan.p, "n": plan.n,
              "block_length": plan.block_length, "plr": plan.plr, "method": plan.method}
    show(fields)
    if as_json:
        show_json("plan", {**fields, "receivers": plan.receivers, "seed": plan.seed})


@main.command()
@click.option("--family", type=click.Choice(FAMILIES), required=True)
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
    seed, drawn = resolve_seed(seed) if method == "mc" else (seed, None)
    if method == "analytic":
        if family not in analytics.ANALYTIC_PLR:
            raise click.UsageError(f"{family} has no closed-form loss rate; use --method mc")
        report = analytics.ANALYTIC_PLR[family](n, k, pe)
    else:
        rng.check_packets(n)  # before build_codec draws n - k fountain columns
        codec = build_codec(family, n, k, seed=seed, **channel_epsilon(pe))
        report = analytics.plr_empirical(codec, n, k, pe, receivers=receivers,
                                         seed=seed, workers=workers)
    row = {"family": report.family, "n": report.n, "k": report.k, "pe": report.p_e,
           "method": report.method, "receivers": report.receivers,
           "seed": report.seed, "plr": report.plr}
    show({"seed": drawn, **{f: v for f, v in row.items() if f != "seed"}})
    emit([row], PLR_FIELDS, as_json, csv_path, "plr")


@main.command(name="multicast")
@click.option("--k", type=int, required=True)
@click.option("--pe", type=float, required=True)
@click.option("--emax", type=int, required=True, help="Largest loss count enumerated.")
@click.option("--families", default="mds,polar", show_default=True,
              help=f"Comma separated subset of {','.join(FAMILIES)}.")
@click.option("--rounds", type=int, default=None,
              help="Repair rounds to simulate (default: each code's parity budget).")
@click.option("--partial", is_flag=True, help="Credit partial repair instead of all-or-nothing.")
@click.option("--seed", type=SEED, default=None, help="Fountain column seed.")
@click.option("--epsilon", type=float, default=None,
              help="Polar construction parameter (default: pe, or 0.05 at pe 0 or 1).")
@click.option("--csv", "csv_path", type=click.Path(dir_okay=False), default=None,
              help="Write cdf.csv rows to this file.")
@click.option("--json", "as_json", is_flag=True)
def multicast_cmd(k, pe, emax, families, rounds, partial, seed, epsilon, as_json, csv_path):
    """Weighted repair CDF per family over incremental parity rounds."""
    fams = [f.strip() for f in families.split(",") if f.strip()]
    bad = [f for f in fams if f not in FAMILIES]
    if bad or not fams:
        raise click.UsageError(f"unknown families: {','.join(bad) or families!r}")
    seed, drawn = resolve_seed(seed) if "fountain" in fams else (seed, None)
    patterns = multicast.enumerate_patterns(k, emax, pe)
    eps = {"epsilon": epsilon} if epsilon is not None else channel_epsilon(pe)
    rows = []
    polar = None  # fountain's parity budget is the polar reservoir's size
    for fam in fams:
        if fam == "mds":
            codec = build_codec("mds", k + emax, k)
            fam_rounds = rounds if rounds is not None else emax
        else:
            polar = polar or build_codec("polar", k + emax, k, **eps)
            fam_rounds = rounds if rounds is not None else polar.parity_limit
            # a negative --rounds is left to simulate_incremental to reject
            codec = polar if fam == "polar" else build_codec(
                "fountain", k + max(fam_rounds, 0), k, seed=seed)
        table = multicast.simulate_incremental(codec, patterns, rounds=fam_rounds)
        curve = multicast.weighted_cdf(table, patterns, partial=partial)
        for t, fraction in curve.points:
            rows.append({"family": fam, "parity_sent": t, "weighted_fraction": fraction})
    show({"seed": drawn})
    click.echo(",".join(CDF_FIELDS))
    for row in rows:
        click.echo(f"{row['family']},{row['parity_sent']},{fmt(row['weighted_fraction'])}")
    emit(rows, CDF_FIELDS, as_json, csv_path, "multicast")


@main.command(name="bench")
@click.option("--family", type=click.Choice(FAMILIES), required=True)
@click.option("--k", type=int, required=True)
@click.option("--parity", type=int, required=True)
@click.option("--erasures", type=int, default=None,
              help="Erased source packets for decode (default: the parity count or k, "
                   "whichever is smaller).")
@click.option("--size", type=int, default=1500, show_default=True, help="Packet size in bytes.")
@click.option("--iters", type=int, default=bench.MIN_ITERATIONS, show_default=True)
@click.option("--seed", type=SEED, default=None)
@click.option("--csv", "csv_path", type=click.Path(dir_okay=False), default=None,
              help="Write bench.csv rows to this file.")
@click.option("--json", "as_json", is_flag=True)
def bench_cmd(family, k, parity, erasures, size, iters, seed, as_json, csv_path):
    """Median encode/decode time of one configuration."""
    seed, drawn = resolve_seed(seed)
    report = bench.bench_codec(family, k, parity, packet_size=size,
                               erasure_count=erasures, iterations=iters, seed=seed)
    fields = {"seed": drawn, "family": report.family, "k": report.k, "parity": report.p,
              "erasures": report.erasure_count, "size": report.packet_size,
              "iterations": report.iterations, "encode_ns_med": report.encode.median_ns,
              "decode_ns_med": report.decode.median_ns,
              "encode_mbytes_per_s": report.encode_mbytes_per_s,
              "decode_complete": report.decode_complete,
              "model_ops_per_column": report.model.per_column}
    show(fields)
    emit([fields], BENCH_FIELDS, as_json, csv_path, "bench")


if __name__ == "__main__":
    main()
