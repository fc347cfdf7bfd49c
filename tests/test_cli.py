"""Command line behavior: goldens, exit codes, file output, determinism."""
from __future__ import annotations

import csv
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from erasurelab import polar
from erasurelab.cli import main
from erasurelab.codec import FAMILIES


GOLDEN = Path(__file__).parent / "golden"

# stdout of each run is golden/<name>.txt; a run ending in --csv writes golden/<name>.csv
GOLDEN_RUNS = {
    "construct": ("construct", "--k", 3, "--parity", 1, "--json"),
    "plan": ("plan", "--family", "polar", "--k", 8, "--pe", 0.05, "--plr-target", 1e-3,
             "--seed", 2, "--receivers", 5000, "--json"),
    "plr": ("plr", "--family", "polar", "--n", 16, "--k", 8, "--pe", 0.05, "--method", "mc",
            "--receivers", 3000, "--seed", 9, "--json", "--csv"),
    "multicast": ("multicast", "--k", 6, "--pe", 0.1, "--emax", 2,
                  "--families", "fountain,polar,mds", "--seed", 21, "--json", "--csv"),
}


def run(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


@pytest.mark.parametrize("name", list(GOLDEN_RUNS))
def test_output_matches_golden_byte_for_byte(name, tmp_path):
    args = GOLDEN_RUNS[name]
    csv_path = tmp_path / f"{name}.csv"
    if args[-1] == "--csv":
        args += (csv_path,)
    result = run(*args)
    assert result.exit_code == 0
    assert result.output == (GOLDEN / f"{name}.txt").read_bytes().decode()
    if csv_path in args:
        assert csv_path.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


def test_bench_key_order():
    # timings vary, so only the keys and their order are fixed
    result = run("bench", "--family", "fountain", "--k", 8, "--parity", 4,
                 "--size", 256, "--iters", 100, "--seed", 9, "--json")
    assert result.exit_code == 0
    text, _, blob = result.output.partition("{")
    assert [line.split(": ", 1)[0] for line in text.splitlines()] == [
        "family", "k", "parity", "erasures", "size", "iterations", "encode_ns_med",
        "decode_ns_med", "encode_mbytes_per_s", "decode_complete", "model_ops_per_column"]
    payload = json.loads("{" + blob)
    assert list(payload) == ["schema_version", "command", "rows"]
    assert payload["command"] == "bench"
    assert [list(row) for row in payload["rows"]] == [
        ["family", "k", "parity", "erasures", "size", "encode_ns_med", "decode_ns_med"]]


def test_construct_prints_channel_split_golden():
    result = run("construct", "--k", 8, "--parity", 8, "--epsilon", 0.05)
    assert result.exit_code == 0
    lines = dict(line.split(": ", 1) for line in result.output.splitlines() if ": " in line)
    assert lines["info_channels"] == "16,15,14,12,8,13,11,10"
    assert lines["parity_channels"] == "1,2,3,5,9,4,6,7"
    assert lines["block_length"] == "16"
    assert lines["reservoir[1]"] == "11111111"
    assert lines["effective_degrees"] == "8,5,5,5,7,3,3,3"


def test_construct_effective_degrees_k10():
    result = run("construct", "--k", 10, "--parity", 6, "--epsilon", 0.05)
    assert result.exit_code == 0
    assert "effective_degrees: 10,6,6,7,7,3" in result.output


def test_construct_rejects_bad_epsilon():
    result = run("construct", "--k", 8, "--parity", 8, "--epsilon", 1.5)
    assert result.exit_code == 2


def test_construct_json_mirror():
    result = run("construct", "--k", 8, "--parity", 4, "--epsilon", 0.05, "--json")
    assert result.exit_code == 0
    payload = json.loads(result.output[result.output.index("{"):])
    assert payload["schema_version"] == 1
    assert payload["info_channels"] == [16, 15, 14, 12, 8, 13, 11, 10]
    assert len(payload["reservoir"]) == 4


def test_plan_mds_row():
    result = run("plan", "--family", "mds", "--k", 10, "--pe", 0.05,
                 "--plr-target", 1e-6)
    assert result.exit_code == 0
    assert "p: 7" in result.output
    assert "method: analytic" in result.output


def test_plan_unreachable_exits_3():
    result = run("plan", "--family", "mds", "--k", 200, "--pe", 0.5,
                 "--plr-target", 1e-12)
    assert result.exit_code == 3


def test_plan_polar_past_the_simulated_block_cap_exits_3():
    result = run("plan", "--family", "polar", "--k", 60, "--pe", 0.3,
                 "--plr-target", 1e-7, "--seed", 1, "--receivers", 500)
    assert result.exit_code == 3
    assert "unreachable" in result.output


@pytest.mark.parametrize("family", FAMILIES)
def test_plan_with_every_packet_lost_exits_3(family):
    result = run("plan", "--family", family, "--k", 8, "--pe", 1, "--plr-target", 0.5)
    assert result.exit_code == 3
    assert "unreachable" in result.output


def test_seed_outside_64_bits_is_a_usage_error():
    for seed in (-1, 2**64):
        for args in (("plan", "--family", "polar", "--k", 8, "--pe", 0.05,
                      "--plr-target", 0.01),
                     ("plr", "--family", "polar", "--n", 16, "--k", 8, "--pe", 0.05,
                      "--method", "mc")):
            result = run(*args, "--seed", seed, "--receivers", 1000)
            assert result.exit_code == 2
            assert f"Invalid value for '--seed': {seed} is not in the range" in result.output
            assert "Traceback" not in result.output
    result = run("plr", "--family", "polar", "--n", 16, "--k", 8, "--pe", 0.05,
                 "--method", "mc", "--seed", 2**64 - 1, "--receivers", 1000)
    assert result.exit_code == 0


def test_plr_analytic_polar_rejected():
    result = run("plr", "--family", "polar", "--n", 16, "--k", 8, "--pe", 0.05,
                 "--method", "analytic")
    assert result.exit_code == 2


def test_plr_bad_shape_exits_2():
    result = run("plr", "--family", "mds", "--n", 4, "--k", 8, "--pe", 0.05)
    assert result.exit_code == 2


def test_plr_mc_mds_accepts_a_zero_parity_block():
    result = run("plr", "--family", "mds", "--method", "mc", "--n", 4, "--k", 4, "--pe", 0.1)
    assert result.exit_code == 0
    assert "family: mds" in result.output


def test_plr_mc_rejects_a_block_past_the_mask_word_before_building_the_code():
    result = run("plr", "--family", "fountain", "--n", 10**9, "--k", 4, "--pe", 0.1,
                 "--method", "mc", "--seed", 1)
    assert result.exit_code == 2
    assert "at most 64 packets per simulated block, got 1000000000" in result.output


def test_plr_csv_schema(tmp_path):
    out = tmp_path / "plr.csv"
    result = run("plr", "--family", "mds", "--n", 8, "--k", 4, "--pe", 0.05,
                 "--csv", out)
    assert result.exit_code == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["family", "n", "k", "pe", "method", "receivers", "seed", "plr"]
    assert rows[1][0] == "mds"
    assert rows[1][4] == "analytic"
    assert float(rows[1][7]) == float(f"{9.67890625e-06:.9g}")


def test_plr_mc_prints_seed_when_omitted():
    result = run("plr", "--family", "fountain", "--n", 12, "--k", 8, "--pe", 0.05,
                 "--method", "mc", "--receivers", 2000)
    assert result.exit_code == 0
    assert result.output.startswith("seed: ")


def test_plr_mc_deterministic_across_runs_and_workers():
    args = ["plr", "--family", "polar", "--n", 16, "--k", 8, "--pe", 0.05,
            "--method", "mc", "--receivers", 20000, "--seed", 11]
    first = run(*args, "--workers", 1)
    second = run(*args, "--workers", 1)
    third = run(*args, "--workers", 5)
    assert first.exit_code == 0
    assert first.output == second.output == third.output


def test_multicast_stdout_and_csv(tmp_path):
    out = tmp_path / "cdf.csv"
    result = run("multicast", "--k", 8, "--pe", 0.05, "--emax", 2,
                 "--families", "mds,polar", "--csv", out)
    assert result.exit_code == 0
    assert result.output.splitlines()[0] == "family,parity_sent,weighted_fraction"
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["family", "parity_sent", "weighted_fraction"]
    families = {r[0] for r in rows[1:]}
    assert families == {"mds", "polar"}
    # final rows of each family reach full repair
    finals = {fam: max(float(r[2]) for r in rows[1:] if r[0] == fam)
              for fam in families}
    assert finals["mds"] == 1.0
    assert finals["polar"] == 1.0


def test_multicast_fountain_deterministic_with_seed():
    args = ["multicast", "--k", 6, "--pe", 0.1, "--emax", 2,
            "--families", "fountain", "--seed", 21]
    a = run(*args)
    b = run(*args)
    assert a.exit_code == 0
    assert a.output == b.output


def test_multicast_builds_one_polar_codec_for_fountain_and_polar(monkeypatch):
    calls = []
    real = polar.polar_for_parity
    monkeypatch.setattr(polar, "polar_for_parity",
                        lambda *args: calls.append(args) or real(*args))
    result = run("multicast", "--k", 6, "--pe", 0.1, "--emax", 2,
                 "--families", "fountain,polar", "--seed", 21)
    assert result.exit_code == 0
    assert calls == [(6, 2, 0.1)]


def test_multicast_rejects_unknown_family():
    result = run("multicast", "--k", 8, "--pe", 0.05, "--emax", 2,
                 "--families", "mds,ldpc")
    assert result.exit_code == 2


def test_multicast_negative_rounds_exits_2():
    result = run("multicast", "--k", 6, "--pe", 0.1, "--emax", 2, "--families", "mds",
                 "--rounds", -1)
    assert result.exit_code == 2
    assert "rounds must be at least 0, got -1" in result.output
    assert "family,parity_sent" not in result.output


@pytest.mark.parametrize("pe", [0, 1])
def test_multicast_zero_total_weight_exits_2(pe):
    result = run("multicast", "--k", 4, "--pe", pe, "--emax", 2, "--families", "mds")
    assert result.exit_code == 2
    assert "zero total weight" in result.output


def test_bench_csv_schema(tmp_path):
    out = tmp_path / "bench.csv"
    result = run("bench", "--family", "fountain", "--k", 8, "--parity", 4,
                 "--size", 256, "--seed", 9, "--csv", out)
    assert result.exit_code == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["family", "k", "parity", "erasures", "size",
                      "encode_ns_med", "decode_ns_med"]
    assert rows[1][:5] == ["fountain", "8", "4", "4", "256"]
    assert float(rows[1][5]) > 0


@pytest.mark.parametrize("family", FAMILIES)
def test_bench_zero_k_gives_the_block_message(family):
    result = run("bench", "--family", family, "--k", 0, "--parity", 2, "--seed", 1)
    assert result.exit_code == 2
    assert "need 1 <= k <= n, got k=0, n=2" in result.output


def test_bench_json_mirror():
    result = run("bench", "--family", "mds", "--k", 6, "--parity", 2,
                 "--size", 128, "--seed", 3, "--json")
    assert result.exit_code == 0
    payload = json.loads(result.output[result.output.index("{"):])
    assert payload["schema_version"] == 1
    assert payload["rows"][0]["family"] == "mds"
    assert set(payload["rows"][0]) == {"family", "k", "parity", "erasures", "size",
                                       "encode_ns_med", "decode_ns_med"}


def test_float_formatting_nine_significant_digits():
    result = run("plr", "--family", "mds", "--n", 8, "--k", 4, "--pe", 0.05)
    assert "plr: 9.67890625e-06" in result.output
