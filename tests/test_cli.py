"""Command line behavior: goldens, exit codes, file output, determinism."""
from __future__ import annotations

import csv
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from erasurelab import analytics, cli, polar
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


def test_construct_has_no_family_option():
    # construct builds polar codes only; the report still says so
    result = run("construct", "--family", "polar", "--k", 8, "--parity", 8)
    assert result.exit_code == 2
    assert "No such option" in result.output and "--family" in result.output


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


def test_plan_unreachable_announces_its_drawn_seed_first():
    result = run("plan", "--family", "polar", "--k", 8, "--pe", 1, "--plr-target", 0.5)
    assert result.exit_code == 3
    assert result.stdout.startswith("seed: ")
    assert "unreachable" in result.stderr


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
    assert result.output.endswith("Error: polar has no closed-form loss rate; use --method mc\n")


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


@pytest.mark.parametrize("args", [
    ("plan", "--family", "polar", "--k", 0, "--pe", 0.05, "--plr-target", 1e-3),
    ("plr", "--family", "polar", "--n", 70, "--k", 60, "--pe", 0.05, "--method", "mc"),
    ("bench", "--family", "mds", "--k", 4, "--parity", 2, "--iters", 5),
    ("multicast", "--k", 4, "--pe", 0.05, "--emax", 9, "--families", "fountain"),
], ids=lambda args: args[0])
def test_rejected_inputs_announce_no_drawn_seed(args):
    result = run(*args)
    assert result.exit_code == 2
    assert "seed:" not in result.output


@pytest.mark.parametrize("args, message", [
    (("plr", "--family", "polar", "--n", 16, "--k", 12, "--pe", 0.05, "--method", "mc",
      "--receivers", 2**64 + 1), "need at most 2**64 receivers, got 18446744073709551617"),
    (("plan", "--family", "polar", "--k", 12, "--pe", 0.05, "--plr-target", 1e-3,
      "--receivers", 2**64 + 1), "need at most 2**64 receivers, got 18446744073709551617"),
    (("plr", "--family", "mds", "--n", 1100, "--k", 1000, "--pe", 0.05),
     "the analytic loss rate takes blocks of at most 1029 packets, got 1100"),
    (("plan", "--family", "fountain", "--k", 1100, "--pe", 0.05, "--plr-target", 1e-6),
     "the analytic loss rate takes blocks of at most 1029 packets, got 1100"),
    (("bench", "--family", "mds", "--k", 4, "--parity", 2, "--size", "1" + "0" * 400),
     "packet size and word width must be finite"),
    (("bench", "--family", "fountain", "--k", 4, "--parity", 70000, "--seed", 1),
     "n=70004 exceeds the block cap 65536"),
    (("multicast", "--k", 10**6, "--pe", 0.05, "--emax", 5 * 10**5),
     "at least 500000500000 patterns exceed the enumeration cap 1000000; lower e_max or "
     "sample patterns instead of enumerating them"),
], ids=["plr receivers", "plan receivers", "plr analytic block", "plan analytic block",
        "bench size past the float range", "bench fountain past the block cap",
        "multicast past the pattern cap"])
def test_inputs_past_a_library_cap_exit_2_at_once(args, message):
    result = run(*args)
    assert result.exit_code == 2
    assert result.output.endswith(f"Error: {message}\n")
    assert "seed:" not in result.output


def test_plan_fountain_past_the_analytic_block_cap_exits_3():
    result = run("plan", "--family", "fountain", "--k", 1000, "--pe", 0.05,
                 "--plr-target", 1e-6)
    assert result.exit_code == 3
    assert "unreachable" in result.output


def test_plr_mc_deterministic_across_runs_and_workers(monkeypatch):
    # five batches, so five workers run five threads
    monkeypatch.setattr(analytics, "_BATCH", 4096)
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


def _rows(output: str, family: str) -> list[str]:
    return [line for line in output.splitlines() if line.startswith(f"{family},")]


@pytest.mark.parametrize("rounds", [(), ("--rounds", 2)], ids=["default", "rounds 2"])
def test_multicast_fountain_rows_do_not_depend_on_the_other_families(rounds):
    # the fountain block is the polar block, or k + --rounds, whichever
    # families run beside it; by default it runs as many rounds as polar
    args = ("multicast", "--k", 8, "--pe", 0.05, "--emax", 3, "--seed", 5, *rounds)
    alone = run(*args, "--families", "fountain")
    mixed = run(*args, "--families", "mds,polar,fountain")
    assert alone.exit_code == mixed.exit_code == 0
    fountain = _rows(alone.output, "fountain")
    assert fountain == _rows(mixed.output, "fountain")
    assert len(fountain) == (3 if rounds else len(_rows(mixed.output, "polar")))


def test_multicast_mds_rows_end_at_emax():
    # MDS is built at k + emax, so its parity budget is emax, not the polar reservoir's
    result = run("multicast", "--k", 8, "--pe", 0.05, "--emax", 3, "--families", "mds,polar")
    assert result.exit_code == 0
    assert [int(row.split(",")[1]) for row in _rows(result.output, "mds")] == [0, 1, 2, 3]
    assert len(_rows(result.output, "polar")) > 4


def test_multicast_builds_one_polar_codec_for_fountain_and_polar(monkeypatch):
    calls = []
    real = polar.polar_for_parity
    monkeypatch.setattr(polar, "polar_for_parity",
                        lambda *args: calls.append(args) or real(*args))
    result = run("multicast", "--k", 6, "--pe", 0.1, "--emax", 2,
                 "--families", "fountain,polar", "--seed", 21)
    assert result.exit_code == 0
    assert calls == [(6, 2, 0.1)]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("pe, flag, message", [
    (0.05, "--workers", "need at least one worker"),
    (0.05, "--receivers", "need at least one receiver"),
    (1e-4, "--receivers", "need at least one receiver"),
])
def test_plan_rejects_zero_receivers_or_workers_for_every_family(family, pe, flag, message):
    result = run("plan", "--family", family, "--k", 10, "--pe", pe, "--plr-target", 1e-3,
                 flag, 0)
    assert result.exit_code == 2
    assert message in result.output
    assert "family:" not in result.output


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


@pytest.mark.parametrize("family", ["mds", "polar"])
@pytest.mark.parametrize("pe", [0, 1])
def test_multicast_zero_total_weight_exits_2(pe, family):
    # at pe 0 or 1 polar builds with the default epsilon, so it fails as MDS does
    result = run("multicast", "--k", 4, "--pe", pe, "--emax", 2, "--families", family)
    assert result.exit_code == 2
    assert "zero total weight" in result.output


@pytest.mark.parametrize("pe", [0, 0.1])
def test_multicast_rejects_an_explicit_epsilon_of_0(pe):
    result = run("multicast", "--k", 4, "--pe", pe, "--emax", 2, "--families", "polar",
                 "--epsilon", 0)
    assert result.exit_code == 2
    assert "epsilon must be in (0, 1), got 0.0" in result.output


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("pe", [0, 1])
def test_plr_mc_at_pe_0_or_1_reports_pe_for_every_family(family, pe):
    result = run("plr", "--family", family, "--n", 8, "--k", 4, "--pe", pe,
                 "--method", "mc", "--receivers", 1000, "--seed", 1)
    assert result.exit_code == 0, result.output
    assert f"\nplr: {pe}\n" in result.output


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("pe", ["1.5", "-0.1", "nan"])
def test_plr_mc_rejects_pe_outside_0_1_before_building_the_code(monkeypatch, family, pe):
    # else polar's construction would reject pe as epsilon, which plr has no option for
    def build_codec(*args, **kwargs):
        raise AssertionError("plr built a code")

    monkeypatch.setattr(cli, "build_codec", build_codec)
    result = run("plr", "--family", family, "--n", 8, "--k", 4, "--pe", pe,
                 "--method", "mc", "--seed", 1)
    assert result.exit_code == 2
    assert result.output.endswith(f"\nError: erasure probability must be in [0, 1], got {pe}\n")


# one failing call per subcommand, with the library's message
LIBRARY_ERRORS = {
    "construct": (("--k", 8, "--parity", 4, "--epsilon", 1.5),
                  "epsilon must be in (0, 1), got 1.5"),
    "plan": (("--family", "mds", "--k", 8, "--pe", 0.1, "--plr-target", 2),
             "loss target must be in (0, 1), got 2.0"),
    "plr": (("--family", "mds", "--n", 8, "--k", 4, "--pe", 1.5),
            "erasure probability must be in [0, 1], got 1.5"),
    "multicast": (("--k", 4, "--pe", 0.1, "--emax", 9), "need 1 <= e_max <= k, got e_max=9"),
    "bench": (("--family", "mds", "--k", 4, "--parity", 2, "--erasures", 3, "--seed", 1),
              "erasure count 3 out of range"),
}


@pytest.mark.parametrize("command", list(LIBRARY_ERRORS))
def test_library_error_prints_the_subcommands_usage_and_exits_2(command):
    # a catch at the group would print the group's usage line instead
    args, message = LIBRARY_ERRORS[command]
    result = run(command, *args)
    assert result.exit_code == 2
    assert result.output == (f"Usage: main {command} [OPTIONS]\n"
                             f"Try 'main {command} --help' for help.\n\n"
                             f"Error: {message}\n")


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
