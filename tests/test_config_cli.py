import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from maclab import config as config_mod
from maclab.cli import execute
from maclab.errors import ValidationError
from maclab.sim import (Abtmac, FixedPayload, FixedWindow, GeometricPayload,
                        LegacyDcf, PoissonTraffic, SATURATED)
from maclab.timing import AccessMode, DEFAULT_TIMING


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def rows_from(text):
    return list(csv.DictReader(io.StringIO(text)))


# ---------------------------------------------------------------- config files

def test_read_config_missing_file(tmp_path):
    with pytest.raises(ValidationError):
        config_mod.read_config(str(tmp_path / "nope.ini"))


def test_timing_defaults_without_section(tmp_path):
    cp = config_mod.read_config(write(tmp_path, "t.ini", "[sim]\nstations = 2\n"))
    assert config_mod.timing_from_config(cp) is DEFAULT_TIMING


def test_timing_overrides(tmp_path):
    cp = config_mod.read_config(write(tmp_path, "t.ini", (
        "[timing]\nslot = 5e-05\nphy_preamble_bits = 144\n")))
    t = config_mod.timing_from_config(cp)
    assert t.slot == 5e-5
    assert t.phy_preamble_bits == 144
    assert isinstance(t.phy_preamble_bits, int)
    assert t.sifs == DEFAULT_TIMING.sifs


def test_timing_rejects_unknown_key(tmp_path):
    cp = config_mod.read_config(write(tmp_path, "t.ini", "[timing]\nbogus = 1\n"))
    with pytest.raises(ValidationError):
        config_mod.timing_from_config(cp)


FULL_SCENARIO = """
[sim]
stations = 5
mode = rts
payload_model = fixed
payload = 40
duration = 20000
seed = 3
estimation_error_factor = 1.5

[policy]
kind = abtmac
target_rate = 0.7
k = 1.0
cw_max = 512
update_interval = 250
"""


def test_scenario_full_round_trip(tmp_path):
    cfg = config_mod.load_scenario(write(tmp_path, "s.ini", FULL_SCENARIO))
    assert cfg.station_count == 5
    assert cfg.mode is AccessMode.RTS_CTS
    assert isinstance(cfg.policy, Abtmac)
    assert cfg.policy.params.target_rate == 0.7
    assert cfg.policy.params.cw_max == 512
    assert cfg.policy.update_interval == 250
    assert cfg.payload == FixedPayload(40.0)
    assert cfg.traffic == SATURATED
    assert cfg.duration == 20000
    assert cfg.seed == 3
    assert cfg.estimation_error_factor == 1.5


def test_scenario_defaults_and_traffic(tmp_path):
    cfg = config_mod.load_scenario(write(tmp_path, "s.ini", (
        "[sim]\nstations = 4\npayload_model = geometric\n"
        "arrival_rate = 0.002\nduration = 20000\n")))
    assert cfg.mode is AccessMode.BASIC
    assert isinstance(cfg.policy, LegacyDcf)
    assert cfg.payload == GeometricPayload(34.0)
    assert cfg.traffic == PoissonTraffic(0.002)
    assert cfg.seed == 1


def test_scenario_fixed_window_policy(tmp_path):
    cfg = config_mod.load_scenario(write(tmp_path, "s.ini", (
        "[sim]\nstations = 2\nduration = 20000\n"
        "[policy]\nkind = fixed\ncw_min = 8\ncw_max = 64\n")))
    assert cfg.policy == FixedWindow(8, 64, 7)


@pytest.mark.parametrize("body", [
    "[policy]\nkind = legacy\n",                        # no [sim]
    "[sim]\nmode = basic\nduration = 20000\n",          # no stations
    "[sim]\nstations = 2\nmode = warp\nduration = 20000\n",
    "[sim]\nstations = 2\npayload_model = pareto\nduration = 20000\n",
    "[sim]\nstations = 2\nduration = 20000\n[policy]\nkind = fancy\n",
    "[sim]\nstations = 2\nduration = 20000\n[policy]\nkind = fixed\n",
    "[sim]\nstations = 2\nduration = 100\n",            # too short
    "[sim]\nstations = 2\nduration = 20000\n[policy]\nkind = abtmac\ntargt_rate = 0.7\n",
    "[sim]\nstations = 2\nduration = 20000\n[policy]\nkind = legacy\ntarget_rate = 0.7\n",
    "[sim]\nstations = 2\nduration = 20000\nwarmup = 0.1\n",
    "[sim]\nstations = two\nduration = 20000\n",
    "[sim]\nstations = 2\nduration = 20000\narrival_rate = -1\n",
    "[sim]\nstations = 2\nduration = 20000\n[timing]\nack_bits = 112.9\n",
    "[sim]\nstations = 2\nduration = 20000\n[bogus]\nx = 1\n",
    "stations = 2\nduration = 20000\n",                # no section header
    "[sim]\nstations = 2\nduration = 20000\npayload = nan\n",
    "[sim]\nstations = 2\nduration = 20000\n[policy]\nkind = abtmac\ntarget_rate = nan\n",
    "[sim]\nstations = 2\nduration = 20000\n[timing]\nslot = nan\n",
    "[sim]\nstations = 2\nduration = 20000\n[qos]\nbogus = 1\n",
    "[sim]\nstations = 2\nduration = 20000\n[qos]\nclass.a = 2 1.0\n",  # design's file
    "[sim]\nstations = 2\nduration = 20000\narrival_rate = inf\n",
    "[sim]\nstations = 2\nduration = 20000\narrival_rate = 1.5\n",
    "[sim]\nstations = 2\nduration = 20000\npayload = inf\n",
    "[sim]\nstations = 2\nduration = 20000\nestimation_error_factor = inf\n"
    "[policy]\nkind = abtmac\n",
    "[sim]\nstations = 2\nduration = 20000\n[policy]\nkind = abtmac\ntarget_rate = inf\n",
    "[sim]\nstations = 2\nduration = 20000\n[timing]\nslot = inf\n",
    "[sim]\nstations = 2\nduration = 20000\n"
    "[policy]\nkind = fixed\ncw_min = 3\ncw_max = 15\nretry_limit = -4\n",
    "[sim]\nstations = 20\nduration = 20000\nestimation_error_factor = 1e308\n"
    "[policy]\nkind = abtmac\n",
    "[sim]\nstations = 3\nduration = 20000\narrival_rate = 5e-324\n",   # 1/rate overflows
    "[sim]\nstations = 2\nduration = 20000\n[policy]\nkind = fixed\n"
    "cw_min = 9223372036854775808\ncw_max = 18446744073709551616\nretry_limit = 1\n",
    "[sim]\nstations = 2\nduration = 20000\n[policy]\nkind = legacy\n"
    "cw_min = 9223372036854775808\ncw_max = 9223372036854775808\n",
    # one counter bound per stage: 802.11's retry limits stop at 255
    "[sim]\nstations = 2\nduration = 20000\n[policy]\nkind = abtmac\nretry_limit = 256\n",
])
def test_scenario_rejections(tmp_path, body):
    with pytest.raises(ValidationError):
        config_mod.load_scenario(write(tmp_path, "bad.ini", body))


QOS_FILE = "[qos]\nclass.voice = 10 0.25\nclass.data = 10 1.75\n"


def read_qos(tmp_path, body):
    """Classes of a QoS file, read as `design --qos` reads it."""
    path = write(tmp_path, "q.ini", body)
    return config_mod.qos_from_config(config_mod.read_config(path, ("qos",)))


def test_qos_parse(tmp_path):
    classes = read_qos(tmp_path, QOS_FILE)
    assert [(c.class_id, c.station_count, c.backoff_scale) for c in classes] == [
        ("voice", 10, 0.25), ("data", 10, 1.75)]


def test_qos_absent_is_empty(tmp_path):
    assert read_qos(tmp_path, "# no classes\n") == []


@pytest.mark.parametrize("body", [
    "[qos]\nvoice = 10 0.25\n",
    "[qos]\nclass.voice = 10\n",
    "[qos]\nclass.voice = ten 0.25\n",
])
def test_qos_rejections(tmp_path, body):
    with pytest.raises(ValidationError):
        read_qos(tmp_path, body)


# ---------------------------------------------------------------- cli basics

def test_version(capsys):
    assert execute(["version"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("maclab ")
    assert "pcg64" in out


def test_unknown_command_is_usage_error(capsys):
    assert execute(["conjure"]) == 2


def test_bad_range_is_usage_error(capsys):
    assert execute(["analyze", "--mode", "rts", "--lambda", "1:0.5:0.1"]) == 2
    assert "error" in capsys.readouterr().err


# the last one has finite bounds and step but 1e600 points
@pytest.mark.parametrize("rates", ["nan:1:0.1", "0.1:inf:0.1", "0.1:1:nan",
                                   "0:1e300:1e-300"])
def test_non_finite_range_is_usage_error(rates, capsys):
    assert execute(["analyze", "--mode", "rts", "--lambda", rates]) == 2
    assert capsys.readouterr().err.startswith("error: ")


# 1e9 + 1 and 1e7 + 1 points: refused before the grid is built
@pytest.mark.parametrize("rates", ["0:1:1e-9", "1:10000001:1"])
def test_huge_range_is_usage_error(rates, capsys):
    assert execute(["analyze", "--mode", "rts", "--lambda", rates]) == 2
    assert capsys.readouterr().err == (
        f"error: range {rates!r} has more than 10000000 points\n")


def test_analyze_sweep(capsys):
    assert execute(["analyze", "--mode", "rts", "--lambda", "0.1:1.0:0.01"]) == 0
    rows = rows_from(capsys.readouterr().out)
    assert len(rows) == 91
    last = rows[-1]
    assert float(last["rate"]) == pytest.approx(1.0)
    assert float(last["access_delay"]) == 20.537265734086027
    assert float(last["throughput"]) == 0.4519877397104615


def test_analyze_microsecond_units(capsys):
    assert execute(["analyze", "--mode", "basic", "--lambda", "0.55",
                    "--units", "us"]) == 0
    row = rows_from(capsys.readouterr().out)[0]
    assert float(row["access_delay"]) == pytest.approx(396.3270850142354, rel=1e-12)


@pytest.mark.parametrize("argv", [
    ["analyze", "--mode", "rts", "--lambda", "0.2:0.6:0.1", "--workers", "2"],
    ["tables", "--table", "2", "--seed", "5"],
    ["stability", "--mode", "rts", "--lambda", "0.7", "--units", "us"],
    ["simulate", "--scenario", "F", "--timing-config", "F"],
    ["version", "--out", "D"],
])
def test_seed_and_workers_belong_to_simulate(argv, capsys):
    # each subcommand takes only the options it reads and refuses the rest
    assert execute(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_csv_floats_round_trip(tmp_path, capsys):
    # repr formatting means reading the CSV back loses nothing
    assert execute(["analyze", "--mode", "rts", "--lambda", "0.7"]) == 0
    row = rows_from(capsys.readouterr().out)[0]
    from maclab import model
    from maclab.model import ModelPoint
    pt = ModelPoint(0.7, 34.0, AccessMode.RTS_CTS)
    assert float(row["access_delay"]) == model.mean_access_delay(pt)
    assert float(row["throughput"]) == model.throughput(pt)
    assert float(row["mean_collisions"]) == model.mean_collisions(0.7)


def test_stability_sweep(capsys):
    assert execute(["stability", "--mode", "basic", "--lambda", "0.455"]) == 0
    row = rows_from(capsys.readouterr().out)[0]
    assert float(row["pole_distance"]) == pytest.approx(0.02585153803229334,
                                                        abs=1e-9)
    assert float(row["payload"]) == pytest.approx(39.915289791068254, rel=1e-12)


def test_stability_explicit_payload(capsys):
    assert execute(["stability", "--mode", "rts", "--lambda", "0.7",
                    "--payloads", "34"]) == 0
    row = rows_from(capsys.readouterr().out)[0]
    assert float(row["pole_distance"]) == pytest.approx(0.04244914218783381,
                                                        abs=1e-9)


# ---------------------------------------------------------------- cli tables

def test_table_of_handshake_operating_points(capsys):
    assert execute(["tables", "--table", "2"]) == 0
    rows = {float(r["rate"]): r for r in rows_from(capsys.readouterr().out)}
    assert len(rows) == 5
    r = rows[0.7]
    assert float(r["access_delay"]) == 13.812198698936768
    assert float(r["ref_access_delay"]) == 13.81
    assert abs(float(r["delta_access_delay"])) < 0.01
    assert float(r["max_ratio"]) == pytest.approx(9.59, abs=0.01)


def test_table_of_basic_operating_points(capsys):
    assert execute(["tables", "--table", "3"]) == 0
    rows = {float(r["rate"]): r for r in rows_from(capsys.readouterr().out)}
    assert len(rows) == 5
    r = rows[0.55]
    assert float(r["payload"]) == 34
    assert float(r["balance_payload"]) == pytest.approx(34.479, abs=0.001)
    assert float(r["throughput_pct"]) == pytest.approx(55.758, abs=0.001)
    assert float(r["access_delay"]) == 19.81635425071177


# ---------------------------------------------------------------- cli design

def parse_design(out):
    pairs = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition(":")
        pairs[key.strip()] = value.strip()
    return pairs


def test_design_handshake(capsys):
    assert execute(["design", "--mode", "rts",
                    "--stations", "10,20,50,100"]) == 0
    got = parse_design(capsys.readouterr().out)
    assert got["mode"] == "rts"
    assert got["attempt_rate"] == "0.7"
    assert "payload_slots" not in got
    assert got["cw_min[M=10]"] == "14"
    assert got["cw_min[M=20]"] == "24"
    assert got["cw_min[M=50]"] == "44"
    assert got["cw_min[M=100]"] == "72"


def test_design_basic_default(capsys):
    assert execute(["design", "--mode", "basic", "--stations", "100"]) == 0
    got = parse_design(capsys.readouterr().out)
    assert got["attempt_rate"] == "0.55"
    assert got["payload_slots"] == "34"
    assert got["cw_min[M=100]"] == "92"


def test_design_custom_target(capsys):
    assert execute(["design", "--mode", "basic", "--stations", "50",
                    "--target-rate", "0.31"]) == 0
    got = parse_design(capsys.readouterr().out)
    assert got["payload_slots"] == "58"
    assert got["cw_min[M=50]"] == "100"


@pytest.mark.parametrize("mode", ["basic", "rts"])
@pytest.mark.parametrize("rate", ["inf", "nan"])
def test_design_rejects_non_finite_target(mode, rate, capsys):
    assert execute(["design", "--mode", mode, "--stations", "100",
                    "--target-rate", rate]) == 2
    assert "error" in capsys.readouterr().err


# the mean collision count rounds to 0 there, and the balance payload divides by it
@pytest.mark.parametrize("argv", [
    ["design", "--mode", "basic", "--target-rate", "1e-17"],
    ["stability", "--mode", "basic", "--lambda", "1e-17"],
])
def test_rate_below_the_balance_payload_range_is_usage_error(argv, capsys):
    assert execute(argv) == 2
    assert capsys.readouterr().err == (
        "error: attempt rate 1e-17 is too small to resolve the balance payload\n")


def test_analyze_rejects_rate_without_finite_reciprocal(capsys):
    # 1/rate overflows there: such a rate used to print inf and nan columns
    assert execute(["analyze", "--mode", "basic", "--lambda", "1e-310"]) == 2
    assert capsys.readouterr().err == (
        "error: attempt rate 1e-310 has no finite reciprocal\n")


@pytest.mark.parametrize("mode", ["basic", "rts"])
def test_design_rejects_target_above_model_range(mode, capsys):
    assert execute(["design", "--mode", mode, "--target-rate", "1000"]) == 2
    assert capsys.readouterr().err.startswith("error: target rate must be in (0, 5.0]")


def test_design_qos_split(tmp_path, capsys):
    qos = write(tmp_path, "q.ini", QOS_FILE)
    assert execute(["design", "--mode", "rts", "--stations", "20",
                    "--qos", qos]) == 0
    got = parse_design(capsys.readouterr().out)
    voice_rate, voice_delay = got["qos[voice]"].split(" delay ")
    data_rate, data_delay = got["qos[data]"].split(" delay ")
    assert voice_rate == "rate 1.4"
    assert data_rate == "rate 0.2"
    assert float(voice_delay) == 12.777757160701588
    assert float(data_delay) == 18.98440639011267


@pytest.mark.parametrize("body", [
    QOS_FILE + "[timing]\nslot = 10e-6\n",    # would leave the delays at 20 us
    "[sim]\nstations = 20\n" + QOS_FILE,
])
def test_design_qos_file_holds_only_qos(tmp_path, body, capsys):
    qos = write(tmp_path, "q.ini", body)
    assert execute(["design", "--mode", "rts", "--qos", qos, "--units", "us"]) == 2
    assert capsys.readouterr().err.startswith("error: unknown section")


@pytest.mark.parametrize("argv", [
    ["stability", "--mode", "rts", "--lambda", "0.7", "--payloads", ""],
    ["stability", "--mode", "rts", "--lambda", "0.7", "--payloads", ","],
    ["design", "--mode", "rts", "--stations", ","],
    ["design", "--mode", "rts", "--stations", ""],
])
def test_empty_list_is_usage_error(argv, capsys):
    assert execute(argv) == 2
    assert capsys.readouterr().err.startswith("error: list")


@pytest.mark.parametrize("argv,message", [
    (["design", "--mode", "rts", "--qos", ""], "error: cannot read config file"),
    (["analyze", "--mode", "rts", "--lambda", "0.7", "--timing-config", ""],
     "error: cannot read config file"),
    (["simulate", "--scenario", "SCENARIO", "--trace", ""], "error: --trace"),
    (["analyze", "--mode", "rts", "--lambda", "0.7", "--out", ""], "error: --out"),
])
def test_empty_file_name_is_usage_error(tmp_path, argv, message, capsys):
    scenario = write(tmp_path, "s.ini", LEGACY_SCENARIO)
    assert execute([scenario if a == "SCENARIO" else a for a in argv]) == 2
    assert capsys.readouterr().err.startswith(message)


@pytest.mark.parametrize("argv,target", [
    (["analyze", "--mode", "rts", "--lambda", "0.7", "--out", "FILE"], "FILE/analyze.csv"),
    (["simulate", "--scenario", "SCENARIO", "--trace", "FILE/x.jsonl"], "FILE/x.jsonl"),
])
def test_unwritable_output_is_usage_error(tmp_path, argv, target, capsys):
    # FILE is an existing file, so no directory can be made under it
    scenario = write(tmp_path, "s.ini", LEGACY_SCENARIO)
    blocker = write(tmp_path, "f", "kept\n")
    argv = [a.replace("SCENARIO", scenario).replace("FILE", blocker) for a in argv]
    assert execute(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: cannot write {target.replace('FILE', blocker)}: File exists\n"
    assert Path(blocker).read_text() == "kept\n"


# ---------------------------------------------------------------- cli baseline

def test_baseline_sweep(capsys):
    assert execute(["baseline", "--m", "10"]) == 0
    rows = rows_from(capsys.readouterr().out)
    assert [r["mode"] for r in rows] == ["basic", "rts"]
    for r in rows:
        assert float(r["rate"]) == pytest.approx(0.39500175603895277, rel=1e-9)
        assert r["stations"] == "10"


def test_baseline_sweep_runs_past_660_stations(capsys):
    assert execute(["baseline", "--m", "10:1000:10"]) == 0
    rows = rows_from(capsys.readouterr().out)
    assert len(rows) == 200
    assert [r["stations"] for r in rows[-2:]] == ["1000", "1000"]
    assert execute(["baseline", "--m", "3160"]) == 0   # the last m under the rate cap


@pytest.mark.parametrize("stations,reason", [
    ("3161", "attempt rate must be in (0, 5.0]"),   # the rate passes the model's cap
    ("30000", "overflows e^r"),                     # the bracket's midpoint 937.5 overflows
], ids=["rate-cap", "overflow"])
def test_baseline_past_the_model_range_exits_2(stations, reason, capsys):
    assert execute(["baseline", "--m", stations]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and reason in err


@pytest.mark.parametrize("stations", ["10:20:2.5", "10.5", "nan"])
def test_baseline_rejects_fractional_station_counts(stations, capsys):
    assert execute(["baseline", "--m", stations]) == 2
    assert capsys.readouterr().err.startswith("error: station counts")


def test_baseline_rejects_retry_limit_past_255(capsys):
    # a solve loops once per stage, so a huge limit used to run for minutes
    assert execute(["baseline", "--m", "10", "--retry-limit", "1000000000"]) == 2
    assert capsys.readouterr().err == (
        "error: retry limit must be at most 255, got 1000000000\n")


# ---------------------------------------------------------------- cli simulate

LEGACY_SCENARIO = """
[sim]
stations = 3
mode = basic
duration = 20000
seed = 4
"""

TUNED_SCENARIO = """
[sim]
stations = 5
mode = rts
duration = 20000
seed = 3

[policy]
kind = abtmac
target_rate = 0.7
"""


def test_simulate_single_run(tmp_path):
    scenario = write(tmp_path, "s.ini", LEGACY_SCENARIO)
    out = tmp_path / "art"
    assert execute(["simulate", "--scenario", scenario, "--out", str(out)]) == 0
    rows = rows_from((out / "metrics.csv").read_text())
    assert len(rows) == 1
    row = rows[0]
    assert float(row["normalized_throughput"]) == 0.6571726513372033
    assert float(row["mean_access_delay"]) == 9.136784741144426
    assert row["per_station_success"] == "107;135;125"
    assert row["successes"] == "367"
    assert row["m_estimate"] == ""
    assert row["rng_algorithm"] == "pcg64"


def test_simulate_seed_override(tmp_path, capsys):
    scenario = write(tmp_path, "s.ini", LEGACY_SCENARIO)
    assert execute(["simulate", "--scenario", scenario]) == 0
    base = rows_from(capsys.readouterr().out)[0]
    assert execute(["simulate", "--scenario", scenario, "--seed", "4"]) == 0
    same = rows_from(capsys.readouterr().out)[0]
    assert execute(["simulate", "--scenario", scenario, "--seed", "9"]) == 0
    moved = rows_from(capsys.readouterr().out)[0]
    assert same == base
    assert moved != base


def test_simulate_replications(tmp_path, capsys):
    scenario = write(tmp_path, "s.ini", TUNED_SCENARIO)
    assert execute(["simulate", "--scenario", scenario,
                    "--replications", "3"]) == 0
    rows = rows_from(capsys.readouterr().out)
    assert [r["metric"] for r in rows] == [
        "normalized_throughput", "throughput_bps", "mean_access_delay",
        "mean_collisions_per_service", "collision_probability",
        "slot_utilization", "attempt_rate", "jain_index", "drops"]
    for r in rows:
        assert float(r["ci95_half_width"]) >= 0.0


def test_simulate_workers_match(tmp_path):
    scenario = write(tmp_path, "s.ini", TUNED_SCENARIO)
    for workers in ("1", "2"):
        assert execute(["simulate", "--scenario", scenario, "--replications", "3",
                        "--workers", workers, "--out", str(tmp_path / workers)]) == 0
    a = (tmp_path / "1" / "replications.csv").read_bytes()
    b = (tmp_path / "2" / "replications.csv").read_bytes()
    assert a == b


def test_simulate_sensitivity(tmp_path, capsys):
    scenario = write(tmp_path, "s.ini", TUNED_SCENARIO)
    assert execute(["simulate", "--scenario", scenario,
                    "--m-ratios", "1.0,1.5"]) == 0
    rows = rows_from(capsys.readouterr().out)
    assert [r["value"] for r in rows] == ["1.0", "1.5"]
    # ratio 1.0 is the error-free base scenario
    assert float(rows[0]["normalized_throughput"]) == 0.5220612290125438


def test_simulate_trace(tmp_path, capsys):
    scenario = write(tmp_path, "s.ini", LEGACY_SCENARIO)
    trace = tmp_path / "events.jsonl"
    assert execute(["simulate", "--scenario", scenario,
                    "--trace", str(trace)]) == 0
    capsys.readouterr()
    events = [json.loads(line) for line in trace.read_text().splitlines()]
    assert events
    assert {e["kind"] for e in events} <= {"success", "collision", "drop"}
    times = [e["t"] for e in events]
    assert times == sorted(times)


def test_simulate_trace_excludes_replications(tmp_path, capsys):
    scenario = write(tmp_path, "s.ini", LEGACY_SCENARIO)
    assert execute(["simulate", "--scenario", scenario, "--replications", "3",
                    "--trace", str(tmp_path / "t.jsonl")]) == 2


@pytest.mark.parametrize("extra", [
    ["--m-ratios", "1", "--trace", "TRACE"],
    ["--sweep-payloads", "34", "--trace", "TRACE"],
    ["--m-ratios", "1", "--replications", "3"],
    ["--replications", "0"],
    ["--replications", "-3"],
    ["--m-ratios", ""],
    ["--sweep-payloads", ","],
    ["--workers", "0"],                 # a worker count that would be ignored
    ["--workers", "-3"],
])
def test_simulate_refuses_options_its_run_drops(tmp_path, extra, capsys):
    scenario = write(tmp_path, "s.ini", TUNED_SCENARIO)
    trace = tmp_path / "t.jsonl"
    argv = [str(trace) if a == "TRACE" else a for a in extra]
    assert execute(["simulate", "--scenario", scenario] + argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not trace.exists()


def test_simulate_m_ratio_past_float_range_is_usage_error(tmp_path, capsys):
    # 1e308 times 5 stations overflows, and the node count would round inf
    scenario = write(tmp_path, "s.ini", TUNED_SCENARIO)
    assert execute(["simulate", "--scenario", scenario, "--m-ratios", "1e308"]) == 2
    assert capsys.readouterr().err == (
        "error: estimation error factor times the station count overflows\n")


def test_simulate_missing_scenario(tmp_path, capsys):
    assert execute(["simulate", "--scenario", str(tmp_path / "ghost.ini")]) == 2


def test_simulate_rejects_bad_scenario(tmp_path, capsys):
    scenario = write(tmp_path, "s.ini", "[sim]\nstations = 0\nduration = 20000\n")
    assert execute(["simulate", "--scenario", scenario]) == 2


# finite [timing] values whose slot durations overflow: the frame times
# 1/(channel_rate·slot), and the interframe gaps over the slot; or whose
# durations are finite (8e307 slots each) but whose exchange sums are not
OVERFLOWING_TIMING = {
    "frame-times": "[timing]\nchannel_rate = 1e-10\nslot = 1e-300\n",
    "gaps": "[timing]\nsifs = 1e308\ndifs = 1e308\n",
    "sums": "[timing]\nsifs = 1.6e303\ndifs = 1.6e303\n",
}


@pytest.mark.parametrize("argv", [
    ["analyze", "--mode", "rts", "--lambda", "0.7"],
    ["tables", "--table", "2"],
    ["tables", "--table", "3"],
    ["baseline", "--m", "10"],
], ids=" ".join)
@pytest.mark.parametrize("timing", OVERFLOWING_TIMING.values(), ids=list(OVERFLOWING_TIMING))
def test_timing_past_float_range_is_usage_error(tmp_path, argv, timing, capsys):
    assert execute(argv + ["--timing-config", write(tmp_path, "t.ini", timing)]) == 2
    assert capsys.readouterr().err.endswith("every slot duration must be finite\n")


def test_simulate_timing_past_float_range_is_usage_error(tmp_path, capsys):
    for timing in OVERFLOWING_TIMING.values():
        scenario = write(tmp_path, "s.ini", "[sim]\nstations = 3\nduration = 20000\n" + timing)
        assert execute(["simulate", "--scenario", scenario]) == 2
        assert capsys.readouterr().err.endswith("every slot duration must be finite\n")


def test_closed_stdout_exits_1_without_traceback():
    # about 700 KB of rows overflow the pipe buffer, so a write fails
    # once the reader has closed its end
    src = Path(__file__).resolve().parents[1] / "src"
    with subprocess.Popen(
            [sys.executable, "-c", "from maclab.cli import main; main()",
             "analyze", "--mode", "rts", "--lambda", "0.01:2.0:0.0005"],
            env=dict(os.environ, PYTHONPATH=str(src)),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        assert proc.stdout.readline().startswith("rate,payload,")
        proc.stdout.close()
        err = proc.stderr.read()        # until the command exits
    assert proc.returncode == 1
    assert "Traceback" not in err, err


def test_simulate_estimate_overflow_is_usage_error(tmp_path, capsys):
    # a tiny estimator constant sends the measured node estimate past float range
    scenario = write(tmp_path, "s.ini", (
        "[sim]\nstations = 20\nmode = rts\nduration = 200000\nseed = 3\n"
        "[policy]\nkind = abtmac\nk_prime = 0.001\nm_source = measured\n"
        "update_interval = 20\n"))
    assert execute(["simulate", "--scenario", scenario]) == 2
    assert capsys.readouterr().err.startswith("error: node estimate")


CLOSED_FORM_ARGV = [
    ["tables", "--table", "2"],
    ["tables", "--table", "3"],
    ["stability", "--mode", "rts", "--lambda", "0.7"],
    ["analyze", "--mode", "rts", "--lambda", "0.7"],
    ["design", "--mode", "rts"],
    ["baseline", "--m", "10:30:10"],
    ["version"],
]
# what only `simulate` loads; numpy it loads only for draws besides the
# counters (Poisson arrivals, geometric payloads, windows past 2^32), and
# json only for --trace
SIMULATE_ONLY = ["maclab.sim", "maclab.config", "configparser"]
SIMULATE_SOMETIMES = ["numpy", "json"]
# what no closed-form command loads: the records are not dataclasses
NEVER_CLOSED_FORM = ("dataclasses", "inspect")


def _run_fresh(script, *args):
    # pytest has numpy loaded already, so the commands run in a fresh interpreter
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_closed_form_commands_leave_numpy_unloaded(tmp_path):
    scenario = write(tmp_path, "s.ini", "[sim]\nstations = 3\nduration = 10000\nseed = 4\n")
    poisson = write(tmp_path, "p.ini", "[sim]\nstations = 3\nduration = 10000\n"
                                       "arrival_rate = 0.01\n")
    _run_fresh(
        "import sys\n"
        "from maclab.cli import execute\n"
        f"simulate_only = {SIMULATE_ONLY!r}\n"
        "def loaded():\n"
        f"    return [m for m in simulate_only + {SIMULATE_SOMETIMES!r} if m in sys.modules]\n"
        f"for argv in {CLOSED_FORM_ARGV!r}:\n"
        "    assert execute(argv) == 0, argv\n"
        "    assert loaded() == [], (argv, loaded())\n"
        f"    assert [m for m in {NEVER_CLOSED_FORM!r} if m in sys.modules] == [], argv\n"
        "# saturated, fixed payload: counters are the only draws\n"
        "assert execute(['simulate', '--scenario', sys.argv[1]]) == 0\n"
        "assert execute(['simulate', '--scenario', sys.argv[1], '--replications', '5']) == 0\n"
        "assert loaded() == simulate_only, loaded()\n"
        "assert execute(['simulate', '--scenario', sys.argv[2]]) == 0\n"
        "assert loaded() == simulate_only + ['numpy'], loaded()\n", scenario, poisson)
    # a [timing] or [qos] file loads the file reader, not the scenario classes
    timing = write(tmp_path, "t.ini", "[timing]\nslot = 5e-05\n")
    qos = write(tmp_path, "q.ini", QOS_FILE)
    _run_fresh(
        "import sys\n"
        "from maclab.cli import execute\n"
        "def loaded(*names):\n"
        "    return [m for m in names if m in sys.modules]\n"
        f"scenario_only = ('numpy', 'json', 'maclab.sim', 'maclab.legacy', *{NEVER_CLOSED_FORM!r})\n"
        "assert execute(['analyze', '--mode', 'rts', '--lambda', '0.7',\n"
        "                '--timing-config', sys.argv[1]]) == 0\n"
        "assert loaded(*scenario_only, 'maclab.abtmac') == [], loaded(*scenario_only)\n"
        "assert loaded('maclab.config', 'configparser') == ['maclab.config', 'configparser']\n"
        "assert execute(['design', '--mode', 'rts', '--qos', sys.argv[2]]) == 0\n"
        "assert loaded(*scenario_only) == [], loaded(*scenario_only)\n", timing, qos)


def test_out_prints_artifact_path(tmp_path, capsys):
    out = tmp_path / "dir"
    assert execute(["analyze", "--mode", "rts", "--lambda", "0.7",
                    "--out", str(out)]) == 0
    printed = capsys.readouterr().out.strip()
    assert printed.endswith("analyze.csv")
    assert (out / "analyze.csv").exists()


# sha256 of stdout for the closed-form commands the benchmark times, and
# for --units us and --timing-config variants; a deliberate output
# change re-pins here, in the open. T and Q name the files below.
PINNED_FILES = {
    "T": "[timing]\nchannel_rate = 2e6\nslot = 9e-6\nsifs = 16e-6\ndifs = 34e-6\n",
    "Q": QOS_FILE,
}
PINNED_STDOUT = [
    (["tables", "--table", "2"],
     "8b00c6d4158200ac3b0f3d3d6d68ef72aa16e9210e93aaf6dbd4701756265e37"),
    (["tables", "--table", "3"],
     "f4007cbe59e3a4afe1534a457d0221962ef1cff320e4315329f5a36369b68313"),
    (["stability", "--mode", "basic", "--lambda", "0.05:1.99:0.001"],
     "8b793fa81fdd6436cba44d68e8e0b6da5394b949597d1d359873bd53fe7e3a75"),
    (["analyze", "--mode", "rts", "--lambda", "0.01:2.0:0.0005"],
     "1f99144ef3df6d6873096588e0ab314068d86ae209b3c3be8b53b913ed0b65bf"),
    (["baseline", "--m", "10:1000:10"],
     "4e734bdb2a3940a54f4a4c1f6820d910815a5ccb6c599dee2f50c86daede5650"),
    (["design", "--mode", "rts", "--stations", "10,20,50,100,200,500,1000"],
     "fd330006beb6f782646ffe31632706b4721be0b803f32268bc74b8e39deeb238"),
    (["tables", "--table", "2", "--units", "us"],
     "cc9e599ab9d1f0a9833391f31510df44e273c6e4c47e23e5c0c2703376f94cd2"),
    (["tables", "--table", "3", "--units", "us", "--timing-config", "T"],
     "f87e44a216298c059680c781c13c06b859edd5c822c8ca3d588997511a064222"),
    (["analyze", "--mode", "basic", "--lambda", "0.1:1.0:0.01", "--units", "us",
      "--timing-config", "T"],
     "492c560d58ca395f6e55b6daba8e7588878f81752048721e90ec5c6dd1c4b15b"),
    (["stability", "--mode", "basic", "--lambda", "0.31:0.7:0.005", "--timing-config", "T"],
     "854e3fe66e5505ba7df478fa86560c9caa235d8e10df99d4013fa38def7f737a"),
    (["baseline", "--m", "10:100:10", "--units", "us", "--timing-config", "T"],
     "7ca3b340c99638cc64f16cd02ca9abab088f13a3a32021be6a0c66c25942ae90"),
    (["design", "--mode", "basic", "--target-rate", "0.31", "--stations", "50",
      "--qos", "Q", "--units", "us", "--timing-config", "T"],
     "e98cc8847e3688f14d83bffcc2896a0c4fef38256dac6b5fbd21366221f51be8"),
]


@pytest.mark.parametrize("argv,digest", PINNED_STDOUT,
                         ids=[" ".join(argv[:1] + argv[-1:]) for argv, _ in PINNED_STDOUT])
def test_closed_form_stdout_is_pinned(argv, digest, tmp_path, capsys):
    files = {name: write(tmp_path, f"{name}.ini", body) for name, body in PINNED_FILES.items()}
    assert execute([files.get(arg, arg) for arg in argv]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of `simulate` stdout for small scenarios, one per engine path:
# the legacy ladder, a fixed ladder that drops frames, replicated oracle
# tuning, measured re-estimation under Poisson traffic with geometric
# payloads (about 400 deliveries, so several re-estimates), and a sweep
PINNED_SIMULATE = {
    "legacy": (
        "[sim]\nstations = 4\nduration = 20000\nseed = 2\n", [],
        "b8a47bdd1189d1b0d568070af50831a9d19cdedc1ce6de91fd04230c1e7ba1ab"),
    "fixed-drops": (
        "[sim]\nstations = 12\nduration = 20000\nseed = 5\n"
        "[policy]\nkind = fixed\ncw_min = 3\ncw_max = 15\nretry_limit = 2\n", [],
        "603065788e94ac5ce60c2c658e5396027d7c03e8e8d981b1e4dcbce316a10b47"),
    "abtmac-rts-replicated": (
        "[sim]\nstations = 6\nmode = rts\nduration = 20000\nseed = 3\n"
        "[policy]\nkind = abtmac\ntarget_rate = 0.7\n", ["--replications", "3"],
        "43bda029311469935d734a1fd3bcf570456a88fe708cc49962cc8e5366d8b9a4"),
    "measured-poisson": (
        "[sim]\nstations = 10\npayload_model = geometric\npayload = 20\n"
        "arrival_rate = 0.002\nduration = 20000\nseed = 6\n"
        "[policy]\nkind = abtmac\nm_source = measured\nupdate_interval = 40\n", [],
        "c1a7e3227bd825c060c60c6bcf678be4c5990a4a802a043e4c50a9c30d7993f4"),
    "sweep": (
        "[sim]\nstations = 5\nmode = rts\nduration = 20000\nseed = 9\n"
        "[policy]\nkind = abtmac\n", ["--m-ratios", "0.5,2", "--sweep-payloads", "20"],
        "c6f0059301bb6acdd78cd84d4bd2dda855abfe3749c05114a91dd1a9187f4dd2"),
}


@pytest.mark.parametrize("name", PINNED_SIMULATE)
def test_simulate_stdout_is_pinned(name, tmp_path, capsys):
    body, extra, digest = PINNED_SIMULATE[name]
    scenario = write(tmp_path, "s.ini", body)
    assert execute(["simulate", "--scenario", scenario] + extra) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_simulate_pins_hold_without_numpy(tmp_path):
    # in-process, the pins above share the Python-word budget with every
    # earlier test, so they mostly run on numpy's blocks; a fresh process
    # draws these from Python alone and never loads numpy
    cases = [(write(tmp_path, f"{name}.ini", PINNED_SIMULATE[name][0]),
              *PINNED_SIMULATE[name][1:])
             for name in ("legacy", "fixed-drops", "abtmac-rts-replicated")]
    _run_fresh(
        "import contextlib, hashlib, io, sys\n"
        "from maclab.cli import execute\n"
        f"for path, extra, digest in {cases!r}:\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        assert execute(['simulate', '--scenario', path, *extra]) == 0\n"
        "    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest, path\n"
        "assert 'numpy' not in sys.modules\n")
