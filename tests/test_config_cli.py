import csv
import io
import json
import math

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


# ---------------------------------------------------------------- cli baseline

def test_baseline_sweep(capsys):
    assert execute(["baseline", "--m", "10"]) == 0
    rows = rows_from(capsys.readouterr().out)
    assert [r["mode"] for r in rows] == ["basic", "rts"]
    for r in rows:
        assert float(r["rate"]) == pytest.approx(0.3950017574269829, rel=1e-9)
        assert r["stations"] == "10"


@pytest.mark.parametrize("stations", ["10:20:2.5", "10.5", "nan"])
def test_baseline_rejects_fractional_station_counts(stations, capsys):
    assert execute(["baseline", "--m", stations]) == 2
    assert capsys.readouterr().err.startswith("error: station counts")


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
])
def test_simulate_refuses_options_its_run_drops(tmp_path, extra, capsys):
    scenario = write(tmp_path, "s.ini", TUNED_SCENARIO)
    trace = tmp_path / "t.jsonl"
    argv = [str(trace) if a == "TRACE" else a for a in extra]
    assert execute(["simulate", "--scenario", scenario] + argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not trace.exists()


def test_simulate_missing_scenario(tmp_path, capsys):
    assert execute(["simulate", "--scenario", str(tmp_path / "ghost.ini")]) == 2


def test_simulate_rejects_bad_scenario(tmp_path, capsys):
    scenario = write(tmp_path, "s.ini", "[sim]\nstations = 0\nduration = 20000\n")
    assert execute(["simulate", "--scenario", scenario]) == 2


def test_simulate_estimate_overflow_is_usage_error(tmp_path, capsys):
    # a tiny estimator constant sends the measured node estimate past float range
    scenario = write(tmp_path, "s.ini", (
        "[sim]\nstations = 20\nmode = rts\nduration = 200000\nseed = 3\n"
        "[policy]\nkind = abtmac\nk_prime = 0.001\nm_source = measured\n"
        "update_interval = 20\n"))
    assert execute(["simulate", "--scenario", scenario]) == 2
    assert capsys.readouterr().err.startswith("error: node estimate")


def test_out_prints_artifact_path(tmp_path, capsys):
    out = tmp_path / "dir"
    assert execute(["analyze", "--mode", "rts", "--lambda", "0.7",
                    "--out", str(out)]) == 0
    printed = capsys.readouterr().out.strip()
    assert printed.endswith("analyze.csv")
    assert (out / "analyze.csv").exists()
