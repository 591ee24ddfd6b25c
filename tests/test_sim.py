import dataclasses
import hashlib
import heapq
import importlib.util
import json
import math
import random
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import maclab
from maclab import sim
from maclab.abtmac import AbtmacParams, cw_min, estimate_active_nodes
from maclab.config import load_scenario
from maclab.errors import ValidationError
from maclab.legacy import DcfParams
from maclab.model import ModelPoint
from maclab.sim import (Abtmac, FixedPayload, FixedWindow, GeometricPayload,
                        LegacyDcf, MIN_DURATION, PoissonTraffic, SATURATED,
                        SimConfig, SimMetrics, _Run, _t95, run, run_replicated,
                        sensitivity_suite)
from maclab.timing import AccessMode, TimingParams

RTS = AccessMode.RTS_CTS
BASIC = AccessMode.BASIC


# ---------------------------------------------------------------- window ladder

def _ladder(cw_min, cw_max, stages, m):
    cfg = SimConfig(station_count=m, mode=BASIC, duration=20_000,
                    policy=FixedWindow(cw_min, cw_max))
    engine = _Run(cfg)
    # a stage-0 window of at most four slots per station takes the ring,
    # if cw_max stays under 4M or 2^12
    assert (engine.ring is not None) == (cw_min + 1 <= 4 * m and cw_max < max(4 * m, 2**12))
    assert len(engine.highs) == engine.retry_limit + 1     # one bound per stage
    return [engine.highs[min(stage, engine.retry_limit)] - 1 for stage in stages]


def test_station_window_ladder():
    # the window doubles per collision stage and caps, never wraps
    for m in (1, 300):
        assert _ladder(32, 1024, [0, 3, 7, 20], m) == [32, 263, 1024, 1024]


def test_station_zero_window_degenerate():
    for m in (1, 300):
        assert _ladder(0, 0, [0, 5], m) == [0, 0]


# ---------------------------------------------------------------- config checks

VALID = SimConfig(station_count=2, mode=BASIC, policy=LegacyDcf(),
                  duration=20_000, seed=1)


def test_config_accepts_valid():
    assert replace(VALID) == VALID


# each case is built inside the test, since an invalid part cannot be built at all
@pytest.mark.parametrize("broken", [
    lambda: replace(VALID, station_count=0),
    lambda: replace(VALID, station_count=2.5),
    lambda: replace(VALID, duration=9_999),
    lambda: replace(VALID, estimation_error_factor=0.0),
    lambda: replace(VALID, policy="junk"),
    lambda: replace(VALID, policy=Abtmac(AbtmacParams(0.7), m_source="guess")),
    lambda: replace(VALID, policy=Abtmac(AbtmacParams(0.7), m_source="measured",
                                         update_interval=0)),
    lambda: replace(VALID, policy=Abtmac(AbtmacParams(-0.7))),
    lambda: replace(VALID, policy=FixedWindow(-1)),
    lambda: replace(VALID, policy=FixedWindow(5, 3)),
    lambda: replace(VALID, policy=LegacyDcf(DcfParams(32, 1000))),
    lambda: replace(VALID, payload=FixedPayload(0.0)),
    lambda: replace(VALID, payload=GeometricPayload(0.5)),
    lambda: replace(VALID, payload="junk"),
    lambda: replace(VALID, traffic="junk"),
    lambda: replace(VALID, traffic=PoissonTraffic(0.0)),
    # the error factor only scales an oracle node count
    lambda: replace(VALID, estimation_error_factor=3.0),
    lambda: replace(VALID, policy=FixedWindow(16), estimation_error_factor=0.5),
    lambda: replace(VALID, policy=Abtmac(AbtmacParams(0.7), m_source="measured"),
                    estimation_error_factor=1.5),
    # NaN fails every comparison, including the ones meant to reject it
    lambda: replace(VALID, duration=math.nan),
    lambda: replace(VALID, policy=Abtmac(AbtmacParams(0.7)), estimation_error_factor=math.nan),
    lambda: replace(VALID, payload=FixedPayload(math.nan)),
    lambda: replace(VALID, payload=GeometricPayload(math.nan)),
    lambda: replace(VALID, traffic=PoissonTraffic(math.nan)),
    lambda: replace(VALID, policy=Abtmac(AbtmacParams(math.nan))),
    lambda: replace(VALID, policy=Abtmac(AbtmacParams(0.7, k_const=math.nan))),
    # and infinity passes every lower bound
    lambda: replace(VALID, station_count=math.inf),
    lambda: replace(VALID, duration=math.inf),
    lambda: replace(VALID, policy=Abtmac(AbtmacParams(0.7)), estimation_error_factor=math.inf),
    lambda: replace(VALID, payload=FixedPayload(math.inf)),
    lambda: replace(VALID, payload=GeometricPayload(math.inf)),
    lambda: replace(VALID, traffic=PoissonTraffic(math.inf)),
    lambda: replace(VALID, policy=Abtmac(AbtmacParams(math.inf))),
    lambda: replace(VALID, policy=Abtmac(AbtmacParams(0.7, k_prime=math.inf))),
    lambda: replace(VALID, policy=Abtmac(AbtmacParams(0.7), m_source="measured",
                                         update_interval=math.inf)),
    lambda: replace(VALID, policy=FixedWindow(3, math.inf)),
    # a station offered more than a frame per slot is saturated anyway
    lambda: replace(VALID, traffic=PoissonTraffic(1.5)),
    lambda: replace(VALID, policy=FixedWindow(3, 15, -4)),
    # a fractional window or retry limit would break the integer draws,
    # and a fractional interval is never reached by a success count
    lambda: replace(VALID, policy=FixedWindow(3.5, 15, 2)),
    lambda: replace(VALID, policy=FixedWindow(3, 15.0, 2)),
    lambda: replace(VALID, policy=FixedWindow(3, 15, 2.5)),
    lambda: replace(VALID, policy=LegacyDcf(DcfParams(32.0))),
    lambda: replace(VALID, policy=Abtmac(AbtmacParams(0.7, cw_max=1024.5))),
    lambda: replace(VALID, policy=Abtmac(AbtmacParams(0.7), m_source="measured",
                                         update_interval=2.5)),
    # a finite factor whose oracle node count is not: round() would overflow
    lambda: replace(VALID, station_count=20, policy=Abtmac(AbtmacParams(0.7)),
                    estimation_error_factor=1e308),
    # a subnormal arrival rate whose mean arrival gap 1/rate overflows
    lambda: replace(VALID, traffic=PoissonTraffic(5e-324)),
    # counters are numpy int64 draws, whose bound cw_max + 1 stops at 2^63
    lambda: replace(VALID, policy=FixedWindow(2**63, 2**64, 1)),
    lambda: replace(VALID, policy=LegacyDcf(DcfParams(2**63, 2**63))),
    lambda: replace(VALID, policy=Abtmac(AbtmacParams(0.7, cw_max=2**63))),
    # counts, durations and seeds are integers, checked before any comparison,
    # and a bool is not one
    lambda: replace(VALID, station_count="5"),
    lambda: replace(VALID, duration="x"),
    lambda: replace(VALID, duration=20_000.0),
    lambda: replace(VALID, seed="1"),
    lambda: replace(VALID, station_count=True),
    lambda: replace(VALID, seed=True),
    # nor anywhere else a number goes
    lambda: replace(VALID, policy=FixedWindow(True, 7, 1)),
    lambda: replace(VALID, policy=Abtmac(AbtmacParams(0.7), m_source="measured",
                                         update_interval=True)),
    lambda: replace(VALID, traffic=PoissonTraffic(True)),
    lambda: replace(VALID, payload=FixedPayload(True)),
    lambda: replace(VALID, payload=GeometricPayload(True)),
    lambda: replace(VALID, policy=Abtmac(AbtmacParams(0.7)), estimation_error_factor=True),
    # and in the window parameters the policies carry
    lambda: replace(VALID, policy=LegacyDcf(DcfParams(True, True, True))),
    lambda: replace(VALID, policy=LegacyDcf(DcfParams(True, 1024, 10))),
    lambda: replace(VALID, policy=LegacyDcf(DcfParams(1, 2, True))),
    lambda: replace(VALID, policy=Abtmac(AbtmacParams(True, k_const=True, cw_max=True,
                                                      retry_limit=True))),
    lambda: replace(VALID, policy=Abtmac(AbtmacParams(True))),
    lambda: replace(VALID, policy=Abtmac(AbtmacParams(0.7, k_const=True))),
    lambda: replace(VALID, policy=Abtmac(AbtmacParams(0.7, k_prime=True))),
    lambda: replace(VALID, policy=Abtmac(AbtmacParams(0.7, cw_max=True))),
    lambda: replace(VALID, policy=Abtmac(AbtmacParams(0.7, retry_limit=True))),
    # the engine tables one counter bound per stage, up to 802.11's 255
    lambda: replace(VALID, policy=FixedWindow(3, 15, 256)),
    lambda: replace(VALID, policy=Abtmac(AbtmacParams(0.7, retry_limit=256))),
])
def test_config_rejections(broken):
    with pytest.raises(ValidationError):
        broken()


def test_largest_simulated_window_runs():
    # cw_max = 2^63 - 1 draws below 2^63, the largest int64 bound numpy takes
    metrics = sim.run(replace(VALID, policy=FixedWindow(2**63 - 1, 2**63 - 1, 1)))
    assert metrics.final_cw_min == 2**63 - 1


# the arguments of one valid instance of each parameter type
_VALID_ARGS = {
    ModelPoint: {"rate": 0.7, "payload": 34.0, "mode": RTS},
    TimingParams: {},
    DcfParams: {},
    AbtmacParams: {"target_rate": 0.7},
    FixedWindow: {"cw_min": 16},
    Abtmac: {"params": AbtmacParams(0.7)},
    FixedPayload: {},
    GeometricPayload: {},
    PoissonTraffic: {"rate": 0.01},
    SimConfig: {"station_count": 2, "duration": 20_000},
}
# the closed-form records and the simulator's dataclasses both list
# their fields, in order, as their pattern-matching positions
_NON_FINITE_CASES = [
    (cls, name, bad)
    for cls, args in _VALID_ARGS.items()
    for name in cls.__match_args__
    if type(getattr(cls(**args), name)) in (int, float)
    for bad in (math.nan, math.inf, -math.inf)]


@pytest.mark.parametrize("cls,name,bad", _NON_FINITE_CASES,
                         ids=[f"{c.__name__}.{n}={b}" for c, n, b in _NON_FINITE_CASES])
def test_parameter_types_reject_non_finite(cls, name, bad):
    with pytest.raises(ValidationError):
        cls(**{**_VALID_ARGS[cls], name: bad})


# ---------------------------------------------------------------- frozen runs
#
# Three cheap scenarios pinned bit-for-bit: a tuned handshake cell, a
# standard-ladder basic cell, and an unsaturated geometric-payload cell.
# Any engine change that moves a single event shows up here first.

SMALL_TUNED_RTS = SimConfig(station_count=5, mode=RTS, policy=Abtmac(AbtmacParams(0.7)),
                            duration=20_000, seed=3)
SMALL_LEGACY_BASIC = SimConfig(station_count=3, mode=BASIC, policy=LegacyDcf(),
                               duration=20_000, seed=4)
SMALL_POISSON_GEOM = SimConfig(station_count=4, mode=BASIC, policy=LegacyDcf(),
                               payload=GeometricPayload(34.0),
                               traffic=PoissonTraffic(0.002),
                               duration=20_000, seed=5)

FROZEN_TUNED_RTS = SimMetrics(
    normalized_throughput=0.5220612290125438, throughput_bps=522061.2290125438,
    mean_access_delay=7.926460481099734,
    mean_collisions_per_service=0.19931271477663232,
    collision_probability=0.166189111747851,
    slot_utilization=0.8413554385335419, attempt_rate=0.5235069885641678,
    jain_index=0.9216979591836735, drops=0, successes=291, collisions=58,
    per_station_success=(55, 66, 76, 67, 27),
    elapsed_slots=18951.800000000138, idle_slots=787,
    busy_slots=16381.700000000099, defer_slots=1783.100000000002,
    frame_slots=15945.200000000095, final_cw_min=10, m_estimate=5)

FROZEN_LEGACY_BASIC = SimMetrics(
    normalized_throughput=0.6571726513372033, throughput_bps=657172.6513372032,
    mean_access_delay=9.136784741144426,
    mean_collisions_per_service=0.043596730245231606,
    collision_probability=0.04177545691906005,
    slot_utilization=0.7940634315388159, attempt_rate=0.1584590945194599,
    jain_index=0.9911109148840667, drops=0, successes=367, collisions=16,
    per_station_success=(107, 135, 125),
    elapsed_slots=18987.39999999998, idle_slots=2518,
    busy_slots=15260.700000000099, defer_slots=1208.7000000000003,
    frame_slots=15077.200000000097, final_cw_min=32, m_estimate=None)

FROZEN_POISSON_GEOM = SimMetrics(
    normalized_throughput=0.28303965913503415, throughput_bps=283039.65913503413,
    mean_access_delay=13.224203821656056,
    mean_collisions_per_service=0.006369426751592357,
    collision_probability=0.006329113924050633,
    slot_utilization=0.3319550410864031, attempt_rate=0.012988073844143114,
    jain_index=0.9892839942205811, drops=0, successes=157, collisions=1,
    per_station_success=(39, 46, 36, 36),
    elapsed_slots=19057.4, idle_slots=12242,
    busy_slots=6404.70000000002, defer_slots=410.7,
    frame_slots=6326.200000000019, final_cw_min=32, m_estimate=None)


def assert_metrics_equal(actual, expected):
    for f in dataclasses.fields(SimMetrics):
        a, e = getattr(actual, f.name), getattr(expected, f.name)
        if isinstance(e, float):
            assert a == pytest.approx(e, rel=1e-12, abs=1e-12), f.name
        else:
            assert a == e, f.name


@pytest.fixture(scope="module")
def small_runs():
    return {"tuned_rts": run(SMALL_TUNED_RTS),
            "legacy_basic": run(SMALL_LEGACY_BASIC),
            "poisson_geom": run(SMALL_POISSON_GEOM)}


@pytest.mark.parametrize("key,expected", [
    ("tuned_rts", FROZEN_TUNED_RTS),
    ("legacy_basic", FROZEN_LEGACY_BASIC),
    ("poisson_geom", FROZEN_POISSON_GEOM),
])
def test_frozen_scenarios(small_runs, key, expected):
    assert_metrics_equal(small_runs[key], expected)


# Seven heavier runs that reach the engine's rarer paths: several stations
# activated by one arrival roll, many-way collisions with retry-limit
# drops and spans set by the largest payload, measured-mode re-estimation,
# handshake collisions under Poisson load, a wide sparse population whose
# idle stations are woken one by one, an overloaded population whose
# queues only grow, so that nearly every roll draws many stations in
# rounds, and a window above 2^32, where
# numpy bounds each counter on its 64-bit path (over 2^38 slots the
# redrawn counters reach the metrics). Each pins its metrics, its
# event count per kind and a digest of its trace stream, compared by value
# (JSON renders any float subclass by its value).

STRESS_PINS = {
    "heavy_poisson": (
        SimConfig(station_count=20, mode=BASIC, policy=Abtmac(AbtmacParams(0.55)),
                  payload=GeometricPayload(34.0), traffic=PoissonTraffic(2e-3),
                  duration=50_000, seed=7),
        SimMetrics(
            normalized_throughput=0.4996180483749206,
            throughput_bps=499618.04837492056,
            mean_access_delay=26.16862170087951,
            mean_collisions_per_service=0.32991202346041054,
            collision_probability=0.24807056229327454,
            slot_utilization=0.8280795641108993, attempt_rate=0.5917248255234298,
            jain_index=0.9039256840796019, drops=1, successes=682, collisions=225,
            per_station_success=(33, 42, 35, 38, 33, 48, 39, 35, 37, 27,
                                 14, 48, 9, 48, 40, 29, 24, 27, 23, 53),
            elapsed_slots=47388.199999999175, idle_slots=2006,
            busy_slots=39582.19999999944, defer_slots=5799.9999999999745,
            frame_slots=39241.19999999944, final_cw_min=30, m_estimate=20),
        {"success": 718, "collision": 235, "drop": 1},
        "ff6a2d65604d49a2f14b89aa3e47bf273d3b0362441bf3a92b9f9a0ab35c0335"),
    "fixed_window": (
        SimConfig(station_count=30, mode=BASIC, policy=FixedWindow(3, 15, 2),
                  payload=GeometricPayload(20.0), duration=30_000, seed=8),
        SimMetrics(
            normalized_throughput=0.12776110213191666,
            throughput_bps=127761.10213191666,
            mean_access_delay=47.85090909090948,
            mean_collisions_per_service=2.2, collision_probability=0.6875,
            slot_utilization=0.7410283859140898, attempt_rate=7.3754152823920265,
            jain_index=0.7671174978867287, drops=658, successes=165, collisions=363,
            per_station_success=(10, 0, 5, 6, 6, 11, 3, 5, 6, 2, 6, 7, 5, 7, 1,
                                 12, 3, 2, 5, 8, 2, 11, 5, 7, 2, 2, 4, 8, 7, 7),
            elapsed_slots=28584.60000000012, idle_slots=301,
            busy_slots=21264.499999999978, defer_slots=7019.099999999953,
            frame_slots=21181.999999999978, final_cw_min=3, m_estimate=None),
        {"collision": 382, "success": 174, "drop": 686},
        "7c11b65187a708ed377e45c973f834a289b6bb1e97b4651f18c56b6a16c5370b"),
    "measured": (
        SimConfig(station_count=15, mode=RTS,
                  policy=Abtmac(AbtmacParams(0.7), "measured", 50),
                  duration=50_000, seed=9),
        SimMetrics(
            normalized_throughput=0.4836374654905464,
            throughput_bps=483637.4654905464,
            mean_access_delay=13.100591715975995,
            mean_collisions_per_service=0.42159763313609466,
            collision_probability=0.29656607700312176,
            slot_utilization=0.804726954413854, attempt_rate=0.9416846652267818,
            jain_index=0.7431229062998016, drops=2, successes=676, collisions=285,
            per_station_success=(56, 42, 84, 58, 65, 51, 2, 24, 97, 42,
                                 62, 47, 2, 28, 16),
            elapsed_slots=47523.199999999306, idle_slots=1389,
            busy_slots=39257.19999999986, defer_slots=6876.999999999965,
            frame_slots=38243.19999999991, final_cw_min=6, m_estimate=3),
        {"success": 713, "collision": 297, "drop": 2},
        "3d416a71aeb530cda3fcbcf241f7c05b0148567522d4f0c6a2596fd299b6e983"),
    "legacy_rts_poisson": (
        SimConfig(station_count=40, mode=RTS, policy=LegacyDcf(),
                  traffic=PoissonTraffic(5e-4), duration=50_000, seed=10),
        SimMetrics(
            normalized_throughput=0.4844589247529154,
            throughput_bps=484458.9247529154,
            mean_access_delay=12.853471196454695,
            mean_collisions_per_service=0.39438700147710487,
            collision_probability=0.2828389830508475,
            slot_utilization=0.8029920358303542, attempt_rate=0.7177914110429447,
            jain_index=0.8565616356432683, drops=0, successes=677, collisions=267,
            per_station_success=(20, 23, 21, 23, 18, 16, 18, 13, 16, 12,
                                 0, 1, 17, 23, 17, 17, 14, 4, 25, 27,
                                 15, 26, 16, 27, 19, 25, 14, 16, 26, 4,
                                 24, 19, 7, 9, 24, 11, 21, 14, 15, 20),
            elapsed_slots=47512.79999999934, idle_slots=1793,
            busy_slots=39167.89999999987, defer_slots=6551.899999999968,
            frame_slots=38152.39999999992, final_cw_min=32, m_estimate=None),
        {"success": 711, "collision": 275},
        "9808db2e9fb8f2e155a18849041b386f1ceff95c611df4bd8ad8ffd5a53b7970"),
    "wide_sparse_poisson": (
        SimConfig(station_count=500, mode=BASIC, policy=Abtmac(AbtmacParams(0.55)),
                  payload=GeometricPayload(34.0), traffic=PoissonTraffic(2e-5),
                  duration=50_000, seed=13),
        SimMetrics(
            normalized_throughput=0.3379928843603325,
            throughput_bps=337992.8843603325,
            mean_access_delay=45.39572649572649,
            mean_collisions_per_service=0.002136752136752137,
            collision_probability=0.0021321961620469083,
            slot_utilization=0.39428222563735765, attempt_rate=0.017184643510054845,
            jain_index=0.4740779220779221, drops=0, successes=468, collisions=1,
            per_station_success=(0, 0, 0, 1, 2, 1, 0, 0, 1, 0, 2, 0, 1, 1, 2, 2, 0, 1, 0, 2,
                                 1, 0, 1, 1, 0, 1, 0, 2, 1, 2, 2, 1, 1, 3, 0, 1, 4, 1, 0, 2,
                                 1, 1, 1, 1, 0, 1, 0, 0, 0, 1, 1, 0, 1, 1, 0, 0, 2, 1, 2, 2,
                                 0, 2, 3, 1, 0, 2, 1, 1, 0, 0, 1, 1, 0, 1, 0, 1, 1, 0, 1, 0,
                                 3, 0, 0, 0, 0, 4, 0, 1, 1, 1, 0, 1, 0, 0, 2, 1, 1, 1, 1, 1,
                                 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 1, 2, 1, 1, 1, 0, 0, 1, 0, 4,
                                 0, 0, 0, 2, 1, 1, 1, 1, 2, 0, 1, 1, 2, 0, 2, 0, 0, 1, 4, 1,
                                 1, 2, 2, 0, 3, 1, 1, 0, 2, 1, 2, 2, 0, 1, 0, 1, 0, 1, 2, 0,
                                 0, 1, 1, 0, 1, 1, 0, 0, 0, 1, 0, 0, 4, 1, 1, 0, 1, 1, 3, 0,
                                 1, 4, 3, 0, 0, 2, 0, 1, 1, 0, 0, 5, 1, 0, 2, 3, 1, 0, 1, 1,
                                 0, 1, 0, 2, 1, 0, 0, 0, 1, 1, 1, 0, 1, 0, 1, 1, 0, 0, 0, 2,
                                 3, 2, 0, 2, 0, 0, 1, 1, 1, 1, 0, 0, 1, 0, 0, 0, 0, 4, 3, 2,
                                 1, 2, 0, 1, 2, 2, 1, 2, 0, 2, 0, 3, 1, 0, 0, 0, 0, 0, 2, 1,
                                 2, 2, 2, 0, 2, 3, 3, 1, 0, 2, 0, 0, 2, 2, 0, 0, 0, 1, 0, 0,
                                 0, 0, 1, 1, 1, 3, 1, 3, 2, 1, 2, 0, 0, 0, 2, 0, 1, 1, 0, 0,
                                 1, 0, 0, 0, 0, 1, 1, 3, 0, 1, 1, 0, 3, 0, 2, 0, 1, 1, 1, 0,
                                 0, 1, 2, 1, 0, 2, 1, 2, 1, 1, 0, 0, 1, 1, 1, 1, 1, 3, 0, 1,
                                 0, 0, 2, 0, 0, 1, 3, 0, 2, 1, 1, 2, 0, 0, 5, 2, 2, 0, 1, 2,
                                 1, 0, 1, 0, 1, 1, 2, 4, 3, 1, 1, 2, 1, 0, 2, 0, 0, 1, 2, 1,
                                 1, 1, 2, 1, 0, 0, 1, 0, 1, 1, 3, 0, 3, 2, 0, 1, 2, 1, 0, 3,
                                 0, 0, 0, 0, 3, 2, 1, 0, 0, 1, 0, 1, 1, 2, 0, 2, 2, 0, 2, 1,
                                 1, 0, 0, 1, 0, 1, 2, 0, 1, 0, 1, 1, 0, 3, 1, 2, 2, 0, 0, 0,
                                 2, 0, 0, 0, 0, 0, 1, 0, 0, 2, 1, 1, 1, 1, 1, 1, 0, 1, 2, 1,
                                 1, 2, 1, 1, 0, 0, 2, 0, 2, 0, 0, 0, 0, 0, 0, 2, 1, 1, 1, 2,
                                 1, 0, 0, 0, 0, 1, 1, 0, 0, 2, 2, 1, 1, 0, 0, 0, 3, 0, 2, 1),
            elapsed_slots=47500.99999999955, idle_slots=27350,
            busy_slots=18962.799999999937, defer_slots=1188.2,
            frame_slots=18728.79999999995, final_cw_min=280, m_estimate=500),
        {"success": 494, "collision": 1},
        "686e3315022bf8d97c11c0e1e04c62f9a35c5d7f3971bcd8a94ae24e9a09804a"),
    "overloaded_poisson": (
        SimConfig(station_count=16, mode=BASIC, policy=Abtmac(AbtmacParams(0.55)),
                  payload=GeometricPayload(34.0), traffic=PoissonTraffic(0.05),
                  duration=20_000, seed=3),
        SimMetrics(
            normalized_throughput=0.44734516997643864,
            throughput_bps=447345.1699764386,
            mean_access_delay=33.64878048780503,
            mean_collisions_per_service=0.3821138211382114,
            collision_probability=0.27647058823529413,
            slot_utilization=0.8282459609559103, attempt_rate=0.5483476132190942,
            jain_index=0.8438755020080321, drops=0, successes=246, collisions=94,
            per_station_success=(5, 21, 24, 16, 22, 4, 21, 7, 9, 24, 8, 18, 20, 16, 18, 13),
            elapsed_slots=19014.400000000012, idle_slots=817,
            busy_slots=15871.600000000068, defer_slots=2325.7999999999997,
            frame_slots=15748.600000000071, final_cw_min=26, m_estimate=16),
        {"success": 261, "collision": 99},
        "b15a1850f93a8bc597d997884aad913140c3ac7df7724c10c8407a9146f94ab6"),
    "wide_window": (
        SimConfig(station_count=3, mode=BASIC, policy=FixedWindow(2**32, 2**33, 1),
                  duration=2**38, seed=12),
        SimMetrics(
            normalized_throughput=4.617500540847214e-08,
            throughput_bps=0.04617500540847214,
            mean_access_delay=736329053.6118981,
            mean_collisions_per_service=0.0, collision_probability=0.0,
            slot_utilization=5.378030041692672e-08, attempt_rate=1.3580884729384545e-09,
            jain_index=0.9972469648587869, drops=0, successes=353, collisions=0,
            per_station_success=(109, 123, 121),
            elapsed_slots=259924170962.80157, idle_slots=259924155925,
            busy_slots=14155.300000000092, defer_slots=882.5,
            frame_slots=13978.80000000009, final_cw_min=2**32, m_estimate=None),
        {"success": 375},
        "353fc9c36c6842fd526b559bc1a0471e3727131859622806df845006102638b3"),
}


@pytest.mark.parametrize("key", list(STRESS_PINS))
def test_engine_stress_pins(key):
    config, expected, kinds, digest = STRESS_PINS[key]
    events = []
    assert_metrics_equal(run(config, trace=events.append), expected)
    assert Counter(e["kind"] for e in events) == kinds
    stream = json.dumps(events, sort_keys=True).encode()
    assert hashlib.sha256(stream).hexdigest() == digest


def _assert_arrival_heaps_exact(engine):
    """Every station sits once in the arrival heap, at its next arrival;
    exactly the stations with empty queues sit in the quiet heap."""
    for heap in (engine.arrivals, engine.quiet):
        assert all(heap[(k - 1) // 2] <= heap[k] for k in range(1, len(heap)))
    arrivals = [(t, i) for i, t in enumerate(engine.next_arrival)]
    by_station = lambda e: e[1]
    assert sorted(engine.arrivals, key=by_station) == arrivals
    assert sorted(engine.quiet, key=by_station) == [
        e for e, q in zip(arrivals, engine.queue) if not q]


def test_arrival_heaps_stay_exact():
    def checked_event(event):
        # a lone due station rolls inline, so the heaps are checked at every
        # event, which follows every roll before it; and every station with
        # a frame is armed, or sending in this event
        _assert_arrival_heaps_exact(engine)
        if event["kind"] != "drop":
            sending = event.get("stations", [event.get("station")])
            armed = [i for tied in engine.stations_at.values() for i in tied]
            assert sorted(armed + sending) == [i for i, q in enumerate(engine.queue) if q]
        events.append(event)

    events = []
    engine = _Run(STRESS_PINS["heavy_poisson"][0], trace=checked_event)
    roll = engine._roll_arrivals
    backlogged = []

    def checked_roll(clock):
        # the loop hands the roll two or more due stations; the roll hands
        # back, in station order, the quiet stations it woke, their backoff
        # started
        assert sum(t <= clock for t, _ in engine.arrivals) > 1
        assert engine.arrivals[0][0] <= clock
        backlogged.append(sum(q > 0 for q in engine.queue))
        quiet = {i for _, i in engine.quiet}
        fresh = roll(clock)
        _assert_arrival_heaps_exact(engine)
        assert engine.arrivals[0][0] > clock
        assert fresh == sorted(quiet - {i for _, i in engine.quiet})
        assert all(engine.queue[i] and engine.backoff_start[i] == clock for i in fresh)
        return fresh

    engine._roll_arrivals = checked_roll
    assert_metrics_equal(engine.run(), STRESS_PINS["heavy_poisson"][1])
    _assert_arrival_heaps_exact(engine)
    assert Counter(e["kind"] for e in events) == STRESS_PINS["heavy_poisson"][2]
    # rolls found the population both empty and backlogged
    assert min(backlogged) == 0 and max(backlogged) > 1


class _DrawSizes:
    """A generator that tallies its exponential draws by size (None for a
    scalar) and passes every call through."""

    def __init__(self, rng):
        self.rng, self.sizes = rng, Counter()

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def exponential(self, scale, size=None):
        self.sizes[size] += 1
        return self.rng.exponential(scale, size)


def test_rolls_take_both_draw_paths():
    sizes = {}
    for key in ("heavy_poisson", "overloaded_poisson"):
        config, expected = STRESS_PINS[key][:2]
        engine = _Run(config)
        engine.rng = draws = _DrawSizes(engine.rng)
        assert_metrics_equal(engine.run(), expected)
        sizes[key] = draws.sizes
    # a lone due station draws scalars; several draw one array per round
    light = sizes["heavy_poisson"]
    assert light[None] > 0 and any(n is not None for n in light)
    assert max(n for n in sizes["overloaded_poisson"] if n is not None) > 1


# The engine draws counters and payloads one station at a time where it
# once drew arrays, and a lone due station's arrivals one at a time where
# several draw an array per round; the pinned runs stay put only because
# numpy's scalar and array forms walk the same PCG64 stream. A numpy
# release that breaks this fails here.

MIXED_BOUNDS = [0, 1, 31, 1023, 2**20, 1023, 0, 31, 2**20, 1]


def _scalar_and_array(scalar, array):
    """Values and end states of `scalar(rng, i)` per index and `array(rng)`."""
    a, b = (np.random.Generator(np.random.PCG64(2024)) for _ in range(2))
    one_by_one = [scalar(a, i) for i in range(len(MIXED_BOUNDS))]
    return one_by_one, a.bit_generator.state, list(array(b)), b.bit_generator.state


@pytest.mark.parametrize("scalar,array", [
    (lambda rng, i: rng.integers(0, MIXED_BOUNDS[i] + 1),
     lambda rng: rng.integers(0, np.array(MIXED_BOUNDS) + 1)),
    (lambda rng, i: rng.geometric(1 / 34),
     lambda rng: rng.geometric(1 / 34, size=len(MIXED_BOUNDS))),
    (lambda rng, i: rng.geometric(1.0),
     lambda rng: rng.geometric(1.0, size=len(MIXED_BOUNDS))),
    (lambda rng, i: rng.exponential(500.0),
     lambda rng: rng.exponential(500.0, size=len(MIXED_BOUNDS))),
], ids=["integers", "geometric", "geometric_p1", "exponential"])
def test_scalar_draws_follow_the_array_stream(scalar, array):
    one_by_one, scalar_state, at_once, array_state = _scalar_and_array(scalar, array)
    assert one_by_one == at_once
    assert scalar_state == array_state


# `_Run.run` does not call numpy for a counter: it runs numpy's own
# bounded-integer rule (Lemire's multiply-and-reject on 32-bit halves of
# the raw PCG64 output, low half first), taking numpy's 64-bit path only
# above 2^32. It reads the halves from one iterator, from construction's
# counters on, so numpy's own half buffer is never used. With other draws
# in the run it takes a raw word only when the last one's halves are used
# up; that is exact only while numpy's geometric and exponential draws
# leave the buffer alone. With counters alone it takes whole blocks of raw
# words, for a process's first 2^18 words from a Python copy of PCG64.
# A numpy release that changes the rule, the stream or the buffer fails here.

def _armed(engine):
    """The armed stations by deadline, read from the ring or the heap."""
    if engine.ring is None:
        assert sorted(engine.armed) == sorted(engine.stations_at)
        return dict(engine.stations_at)
    assert not engine.armed and not engine.stations_at
    mask = len(engine.ring) - 1
    return {engine.idle_slots + (k - engine.idle_slots & mask): tied
            for k, tied in enumerate(engine.ring) if tied}


def _arm(engine, ring, armed):
    """Arm the engine with `armed` ({deadline: stations, in order}): in a
    ring, one list per idle slot and a power of two above cw_max, if
    `ring`, else in the heap, whatever structure its config selects."""
    engine.armed.clear()
    engine.stations_at.clear()
    engine.ring = [[] for _ in range(1 << engine.cw_max.bit_length())] if ring else None
    for deadline, tied in armed.items():
        if ring:
            engine.ring[deadline & len(engine.ring) - 1] = tied
        else:
            engine.stations_at[deadline] = tied
            heapq.heappush(engine.armed, deadline)


def _engine_counters(engine, highs, stations):
    """The counters `run` draws, in order, for `stations` at `highs[stage]`."""
    engine.highs = highs
    _arm(engine, engine.ring is not None, {})
    engine.pending = stations
    engine.clock = float(engine.cfg.duration)     # draw the pending counters, then stop
    engine.run()
    counters = {i: deadline - engine.idle_slots
                for deadline, tied in _armed(engine).items() for i in tied}
    assert len(counters) == len(stations)
    return [counters[i] for i in stations]


def test_engine_draws_follow_numpy_integers():
    # geometric payloads: the engine takes raw words one at a time
    engine = _Run(SimConfig(station_count=1, mode=BASIC, payload=GeometricPayload(34.0),
                            duration=MIN_DURATION, seed=2024))
    # the twin replays construction: a payload, then the first counter
    twin = np.random.Generator(np.random.PCG64(2024))
    twin.geometric(1 / 34, size=1)
    assert engine.stations_at == {twin.integers(0, engine.highs[0]): [0]}
    # 2^31 + 1 rejects about half its draws; 2^33 + 3 takes the 64-bit path
    edges = [1, 2, 3, 32, 1024, 2**31, 2**31 + 1, 2**32 - 1, 2**32, 2**33 + 3]
    shuffle = np.random.Generator(np.random.PCG64(11))
    bounds = edges * 4 + shuffle.integers(1, 2**20, size=400, endpoint=True).tolist()
    shuffle.shuffle(bounds)
    for k, high in enumerate(bounds):
        assert _engine_counters(engine, [high], [0]) == [twin.integers(0, high)], high
        if k % 3 == 0:
            assert engine.rng.geometric(1 / 34) == twin.geometric(1 / 34)
        if k % 5 == 0:
            assert engine.rng.exponential(500.0) == twin.exponential(500.0)
    # the same raw words are spent; a half numpy holds, the engine holds next
    state = twin.bit_generator.state
    assert engine.rng.bit_generator.state["state"] == state["state"]
    if state["has_uint32"]:
        assert engine.next_half() == state["uinteger"]


def test_block_drawn_counters_follow_numpy_integers(monkeypatch):
    # saturated, fixed payload, cw_max below 2^32: counters are the only
    # draws, so the engine takes raw words a block at a time, from the
    # Python PCG64 throughout or from numpy's throughout
    edges = [1, 2, 3, 32, 1024, 2**31, 2**31 + 1, 2**32 - 1, 2**32]
    shuffle = np.random.Generator(np.random.PCG64(12))
    bounds = edges * 800 + shuffle.integers(1, 2**20, size=2001, endpoint=True).tolist()
    shuffle.shuffle(bounds)
    for python_words in (10**9, 0):
        _check_block_draws(monkeypatch, bounds, python_words, 2**32 - 1)
    # stage-0 windows of at most four slots per station and cw_max under
    # 2^12 keep the stations in the ring
    small = [1, 2, 3, 32, 1024] * 1600 + shuffle.integers(1, 1024, size=2001,
                                                          endpoint=True).tolist()
    shuffle.shuffle(small)
    _check_block_draws(monkeypatch, small, 10**9, 1023)


def _check_block_draws(monkeypatch, bounds, python_words, cw_max):
    m = len(bounds)
    monkeypatch.setattr(sim, "_python_words_left", python_words)
    blocks, used, pcg64_blocks = [], [], sim._pcg64_blocks

    def counted(seed):
        for block in pcg64_blocks(seed):
            blocks.append(len(block))
            yield (used.append(0) or half for half in block)

    monkeypatch.setattr(sim, "_pcg64_blocks", counted)
    engine = _Run(SimConfig(station_count=m, mode=BASIC, policy=FixedWindow(2, cw_max),
                            duration=MIN_DURATION, seed=2024))
    monkeypatch.setattr(sim, "_pcg64_blocks", pcg64_blocks)
    assert engine.rng is None
    assert (engine.ring is not None) == (3 <= 4 * m and cw_max < max(4 * m, 2**12))
    # the twin draws from the first half on: the initial counters, then the bounds
    twin = np.random.Generator(np.random.PCG64(2024))
    initial = {i: c for c, tied in _armed(engine).items() for i in tied}
    assert [initial[i] for i in range(m)] == twin.integers(0, 3, size=m).tolist()
    engine.stage[:] = range(m)          # station i draws from bounds[i]
    assert _engine_counters(engine, bounds, list(range(m))) == [
        twin.integers(0, high) for high in bounds]
    # more than two blocks' worth of halves, and whole blocks drawn as needed
    assert len(used) > 2 * 2 * sim.RAW_BLOCK
    assert blocks == [2 * sim.RAW_BLOCK] * -(-len(used) // (2 * sim.RAW_BLOCK))
    assert sim._python_words_left == max(python_words - len(blocks) * sim.RAW_BLOCK, 0)
    state = twin.bit_generator.state
    assert engine.next_half() == (state["uinteger"] if state["has_uint32"]
                                  else twin.bit_generator.random_raw() & 0xFFFFFFFF)


# The Python stream: numpy's seeding (SeedSequence, whose entropy pool
# holds four 32-bit words) and PCG64's step and output, copied to Python.
STREAM_SEEDS = [0, 1, 5, 2**32 - 1, 2**32, 2**64 + 3, 2**100 + 17]


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_python_stream_matches_numpy_pcg64(seed, monkeypatch):
    assert sim._seed_state(seed) == np.random.SeedSequence(seed).generate_state(
        4, np.uint64).tolist()
    monkeypatch.setattr(sim, "_python_words_left", 3 * sim.RAW_BLOCK)
    blocks = sim._pcg64_blocks(seed)
    python = [half for _ in range(3) for half in next(blocks)]
    assert sim._python_words_left == 0
    handed_over = next(blocks)          # numpy's PCG64 from here on
    raw = np.random.PCG64(seed).random_raw(4 * sim.RAW_BLOCK).tolist()
    split = [w >> shift & 0xFFFFFFFF for w in raw for shift in (0, 32)]
    assert python == split[:len(python)]
    assert list(handed_over) == split[len(python):]


# runs whose counters are the only draws, long enough for several blocks;
# under FixedWindow(0, ...) a winner redraws counter 0 without a draw and
# keeps the channel, so that run draws only at the start
HANDOVER_RUNS = {
    "legacy": SimConfig(station_count=4, mode=BASIC, duration=900_000, seed=2),
    "fixed-drops": SimConfig(station_count=12, mode=BASIC, policy=FixedWindow(3, 15, 2),
                             duration=400_000, seed=5),
    "abtmac-rts": SimConfig(station_count=6, mode=RTS, policy=Abtmac(AbtmacParams(0.7)),
                            duration=900_000, seed=3),
    "fixed-zero": SimConfig(station_count=5, mode=BASIC, policy=FixedWindow(0, 7, 2),
                            duration=MIN_DURATION, seed=8),
}


@pytest.mark.parametrize("name", HANDOVER_RUNS)
def test_python_words_hand_over_to_numpy_exactly(name, monkeypatch):
    def run_with(python_words):
        monkeypatch.setattr(sim, "_python_words_left", python_words)
        return run(HANDOVER_RUNS[name])

    all_python = run_with(10**9)
    blocks = (10**9 - sim._python_words_left) // sim.RAW_BLOCK
    assert blocks >= (1 if name == "fixed-zero" else 5)
    for k in range(blocks):             # numpy after k Python blocks, from the start at 0
        assert run_with(k * sim.RAW_BLOCK) == all_python, k
        assert sim._python_words_left == 0


@pytest.mark.parametrize("m", [1, 2, 1023, 1024, 1025])
def test_simultaneous_deadlines_pop_in_station_order(m):
    # stations armed in shuffled order share one deadline, 2^30, which
    # outgrows one 30-bit digit of a Python int; they fire in station
    # order, from the heap and from the ring
    for ring in (False, True):
        engine = _Run(SimConfig(station_count=m, mode=RTS, duration=MIN_DURATION, seed=5))
        engine.highs = [1] * (engine.retry_limit + 1)   # a window of one value: counter 0
        _arm(engine, ring, {})
        engine.idle_slots = 2**30
        order = list(range(m))
        random.Random(m).shuffle(order)
        engine.pending = order                          # armed first thing in run()
        engine.clock = MIN_DURATION - 1.0               # one event reaches the horizon
        events = []
        engine.trace = events.append
        engine.run()
        want = ({"kind": "success", "station": 0} if m == 1
                else {"kind": "collision", "stations": list(range(m))})
        assert [{k: e[k] for k in want} for e in events] == [want]
        assert engine.idle_slots == 2**30


# The ring and the heap hold the same stations in the same order, so a
# run gives the same metrics and events on either, though on the ring a
# station handed on draws its counter in the event and on the heap at the
# top of the next pass. Each config runs on the structure its rule
# selects (saturated, cw_min + 1 <= 4M, cw_max < max(4M, 2^12)) and on
# the other one, set by hand.
RING_OR_HEAP = {
    "tuned-rts-300": SimConfig(station_count=300, mode=RTS, policy=Abtmac(AbtmacParams(0.7)),
                               duration=200_000, seed=21),
    "tuned-rts-1000": SimConfig(station_count=1000, mode=RTS, policy=Abtmac(AbtmacParams(0.7)),
                                duration=200_000, seed=22),
    # re-estimates move cw_min, and with it every stage's window
    "measured": SimConfig(station_count=300, mode=RTS, duration=200_000, seed=23,
                          policy=Abtmac(AbtmacParams(0.7), m_source="measured",
                                        update_interval=40)),
    # a winner redraws counter 0 and fires again at the deadline just taken
    "fixed-zero": SimConfig(station_count=5, mode=BASIC, policy=FixedWindow(0, 7, 2),
                            duration=MIN_DURATION, seed=8),
    "fixed-drops": SimConfig(station_count=12, mode=BASIC, policy=FixedWindow(3, 15, 2),
                             duration=200_000, seed=5),
    "legacy-5": SimConfig(station_count=5, mode=BASIC, duration=200_000, seed=2),
    # replicated-cli's population, a stage-0 window of 25 for 20 stations
    "tuned-rts-20": SimConfig(station_count=20, mode=RTS, policy=Abtmac(AbtmacParams(0.7)),
                              duration=200_000, seed=24),
    # every counter is 0, drawn with no half: every event is a collision
    # of all three, and climbers and dropped stations alike fire at once
    "zero-window": SimConfig(station_count=3, mode=BASIC, policy=FixedWindow(0, 0, 2),
                             duration=MIN_DURATION, seed=9),
    # new frames draw a geometric payload and then their counter at the
    # top of the next pass; climbers draw in the event
    "geometric": SimConfig(station_count=12, mode=BASIC, policy=FixedWindow(3, 15, 2),
                           payload=GeometricPayload(34.0), duration=200_000, seed=6),
    # the widest cw_max the 2^12 cap lets a 10-station ring take (4M = 40)
    "cw-max-4095": SimConfig(station_count=10, mode=BASIC, policy=FixedWindow(31, 4095, 7),
                             duration=200_000, seed=7),
}


@pytest.mark.parametrize("name", RING_OR_HEAP)
def test_ring_and_heap_give_the_same_run(name):
    config = RING_OR_HEAP[name]
    runs = {}
    for ring in (False, True):
        engine = _Run(config)
        assert (engine.ring is not None) == (name != "legacy-5")
        events = []
        engine.trace = events.append
        _arm(engine, ring, _armed(engine))
        runs[ring] = engine.run(), events
    assert runs[True] == runs[False]
    metrics = runs[True][0]
    if name == "measured":
        assert metrics.m_estimate != 300
    if name.startswith("fixed"):
        assert (metrics.drops > 0) == (name == "fixed-drops")
    if name == "zero-window":
        assert metrics.successes == 0 and metrics.drops > 0
    if name == "geometric":
        assert metrics.drops > 0
    if name == "cw-max-4095":
        assert len(_Run(config).ring) == 2**12


class _WideRing(dict):
    """A ring 2^40 idle slots long whose lists are made as a deadline
    first reaches them: room for counters drawn below 2^31 + 3."""

    def __missing__(self, key):
        return self.setdefault(key, [])

    def __len__(self):
        return 1 << 40


def test_handoff_draws_follow_numpy_integers_through_the_rejection_zone():
    # on the ring with a fixed payload the stations an event hands on
    # draw in that event: here two stations collide, station 0 climbs to
    # stage 1 and draws in the climb loop, then station 1, at its retry
    # limit, drops and draws for its next frame at stage 0. Bounds just
    # above 2^31 reject about half their draws; at seed 2 each draw
    # rejects its first half and keeps its second
    highs = [2**31 + 1, 2**31 + 3]
    engine = _Run(SimConfig(station_count=2, mode=BASIC, policy=FixedWindow(0, 7, 1),
                            duration=MIN_DURATION, seed=2))
    assert engine.ring[0] == [0, 1]     # a window of one value: counter 0, no draw
    engine.ring = _WideRing({0: [0, 1]})
    engine.highs, engine.stage[:] = highs, [0, 1]
    halves, next_half = [], engine.next_half
    engine.next_half = lambda: halves.append(next_half()) or halves[-1]
    engine.clock = MIN_DURATION - 1.0   # one event reaches the horizon
    events = []
    # the climber has drawn by the time the dropped station is traced
    engine.trace = lambda e: events.append((e["kind"], len(halves)))
    engine.run()
    assert events == [("collision", 0), ("drop", 2)]
    counters = {i: deadline - engine.idle_slots
                for deadline, tied in engine.ring.items() for i in tied}
    twin = np.random.Generator(np.random.PCG64(2))
    assert [counters[0], counters[1]] == [twin.integers(0, highs[1]),
                                          twin.integers(0, highs[0])]
    assert len(halves) == 4
    for half, high in ((halves[0], highs[1]), (halves[2], highs[0])):
        assert half * high & 0xFFFFFFFF < (2**32 - high) % high     # rejected


def test_benchmark_configs_pick_their_structure(tmp_path):
    # sat-m1000's 1000 stations (a stage-0 window of 359) and
    # replicated-cli's 20 (a window of 25) take the ring; the Poisson
    # poisson-m50 keeps the heap
    path = Path(__file__).resolve().parents[1] / "perfbench" / "common.py"
    spec = importlib.util.spec_from_file_location("perfbench_common", path)
    common = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(common)
    library = {name: common.build_config(maclab, name, 11, common.SLOTS)
               for name in common.LIBRARY_WORKLOADS}
    scenario = load_scenario(common.write_scenario(tmp_path, 11, common.SLOTS))
    assert _Run(library["sat-m1000"]).ring is not None
    assert _Run(library["poisson-m50"]).ring is None
    assert _Run(scenario).ring is not None


def test_metrics_fields_are_builtins(small_runs):
    for f in dataclasses.fields(SimMetrics):
        v = getattr(small_runs["tuned_rts"], f.name)
        assert type(v) in (float, int, tuple, str, type(None)), f.name


def test_same_seed_reproduces_exactly():
    assert run(SMALL_TUNED_RTS) == run(SMALL_TUNED_RTS)


def test_trace_does_not_perturb_the_run():
    assert run(SMALL_LEGACY_BASIC, trace=lambda e: None) == run(SMALL_LEGACY_BASIC)


def test_different_seed_moves_the_run():
    assert run(SMALL_TUNED_RTS) != run(replace(SMALL_TUNED_RTS, seed=99))


def _frozen_oracle():
    """The verbatim simulator copy in perfbench/oracle, imported as `oracle`."""
    if "oracle" not in sys.modules:
        root = Path(__file__).resolve().parents[1] / "perfbench" / "oracle"
        spec = importlib.util.spec_from_file_location(
            "oracle", root / "__init__.py", submodule_search_locations=[str(root)])
        sys.modules["oracle"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules["oracle"])
    return sys.modules["oracle"]


def _random_config(pkg, draw):
    # the names perfbench/common.build_config builds a workload from
    payload = pkg.FixedPayload if draw["fixed"] else pkg.GeometricPayload
    traffic = pkg.PoissonTraffic(draw["arrival"]) if draw["arrival"] else pkg.SATURATED
    return pkg.SimConfig(
        station_count=draw["m"], mode=pkg.AccessMode(draw["mode"]),
        policy=pkg.Abtmac(pkg.AbtmacParams(draw["rate"])),
        payload=payload(draw["payload"]), traffic=traffic,
        duration=draw["duration"], seed=draw["seed"])


def test_engine_matches_frozen_oracle():
    # every bit-identical engine change must reproduce the frozen copy exactly
    oracle = _frozen_oracle()
    rng = random.Random(20140611)
    draws = []
    for _ in range(30):
        poisson = rng.random() < 0.5
        draws.append({"m": rng.randint(1, 40), "mode": rng.choice(["basic", "rts"]),
                      "rate": rng.uniform(0.1, 1.5), "fixed": rng.random() < 0.5,
                      "payload": rng.uniform(1.0, 120.0),
                      "arrival": 10 ** rng.uniform(-4, math.log10(0.05)) if poisson else None,
                      "duration": rng.randint(10_000, 20_000), "seed": rng.randrange(2**32)})
    # the benchmark's scale: wide deadline keys and many-station collisions
    draws += [{"m": 1000, "mode": "rts", "rate": 0.7, "fixed": fixed, "payload": 34.0,
               "arrival": None, "duration": 20_000, "seed": seed}
              for fixed, seed in ((True, 11), (False, 12))]
    pairs = [(_random_config(maclab, draw), _random_config(oracle, draw)) for draw in draws]
    # the policies and payloads the draws leave out, from each side's sim module
    pairs += [(_policy_config(sim, k, seed), _policy_config(oracle.sim, k, seed))
              for k in range(4) for seed in (3, 4)]
    for config, frozen in pairs:
        got = dataclasses.asdict(run(config))
        want = dataclasses.asdict(oracle.run(frozen))
        assert repr(got) == repr(want), config    # repr: NaN fields compare too


def _policy_config(mod, k, seed):
    """Measured-mode Abtmac, LegacyDcf, FixedWindow with geometric payloads,
    and Poisson LegacyDcf, in that order of `k`."""
    policy = (mod.Abtmac(mod.AbtmacParams(0.7), m_source="measured", update_interval=40),
              mod.LegacyDcf(), mod.FixedWindow(15, 255, 3), mod.LegacyDcf())[k]
    payload = mod.GeometricPayload(20.0) if k >= 2 else mod.FixedPayload(34.0)
    traffic = mod.PoissonTraffic(0.01) if k == 3 else mod.SATURATED
    return mod.SimConfig(station_count=12, mode=mod.AccessMode.RTS_CTS if k else
                         mod.AccessMode.BASIC, policy=policy, payload=payload,
                         traffic=traffic, duration=15_000, seed=seed)


# ---------------------------------------------------------------- invariants

def test_time_accounting_closes(small_runs):
    for m in small_runs.values():
        total = m.idle_slots + m.busy_slots + m.defer_slots
        assert total == pytest.approx(m.elapsed_slots, rel=1e-12)


def test_per_station_successes_sum(small_runs):
    for m in small_runs.values():
        assert sum(m.per_station_success) == m.successes


def test_metric_bounds(small_runs):
    for m in small_runs.values():
        assert 0.0 <= m.slot_utilization <= 1.0
        assert m.normalized_throughput <= m.slot_utilization
        assert 0.0 <= m.collision_probability <= 1.0
        assert 0.0 <= m.jain_index <= 1.0
        assert m.rng_algorithm == "pcg64"


def test_collision_probability_identity(small_runs):
    for m in small_runs.values():
        events = m.successes + m.collisions
        assert m.collision_probability == pytest.approx(m.collisions / events)


# ---------------------------------------------------------------- edge cells

def test_guaranteed_collisions_starve_everyone():
    # zero windows with no ladder: both stations fire every slot forever
    cfg = SimConfig(station_count=2, mode=BASIC, policy=FixedWindow(0, 0),
                    duration=20_000, seed=1)
    m = run(cfg)
    assert m.collision_probability == 1.0
    assert m.successes == 0
    assert m.normalized_throughput == 0.0
    assert m.drops == 92
    assert math.isnan(m.mean_access_delay)
    assert math.isinf(m.mean_collisions_per_service)
    assert m.jain_index == 0.0


def test_single_station_never_collides():
    cfg = SimConfig(station_count=1, mode=BASIC, policy=LegacyDcf(),
                    duration=200_000, seed=7)
    m = run(cfg)
    assert m.collisions == 0
    assert m.drops == 0
    assert m.normalized_throughput == pytest.approx(0.5782319012372342, rel=1e-9)
    # one station alternates a mean backoff with one frame exchange
    closed = 34.0 / (34.0 + 15.5 + 8.6)
    assert m.normalized_throughput == pytest.approx(closed, rel=0.02)


def test_quiet_poisson_traffic():
    # arrivals so sparse every frame finds an empty channel
    cfg = SimConfig(station_count=10, mode=BASIC, policy=LegacyDcf(),
                    traffic=PoissonTraffic(1e-5), duration=200_000, seed=71)
    m = run(cfg)
    assert m.collisions == 0
    assert m.successes == 19
    assert m.slot_utilization == pytest.approx(0.0033228166744982213, rel=1e-9)
    # delay collapses to the solo backoff draw, mean near half the window
    assert m.mean_access_delay == pytest.approx(16.105263157894736, rel=1e-9)


# ---------------------------------------------------------------- event trace

def test_trace_stream_shape():
    events = []
    run(SMALL_LEGACY_BASIC, trace=events.append)
    assert events
    kinds = {e["kind"] for e in events}
    assert kinds <= {"success", "collision", "drop"}
    assert "success" in kinds
    times = [e["t"] for e in events]
    assert times == sorted(times)
    for e in events:
        if e["kind"] == "success":
            assert isinstance(e["station"], int)
            assert e["span"] > 0
        elif e["kind"] == "collision":
            assert len(e["stations"]) >= 2
            assert e["span"] > 0


def test_trace_reports_drops():
    events = []
    cfg = SimConfig(station_count=2, mode=BASIC, policy=FixedWindow(0, 0),
                    duration=20_000, seed=1)
    m = run(cfg, trace=events.append)
    drops = [e for e in events if e["kind"] == "drop"]
    # the trace covers warmup too, so it sees at least the measured drops
    assert len(drops) >= m.drops > 0
    assert all(isinstance(e["station"], int) for e in drops)


# ---------------------------------------------------------------- replication

def test_replication_needs_two():
    with pytest.raises(ValidationError):
        run_replicated(SMALL_TUNED_RTS, 1)


def test_replication_intervals_shrink():
    cfg = SimConfig(station_count=20, mode=RTS, policy=Abtmac(AbtmacParams(0.7)),
                    duration=100_000, seed=13)
    r3 = run_replicated(cfg, 3)
    r10 = run_replicated(cfg, 10)
    assert r3.half_width["normalized_throughput"] == pytest.approx(
        0.004986264191223623, rel=1e-9)
    assert r10.half_width["normalized_throughput"] == pytest.approx(
        0.0011670430899812672, rel=1e-9)
    assert r10.half_width["normalized_throughput"] < r3.half_width["normalized_throughput"]

    assert len(r10.runs) == 10
    assert r10.runs[0] == r3.runs[0]        # replicate i runs at seed + i
    assert r10.runs[0] != r10.runs[1]
    expected_keys = {"normalized_throughput", "throughput_bps",
                     "mean_access_delay", "mean_collisions_per_service",
                     "collision_probability", "slot_utilization",
                     "attempt_rate", "jain_index", "drops"}
    assert set(r10.mean) == set(r10.half_width) == expected_keys
    tp = [r.normalized_throughput for r in r10.runs]
    assert r10.mean["normalized_throughput"] == pytest.approx(sum(tp) / len(tp))


def test_replication_statistics_follow_numpy():
    # numpy's pairwise float64 sum: a plain loop below 8 values, eight
    # running sums up to 128, a recursive split above
    draw = random.Random(24)
    for n in range(2, 301):
        for _ in range(3):
            values = [10 ** draw.uniform(-3, 3) for _ in range(n)]
            array = np.array(values)
            assert sim._mean_sd(values) == (array.mean(), array.std(ddof=1)), n


def test_t95_matches_student_t():
    stats = pytest.importorskip("scipy.stats")
    for df in range(1, 201):
        # three-decimal table up to 30 degrees of freedom, expansion beyond
        tol = 5e-4 if df <= 30 else 1e-7
        assert _t95(df) == pytest.approx(stats.t.ppf(0.975, df), abs=tol), df
    # the pinned replication counts (3, 5 and 10 runs) read the table as printed
    assert (_t95(2), _t95(4), _t95(9)) == (4.303, 2.776, 2.262)


# ---------------------------------------------------------------- long-run laws

def test_attempt_rate_tracks_target_20(airtime_tuned_rts):
    att = airtime_tuned_rts[20].attempt_rate
    assert att == pytest.approx(0.6118645371343605, rel=1e-9)
    assert abs(att - 0.7) / 0.7 <= 0.15


def test_attempt_rate_tracks_target_60(airtime_tuned_rts):
    att = airtime_tuned_rts[60].attempt_rate
    assert att == pytest.approx(0.7432687503469716, rel=1e-9)
    assert abs(att - 0.7) / 0.7 <= 0.15


@pytest.mark.xfail(strict=True, reason="window rounding and residual ladder "
                   "climbing overshoot the target rate by ~19% at 100 stations")
def test_attempt_rate_tracks_target_100(airtime_tuned_rts):
    att = airtime_tuned_rts[100].attempt_rate
    assert abs(att - 0.7) / 0.7 <= 0.15


def test_attempt_rate_tracks_target_basic_20(tuned_basic20_replicated):
    att = tuned_basic20_replicated.mean["attempt_rate"]
    assert abs(att - 0.55) / 0.55 <= 0.15


def test_saturated_access_is_fair(airtime_tuned_rts, legacy_basic_sweep):
    assert airtime_tuned_rts[20].jain_index >= 0.95
    m = legacy_basic_sweep[50]
    assert m.jain_index == pytest.approx(0.9745191562468744, rel=1e-9)
    assert m.jain_index >= 0.95


def test_measured_collisions_reach_model_floor(tuned_rts_sweep):
    # the closed-form collision count is a floor (minus seed noise) once
    # the population is large enough to wash out ladder truncation
    analytic = 0.4482181535292522
    for m in (50, 100):
        assert tuned_rts_sweep[m].mean_collisions_per_service >= 0.95 * analytic


def test_estimator_roundtrip_on_measured_collisions(tuned_rts_sweep):
    # calibrate the estimator constant on the 10-station cell, then feed
    # it the 50-station measurement; the estimate lands near truth
    k_prime = tuned_rts_sweep[10].mean_collisions_per_service
    est = estimate_active_nodes(
        tuned_rts_sweep[50].mean_collisions_per_service, k_prime)
    assert est == 36
    assert 35 <= est <= 65


@pytest.fixture(scope="module")
def measured_mode_run():
    policy = Abtmac(AbtmacParams(0.7, k_prime=0.4), m_source="measured",
                    update_interval=500)
    return run(SimConfig(station_count=50, mode=RTS, policy=policy,
                         duration=1_000_000, seed=81))


def test_measured_mode_converges(measured_mode_run):
    m = measured_mode_run
    assert m.normalized_throughput == pytest.approx(0.46021645455474447, rel=1e-9)
    assert m.m_estimate == 21
    assert m.final_cw_min == 24
    # the final window is exactly what the estimate dictates
    assert cw_min(AbtmacParams(0.7), m.m_estimate) == m.final_cw_min


# ---------------------------------------------------------------- reports

def test_sensitivity_requires_oracle_tuning():
    with pytest.raises(ValidationError):
        sensitivity_suite(SMALL_LEGACY_BASIC, m_estimates=(1.0,))
    measured = replace(SMALL_TUNED_RTS,
                       policy=Abtmac(AbtmacParams(0.7), m_source="measured"))
    with pytest.raises(ValidationError):
        sensitivity_suite(measured, m_estimates=(1.0,))


def test_sensitivity_row_shape():
    rows = sensitivity_suite(SMALL_TUNED_RTS, m_estimates=(0.5, 1.0),
                             payloads=(50.0,))
    assert [r["kind"] for r in rows] == ["m_estimate", "m_estimate", "payload"]
    assert [r["value"] for r in rows] == [0.5, 1.0, 50.0]
    for r in rows:
        assert set(r) == {"kind", "value", "normalized_throughput",
                          "throughput_bps", "mean_access_delay", "final_cw_min"}
