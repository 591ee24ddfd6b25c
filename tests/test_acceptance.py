"""End-to-end acceptance checks, one test per published criterion.

Each test prints a single PASS/FAIL line with the measured numbers
before asserting, so the result summary stays readable even when a
criterion legitimately fails. The failing ones are kept failing on
purpose: each one's detail line prints the numbers that locate its
cause, and the README's "Testing" section carries the analysis behind
each red cell.
"""

import math

import pytest

from maclab import design, legacy, model
from maclab.abtmac import AbtmacParams, cw_min
from maclab.design import (TABLE2_REFERENCE, TABLE3_REFERENCE, dominant_pole_distance,
                           minimize_overhead, optimal_payload)
from maclab.legacy import DcfParams
from maclab.model import ModelPoint
from maclab.sim import LegacyDcf, SimConfig, run
from maclab.timing import AccessMode, DEFAULT_DURATIONS as D

RTS = AccessMode.RTS_CTS
BASIC = AccessMode.BASIC


def report(num, name, ok, detail):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} | {detail}")


def spread(values):
    return (max(values) - min(values)) / min(values)


def steps(values):
    """Direction of each consecutive step: +1 up, -1 down, 0 flat."""
    return [(b > a) - (b < a) for a, b in zip(values, values[1:])]


def test_criterion_01_handshake_delay_table():
    failures = []
    parts = []
    for rate, ref in TABLE2_REFERENCE.items():
        pt = ModelPoint(rate, 34.0, RTS)
        delay = model.mean_access_delay(pt, D)
        bounds = design.tolerable_ratio_bounds(pt, 0.10, D)
        tol = 0.03 if rate in (0.1, 1.0) else 0.01
        dev = abs(delay - ref["access_delay"]) / ref["access_delay"]
        if dev > tol:
            failures.append(f"delay@{rate}")
        if abs(bounds.max_ratio - ref["max_ratio"]) > 0.5:
            failures.append(f"max_ratio@{rate}")
        if abs(bounds.min_ratio - ref["min_ratio"]) > 0.02:
            failures.append(f"min_ratio@{rate}")
        parts.append(f"{rate}: d={delay:.2f}/{ref['access_delay']} "
                     f"k=({bounds.max_ratio:.2f}/{ref['max_ratio']}, "
                     f"{bounds.min_ratio:.3f}/{ref['min_ratio']})")
    report(1, "handshake delay table", not failures,
           "; ".join(parts) + (f" | out of band: {failures}" if failures else ""))
    assert not failures


def test_criterion_02_basic_operating_table():
    failures = []
    parts = []
    for rate, ref in TABLE3_REFERENCE.items():
        balance = round(optimal_payload(rate, D))
        pt = ModelPoint(rate, float(ref["payload"]), BASIC)
        tp = model.throughput(pt, D) * 100.0
        delay = model.mean_access_delay(pt, D)
        if abs(balance - ref["payload"]) > 1:
            failures.append(f"payload@{rate}")
        if abs(tp - ref["throughput_pct"]) > 0.5:
            failures.append(f"throughput@{rate}")
        if abs(delay - ref["access_delay"]) / ref["access_delay"] > 0.03:
            failures.append(f"delay@{rate}")
        parts.append(f"{rate}: x={balance}/{ref['payload']} "
                     f"T={tp:.2f}/{ref['throughput_pct']} "
                     f"d={delay:.2f}/{ref['access_delay']}")
    report(2, "basic operating table", not failures,
           "; ".join(parts) + (f" | out of band: {failures}" if failures else ""))
    assert not failures


def test_criterion_03_joint_overhead_minimum():
    rate, _ = minimize_overhead(BASIC, None, D)
    payload = optimal_payload(rate, D)
    ok = abs(rate - 0.31) <= 0.01 and abs(payload - 58) <= 1
    report(3, "joint overhead minimum", ok,
           f"rate {rate:.4f} (want 0.31 +/- 0.01), payload {payload:.2f} "
           f"(want 58 +/- 1)")
    assert ok


def test_criterion_04_stability_peak():
    grid = [0.31 + 0.005 * i for i in range(79)]
    dists = [dominant_pole_distance(ModelPoint(r, optimal_payload(r, D), BASIC), D)
             for r in grid]
    peak = grid[dists.index(max(dists))]
    p03 = dominant_pole_distance(
        ModelPoint(0.3, optimal_payload(0.3, D), BASIC), D)
    p07 = dominant_pole_distance(
        ModelPoint(0.7, optimal_payload(0.7, D), BASIC), D)
    gap = abs(p03 - p07) / p03
    ok = abs(peak - 0.45) <= 0.03 and gap <= 0.05
    report(4, "stability peak", ok,
           f"argmax {peak:.3f} (want 0.45 +/- 0.03), "
           f"pole(0.3)={p03:.6f} pole(0.7)={p07:.6f} gap {gap * 100:.2f}% (want <=5%)")
    assert ok


def test_criterion_05_window_triple():
    got = (cw_min(AbtmacParams(0.5), 10),
           cw_min(AbtmacParams(0.55), 100),
           cw_min(AbtmacParams(0.7), 100))
    ok = got == (20, 92, 72)
    report(5, "window triple", ok, f"got {got}, want (20, 92, 72)")
    assert ok


def test_criterion_06_simulator_matches_model(tuned_rts20_replicated,
                                              tuned_basic20_replicated):
    cases = (("rts", tuned_rts20_replicated, ModelPoint(0.7, 34.0, RTS)),
             ("basic", tuned_basic20_replicated, ModelPoint(0.55, 34.0, BASIC)))
    failures = []
    parts = []
    for label, summary, pt in cases:
        tp_ref = model.throughput(pt, D)
        d_ref = model.mean_access_delay(pt, D)
        tp_dev = (summary.mean["normalized_throughput"] - tp_ref) / tp_ref
        d_dev = (summary.mean["mean_access_delay"] - d_ref) / d_ref
        if abs(tp_dev) > 0.10:
            failures.append(f"throughput@{label}")
        if abs(d_dev) > 0.10:
            failures.append(f"delay@{label}")
        # the same model at the rate the population really contended at
        # separates window steering from the model's collision count
        achieved = summary.mean["attempt_rate"]
        d_achieved = model.mean_access_delay(
            ModelPoint(achieved, pt.payload, pt.mode), D)
        d_sim = summary.mean["mean_access_delay"]
        parts.append(f"{label}: T {tp_dev * 100:+.2f}%, d {d_dev * 100:+.2f}%, "
                     f"achieved rate {achieved:.3f} (target {pt.rate}): "
                     f"model d {d_achieved:.2f} vs {d_sim:.2f} "
                     f"({(d_sim - d_achieved) / d_achieved * 100:+.2f}%), "
                     f"model n {model.mean_collisions(achieved):.3f} vs "
                     f"{summary.mean['mean_collisions_per_service']:.3f}")
    report(6, "simulator matches model", not failures,
           "; ".join(parts) + " (band +/-10%)"
           + (f" | out of band: {failures}" if failures else ""))
    assert not failures


def test_criterion_07_slot_utilization_bands(airtime_tuned_rts,
                                             airtime_legacy_basic_100):
    failures = []
    parts = []
    for m in (20, 60, 100):
        su = airtime_tuned_rts[m].slot_utilization
        if abs(su - 0.76) > 0.08:
            failures.append(f"tuned@{m}")
        parts.append(f"tuned rts M={m}: {su:.4f}")
    su = airtime_legacy_basic_100.slot_utilization
    if abs(su - 0.73) > 0.08:
        failures.append("legacy@100")
    parts.append(f"legacy basic M=100: {su:.4f}")
    report(7, "slot utilization bands", not failures,
           "; ".join(parts) + " (bands 0.76/0.73 +/- 0.08)"
           + (f" | out of band: {failures}" if failures else ""))
    assert not failures


def test_criterion_08_population_flatness(tuned_rts_sweep, legacy_rts_sweep,
                                          legacy_basic_sweep):
    tp = [tuned_rts_sweep[m].normalized_throughput for m in (10, 50, 100)]
    coll = [tuned_rts_sweep[m].mean_collisions_per_service for m in (10, 50, 100)]
    tp_spread = spread(tp)
    coll_spread = spread(coll)
    legacy_rts_tp = [legacy_rts_sweep[m].normalized_throughput for m in (10, 50, 100)]
    legacy_basic_tp = [legacy_basic_sweep[m].normalized_throughput
                       for m in (10, 50, 100)]
    failures = []
    if tp_spread >= 0.15:
        failures.append("tuned throughput spread")
    if coll_spread >= 0.15:
        failures.append("tuned collision spread")
    if not all(b < a for a, b in zip(legacy_rts_tp, legacy_rts_tp[1:])):
        failures.append("legacy rts not decreasing")
    if not all(b < a for a, b in zip(legacy_basic_tp, legacy_basic_tp[1:])):
        failures.append("legacy basic not decreasing")
    # per population: the rate it really contended at, the model's delay
    # and collision count at that rate, and the backoff inflation the
    # window rule divides out (2^log10 M) against the one realised,
    # M / rate over the stage-0 mean counter cw/2
    causes = []
    for m in (10, 50, 100):
        metrics = tuned_rts_sweep[m]
        achieved = metrics.attempt_rate
        d_achieved = model.mean_access_delay(ModelPoint(achieved, 34.0, RTS), D)
        realised = m / achieved / (metrics.final_cw_min / 2.0)
        causes.append(f"M={m} rate {achieved:.3f}, model d {d_achieved:.2f} vs "
                      f"{metrics.mean_access_delay:.2f}, model n "
                      f"{model.mean_collisions(achieved):.3f} vs "
                      f"{metrics.mean_collisions_per_service:.3f}, inflation "
                      f"{realised:.2f} vs rule {2.0 ** math.log10(m):.2f}")
    report(8, "population flatness", not failures,
           f"tuned rts: T spread {tp_spread * 100:.2f}%, collision spread "
           f"{coll_spread * 100:.2f}% (band <15%); legacy T rts "
           f"{[round(v, 4) for v in legacy_rts_tp]}, basic "
           f"{[round(v, 4) for v in legacy_basic_tp]}; " + "; ".join(causes)
           + (f" | out of band: {failures}" if failures else ""))
    assert not failures


def test_criterion_09_sensitivity_ordinals(sensitivity_basic_rows):
    by_ratio = {r["value"]: r["normalized_throughput"]
                for r in sensitivity_basic_rows if r["kind"] == "m_estimate"}
    base = by_ratio[1.0]
    under_loss = base - by_ratio[0.5]
    over_gain = by_ratio[1.5] - base
    payload_tp = [(r["value"], r["normalized_throughput"])
                  for r in sensitivity_basic_rows if r["kind"] == "payload"]
    payload_tp.sort()
    # each payload step must move the simulated throughput the way the
    # closed form at the tuned basic operating point moves it
    model_tp = [model.throughput(ModelPoint(0.55, x, BASIC), D) for x, _ in payload_tp]
    failures = []
    if not under_loss > abs(over_gain):
        failures.append("under/over ordering")
    if steps([tp for _, tp in payload_tp]) != steps(model_tp):
        failures.append("payload sweep against model")
    report(9, "sensitivity ordinals", not failures,
           f"T(0.5)={by_ratio[0.5]:.4f} T(1.0)={base:.4f} T(1.5)={by_ratio[1.5]:.4f} "
           f"(under loss {under_loss:+.4f} vs over {over_gain:+.4f}); "
           f"payload T {[(int(v), round(tp, 4)) for v, tp in payload_tp]} "
           f"vs model {[round(tp, 4) for tp in model_tp]}"
           + (f" | out of band: {failures}" if failures else ""))
    assert not failures


def test_criterion_10_delay_variation_magnitude():
    pt = ModelPoint(0.55, 34.0, BASIC)
    base = model.mean_access_delay(pt, D)
    slowed = model.mean_access_delay(ModelPoint(0.55 / 3.0, 34.0, BASIC), D)
    magnitude = abs(slowed - base) / base * 100.0
    ok = abs(magnitude - 42.0) <= 5.0
    report(10, "delay variation magnitude", ok,
           f"{magnitude:.2f}% (want 42 +/- 5pp)")
    assert ok


def test_criterion_11_property_suites():
    failures = []

    # throughput closed form equals its reduced denominator everywhere
    exchange = D.t_rts + D.t_cts + D.t_ack + 3 * D.sifs + D.difs
    surcharge_rts = D.t_rts + D.eifs - D.difs
    tail = D.sifs + D.t_ack + D.difs
    surcharge_basic = D.eifs - D.difs
    for rate in (0.1, 0.31, 0.55, 0.7, 1.0, 2.0):
        n = model.mean_collisions(rate)
        rts_tp = model.throughput(ModelPoint(rate, 34.0, RTS), D)
        reduced = 34.0 / (34.0 + 1.0 / rate + surcharge_rts * n + exchange)
        if abs(rts_tp - reduced) > 1e-9:
            failures.append(f"identity rts@{rate}")
        for payload in (20.0, 34.0, 58.0):
            tp = model.throughput(ModelPoint(rate, payload, BASIC), D)
            reduced = payload / (payload + tail + 1.0 / rate
                                 + surcharge_basic * n + n * payload)
            if abs(tp - reduced) > 1e-9:
                failures.append(f"identity basic@{rate}")

    # collision-count pmf sums to one and reproduces its mean
    for rate in (0.2, 0.55, 0.7, 1.5):
        pmf = [model.collision_count_pmf(rate, i) for i in range(400)]
        if abs(sum(pmf) - 1.0) > 1e-9:
            failures.append(f"pmf sum@{rate}")
        mean = sum(i * p for i, p in enumerate(pmf))
        if abs(mean - model.mean_collisions(rate)) > 1e-6:
            failures.append(f"pmf mean@{rate}")

    # the balance payload balances: collision spend equals idle spend
    for rate in (0.31, 0.45, 0.55, 0.7):
        x = optimal_payload(rate, D)
        n = model.mean_collisions(rate)
        residual = n * x - (n * D.eifs + (n + 1.0) / rate + D.difs + D.sifs)
        if abs(residual) > 1e-9:
            failures.append(f"balance residual@{rate}")

    # simulator determinism and time conservation
    cfg = SimConfig(station_count=3, mode=BASIC, policy=LegacyDcf(),
                    duration=20_000, seed=4)
    a, b = run(cfg), run(cfg)
    if a != b:
        failures.append("determinism")
    total = a.idle_slots + a.busy_slots + a.defer_slots
    if not math.isclose(total, a.elapsed_slots, rel_tol=1e-12):
        failures.append("conservation")
    if sum(a.per_station_success) != a.successes:
        failures.append("success accounting")

    # legacy fixed point: residual and population band
    params = DcfParams()
    rates = {}
    for m in (10, 100):
        rates[m] = legacy.legacy_attempt_rate(m, params)
        residual = abs(rates[m] - m / legacy.mean_backoff(rates[m], params))
        if residual > 1e-6:
            failures.append(f"legacy residual@{m}")
    if not (rates[10] < 1.71 and rates[100] > 0.56):
        failures.append("legacy band overlap")

    report(11, "property suites", not failures,
           f"legacy band [{rates[10]:.3f}, {rates[100]:.3f}] vs [0.56, 1.71]"
           + (f" | failed: {failures}" if failures else ""))
    assert not failures
