import math

import pytest

from maclab import design, model
from maclab.design import (RobustnessBounds, dominant_pole_distance,
                           minimize_overhead, optimal_payload, recommended_rate,
                           tolerable_ratio_bounds)
from maclab.errors import DomainError, ValidationError
from maclab.model import ModelPoint
from maclab.timing import AccessMode, DEFAULT_DURATIONS as D

RTS = AccessMode.RTS_CTS
BASIC = AccessMode.BASIC


# ---------------------------------------------------------------- balance

@pytest.mark.parametrize("rate,expected", [
    (0.31, 57.551138729332166),
    (0.45, 40.28492689853195),
    (0.55, 34.47906235831886),
    (0.6, 32.47253341489913),
    (0.7, 29.508964254477814),
])
def test_optimal_payload_reference_points(rate, expected):
    assert optimal_payload(rate, D) == pytest.approx(expected, rel=1e-12)


def test_optimal_payload_balances_collision_and_idle_cost():
    # at the balance payload the expected collision spend per service
    # equals the expected idle spend, so the residual vanishes
    for rate in (0.2, 0.31, 0.45, 0.55, 0.7, 1.0):
        x = optimal_payload(rate, D)
        n = model.mean_collisions(rate)
        coll = n * x
        idle = n * D.eifs + (n + 1.0) / rate + D.difs + D.sifs
        assert coll - idle == pytest.approx(0.0, abs=1e-9)


def test_optimal_payload_decreases_with_rate():
    values = [optimal_payload(r, D) for r in (0.2, 0.3, 0.4, 0.5, 0.6, 0.7)]
    assert all(b < a for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------- stability

@pytest.mark.parametrize("rate,expected", [
    (0.3, 0.024001870781183255),
    (0.455, 0.02585153803229334),
    (0.7, 0.02386788716912271),
])
def test_pole_distance_basic_at_balance_payload(rate, expected):
    pt = ModelPoint(rate, optimal_payload(rate, D), BASIC)
    assert dominant_pole_distance(pt, D) == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("rate,expected", [
    (0.3, 0.0659706942737103),
    (0.7, 0.04244914218783381),
])
def test_pole_distance_rts(rate, expected):
    pt = ModelPoint(rate, 34.0, RTS)
    assert dominant_pole_distance(pt, D) == pytest.approx(expected, abs=1e-9)


def _delay_characteristic(pt, s, d=D):
    """Denominator of the access-delay transform at real s: its roots are
    the poles of the delay response. Positive at s = 0 and increasing in
    s, so its one real root lies on the negative axis."""
    r = pt.rate
    e = math.exp(-r)
    cost = model.collision_cost(pt.mode, pt.payload, d)
    return (1.0 - e) * math.exp(s / r) - (1.0 - e - r * e) * math.exp(-cost * s)


def test_pole_distance_matches_log_solution():
    # the logarithm is the first sign change of the characteristic below
    # zero, which is the root a downward scan from s = 0 would bracket
    for mode in (BASIC, RTS):
        for payload in (10.0, 34.0, 58.0, 400.0):
            for i in range(1, 200):
                rate = 0.01 * i
                pt = ModelPoint(rate, payload, mode)
                s = dominant_pole_distance(pt, D)
                # magnitude of either term of the characteristic at the root
                scale = (1.0 - math.exp(-rate)) * math.exp(-s / rate)
                assert abs(_delay_characteristic(pt, -s, D)) <= 1e-14 * scale
                for frac in (0.0, 0.5, 0.999, 1.0 - 1e-6):
                    assert _delay_characteristic(pt, -s * frac, D) > 0.0


@pytest.mark.parametrize("mode", [BASIC, RTS])
def test_pole_distance_rejects_unresolvable_rate(mode):
    # B = 1 - e^-r - r*e^-r cancels to <= 0 in double precision near r = 2e-9
    with pytest.raises(DomainError):
        dominant_pole_distance(ModelPoint(1e-9, 34.0, mode), D)


def test_pole_distance_peaks_mid_band():
    grid = [0.31 + 0.005 * i for i in range(79)]
    dists = [dominant_pole_distance(ModelPoint(r, optimal_payload(r, D), BASIC), D)
             for r in grid]
    best = grid[dists.index(max(dists))]
    assert best == pytest.approx(0.455, abs=0.005)


# ---------------------------------------------------------------- robustness

@pytest.mark.parametrize("rate,payload,mode,expected_max,expected_min", [
    (0.7, 34.0, RTS, 9.59081714608979, 0.9105687622333949),
    (1.0, 34.0, RTS, 21.463157083831817, 0.9276310346545695),
    (0.55, 34.0, BASIC, 10.977815122142488, 0.9088669014052186),
    (0.31, 58.0, BASIC, 4.8356338642704575, 0.8766226250343476),
])
def test_ratio_bounds_reference_points(rate, payload, mode, expected_max,
                                       expected_min):
    b = tolerable_ratio_bounds(ModelPoint(rate, payload, mode), 0.10, D)
    assert b.max_ratio == pytest.approx(expected_max, abs=1e-6)
    assert b.min_ratio == pytest.approx(expected_min, abs=1e-6)


def test_ratio_bounds_reach_the_grid_ends():
    # the whole side is admissible: the scan stops at its far end
    assert tolerable_ratio_bounds(ModelPoint(2.7, 34.0, RTS), 0.9).max_ratio == 100.0
    assert tolerable_ratio_bounds(ModelPoint(0.01, 34.0, RTS), 0.9).min_ratio == 0.01


def test_ratio_bounds_sit_on_the_tolerance_boundary():
    pt = ModelPoint(0.7, 34.0, RTS)
    b = tolerable_ratio_bounds(pt, 0.10, D)
    assert b.max_ratio > 1.0 > b.min_ratio

    cost = model.collision_cost(pt.mode, pt.payload, D)
    def delay(rate):
        return model.mean_collisions(rate) * (1.0 / rate + cost) + 1.0 / rate

    base = delay(pt.rate)
    for k in (b.max_ratio, b.min_ratio):
        dev = abs(delay(pt.rate / k) - base) / base
        assert dev <= 0.10 + 1e-9
        assert dev >= 0.095          # bisection leaves at most ~1e-4 slack


def _walk_ratio_bounds(pt, tol, d=D):
    """(max_ratio, min_ratio) by the full grid walk the search replaced:
    each side walks in from its far end to the first admissible point."""
    cost = model.collision_cost(pt.mode, pt.payload, d)

    def delay(rate):
        return model.access_delay(rate, model.mean_collisions(rate), cost)

    base = delay(pt.rate)

    def ok(k):
        return abs(delay(pt.rate / k) - base) / base <= tol

    def outermost(side):
        for i in range(design._RATIO_GRID, -1, -1):
            if ok(side[i]):
                return side[i] if i == design._RATIO_GRID else model.bisect(
                    ok, side[i], side[i + 1], design._RATIO_TOL)

    grid = design._RATIO_GRID
    up = [10 ** (2.0 * i / grid) for i in range(grid + 1)]
    down = [10 ** (-2.0 + 2.0 * i / grid) for i in range(grid, -1, -1)]
    return outermost(up), outermost(down)


@pytest.mark.parametrize("mode", [BASIC, RTS])
@pytest.mark.parametrize("payload", [10.0, 34.0, 58.0, 400.0])
def test_ratio_bounds_match_the_grid_walk(mode, payload):
    for tol in (0.01, 0.05, 0.1, 0.3):
        for rate in [0.05 + 0.15 * i for i in range(14)]:     # 0.05 .. 2.0
            pt = ModelPoint(rate, payload, mode)
            b = tolerable_ratio_bounds(pt, tol, D)
            assert (b.max_ratio, b.min_ratio) == _walk_ratio_bounds(pt, tol), (rate, tol)


@pytest.mark.parametrize("table,mode", [(design.TABLE2_REFERENCE, RTS),
                                        (design.TABLE3_REFERENCE, BASIC)],
                         ids=["table2", "table3"])
def test_ratio_bounds_of_a_table_take_few_delay_evaluations(table, mode, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return model.access_delay(*args)

    monkeypatch.setattr(design, "access_delay", counted)
    for rate, ref in table.items():
        pt = ModelPoint(rate, float(ref.get("payload", 34.0)), mode)
        b = tolerable_ratio_bounds(pt, 0.10, D)
        assert (b.max_ratio, b.min_ratio) == _walk_ratio_bounds(pt, 0.10)
    assert len(calls) <= 300


def test_ratio_bounds_tolerance_validation():
    pt = ModelPoint(0.55, 34.0, BASIC)
    with pytest.raises(ValidationError):
        tolerable_ratio_bounds(pt, 1.0, D)
    with pytest.raises(ValidationError):
        tolerable_ratio_bounds(pt, -0.1, D)
    assert tolerable_ratio_bounds(pt, 0.0, D) == RobustnessBounds(1.0, 1.0, 0.0)


# ---------------------------------------------------------------- optimum

def test_minimize_overhead_basic_joint_optimum():
    rate, ov = minimize_overhead(BASIC, None, D)
    assert rate == pytest.approx(0.30813515716505147, abs=1e-3)
    assert ov == pytest.approx(24.449578611310926, abs=1e-3)
    assert optimal_payload(rate, D) == pytest.approx(57.927, abs=0.05)


def test_minimize_overhead_rts():
    rate, ov = minimize_overhead(RTS, None, D)
    assert rate == pytest.approx(0.26562480086746676, abs=1e-3)
    assert ov == pytest.approx(30.41059663807073, abs=1e-3)


def test_minimize_overhead_is_a_minimum():
    rate, ov = minimize_overhead(BASIC, None, D)
    for other in (rate - 0.02, rate + 0.02):
        x = optimal_payload(other, D)
        assert model.overhead(ModelPoint(other, x, BASIC), D) > ov


def test_minimize_overhead_fixed_payload():
    # pinning the payload moves the optimum; the search must still
    # return the overhead at its own reported rate
    rate, ov = minimize_overhead(BASIC, 34.0, D)
    assert ov == pytest.approx(model.overhead(ModelPoint(rate, 34.0, BASIC), D),
                               rel=1e-9)


def _overhead_at(mode, payload, rate):
    if payload is None:
        payload = optimal_payload(rate, D) if mode is BASIC else 34.0
    return model.overhead(ModelPoint(rate, payload, mode), D)


def _golden_section(mode, payload):
    """(rate, overhead) by the golden-section search to 1e-5 on [0.01, 2]
    that the bisection on the slope replaced."""
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = 0.01, 2.0
    c1, c2 = b - golden * (b - a), a + golden * (b - a)
    f1, f2 = _overhead_at(mode, payload, c1), _overhead_at(mode, payload, c2)
    while b - a > 1e-5:
        if f1 < f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - golden * (b - a)
            f1 = _overhead_at(mode, payload, c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + golden * (b - a)
            f2 = _overhead_at(mode, payload, c2)
    rate = 0.5 * (a + b)
    return rate, _overhead_at(mode, payload, rate)


def _overhead_falls(mode, payload, r):
    """The overhead's slope is negative at r, from its closed form:
    h(r)·c' < 1 at a fixed collision cost c' past DIFS, and
    h(r)·(1 + C·r) < expm1(r) + r at the balance payload."""
    e = math.expm1(r)
    h = (r - 1.0) * e + r
    if mode is BASIC and payload is None:
        return h * (1.0 + (2.0 * D.eifs - D.difs) * r) < e + r
    return h * (model.collision_cost(mode, payload, D) - D.difs) < 1.0


OVERHEAD_CASES = [(BASIC, None), (RTS, None), (BASIC, 10.0), (BASIC, 34.0), (BASIC, 400.0)]


@pytest.mark.parametrize("mode,payload", OVERHEAD_CASES,
                         ids=["joint", "rts", "basic-10", "basic-34", "basic-400"])
def test_minimize_overhead_is_the_slope_sign_change(mode, payload):
    # the predicate is the sign of the overhead's slope
    for i in range(1, 400):
        r = 0.005 * i
        step = _overhead_at(mode, payload, r + 1e-6) - _overhead_at(mode, payload, r - 1e-6)
        if abs(step) > 1e-9:
            assert (step < 0.0) == _overhead_falls(mode, payload, r), r
    rate, ov = minimize_overhead(mode, payload, D)
    assert _overhead_falls(mode, payload, rate)
    assert not _overhead_falls(mode, payload, math.nextafter(rate, math.inf))
    assert ov == _overhead_at(mode, payload, rate)
    old_rate, old_ov = _golden_section(mode, payload)
    assert abs(rate - old_rate) <= 2e-6
    assert ov <= old_ov


def test_minimize_overhead_stops_at_the_interval_ends():
    # a collision past DIFS of ~1e5 slots puts the sign change near 0.0045,
    # one of 0.1 slots puts it past 2
    assert minimize_overhead(BASIC, 1e5, D)[0] == 0.01
    flat = D.replace(eifs=D.difs)
    assert minimize_overhead(BASIC, 0.1, flat) == (
        2.0, model.overhead(ModelPoint(2.0, 0.1, BASIC), flat))


def test_recommended_rates():
    assert recommended_rate(RTS) == (0.7, None)
    assert recommended_rate(BASIC) == (0.55, 34.0)
