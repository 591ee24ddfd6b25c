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
                assert abs(design.delay_characteristic(pt, -s, D)) <= 1e-14 * scale
                for frac in (0.0, 0.5, 0.999, 1.0 - 1e-6):
                    assert design.delay_characteristic(pt, -s * frac, D) > 0.0


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


def test_ratio_bounds_sit_on_the_tolerance_boundary():
    pt = ModelPoint(0.7, 34.0, RTS)
    b = tolerable_ratio_bounds(pt, 0.10, D)
    assert b.max_ratio > 1.0 > b.min_ratio

    cost = model.collision_cost(pt, D)
    def delay(rate):
        return model.mean_collisions(rate) * (1.0 / rate + cost) + 1.0 / rate

    base = delay(pt.rate)
    for k in (b.max_ratio, b.min_ratio):
        dev = abs(delay(pt.rate / k) - base) / base
        assert dev <= 0.10 + 1e-9
        assert dev >= 0.095          # bisection leaves at most ~1e-4 slack


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


def test_recommended_rates():
    assert recommended_rate(RTS) == (0.7, None)
    assert recommended_rate(BASIC) == (0.55, 34.0)
