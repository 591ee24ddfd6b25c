import math

import pytest

from maclab import model
from maclab.errors import DomainError, ValidationError
from maclab.model import FluidMetrics, ModelPoint
from maclab.timing import AccessMode, DEFAULT_DURATIONS as D

RTS = AccessMode.RTS_CTS
BASIC = AccessMode.BASIC


# ---------------------------------------------------------------- validation

# 1/rate overflows below about 5.6e-309; a bool is no rate
@pytest.mark.parametrize("rate", [0.0, -0.1, 5.0001, 100.0, 1e-310, True])
def test_point_rejects_out_of_range_rate(rate):
    with pytest.raises(DomainError):
        ModelPoint(rate, 34.0, RTS)


@pytest.mark.parametrize("payload", [0.0, -1.0, 1e5 + 1, True])
def test_point_rejects_out_of_range_payload(payload):
    with pytest.raises(ValidationError):
        ModelPoint(0.5, payload, BASIC)


def test_point_accepts_boundaries():
    ModelPoint(5.0, 1e5, BASIC)
    ModelPoint(1e-6, 1e-6, RTS)


def test_scalar_forms_reject_nonpositive_rate():
    with pytest.raises(DomainError):
        model.mean_collisions(0.0)
    with pytest.raises(DomainError):
        model.collision_count_pmf(-1.0, 0)
    with pytest.raises(DomainError):
        model.mean_collisions(math.inf)
    with pytest.raises(DomainError):
        model.mean_collisions(math.nan)
    # finite, but e^r - 1 overflows a float past r of about 709.78
    with pytest.raises(DomainError):
        model.mean_collisions(1000.0)
    # finite, but 1/r overflows a float below r of about 5.6e-309
    with pytest.raises(DomainError):
        model.mean_collisions(1e-310)
    with pytest.raises(DomainError):
        model.access_delay(1e-320, 0.0, 18.2)


# ---------------------------------------------------------------- collisions

def test_mean_collisions_reference_points():
    # hand-computed from the series (e^r - 1 - r) / r
    assert model.mean_collisions(0.7) == pytest.approx(0.4482181535292522, rel=1e-12)
    assert model.mean_collisions(0.55) == pytest.approx(0.33318730521344575, rel=1e-12)


def test_mean_collisions_small_rate_limit():
    # ~r/2 as r -> 0
    assert model.mean_collisions(1e-6) == pytest.approx(5e-7, rel=1e-4)


def test_mean_collisions_monotone():
    rates = [0.05 * i for i in range(1, 100)]
    values = [model.mean_collisions(r) for r in rates]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_pmf_normalizes_and_reproduces_mean():
    for rate in (0.1, 0.31, 0.55, 0.7, 1.0):
        probs = [model.collision_count_pmf(rate, n) for n in range(400)]
        assert sum(probs) == pytest.approx(1.0, abs=1e-9)
        mean = sum(n * p for n, p in enumerate(probs))
        assert mean == pytest.approx(model.mean_collisions(rate), abs=1e-9)


def test_pmf_is_geometric():
    rate = 0.7
    p0 = model.collision_count_pmf(rate, 0)
    ratio = model.collision_count_pmf(rate, 1) / p0
    for n in range(2, 20):
        step = model.collision_count_pmf(rate, n) / model.collision_count_pmf(rate, n - 1)
        assert step == pytest.approx(ratio, rel=1e-12)
    assert 0.0 < ratio < 1.0
    assert p0 == pytest.approx(0.6905037, abs=1e-7)


def test_pmf_rejects_negative_count():
    with pytest.raises(DomainError):
        model.collision_count_pmf(0.5, -1)


def test_collision_probability_identity():
    for rate in (0.1, 0.55, 0.7, 2.0):
        n = model.mean_collisions(rate)
        assert model.collision_probability(rate) == pytest.approx(n / (n + 1.0),
                                                                  rel=1e-12)


# ---------------------------------------------------------------- periods

def test_collision_cost_by_mode():
    assert model.collision_cost(RTS, 34.0, D) == pytest.approx(26.2)
    assert model.collision_cost(RTS, None, D) == pytest.approx(26.2)
    assert model.collision_cost(BASIC, 34.0, D) == pytest.approx(52.2)
    assert model.collision_cost(BASIC, 100.0, D) == pytest.approx(118.2)


def test_collision_period_adds_idle_lead_in():
    pt = ModelPoint(0.7, 34.0, RTS)
    assert model.collision_period(pt, D) == pytest.approx(1 / 0.7 + 26.2, rel=1e-12)


def test_service_time_reference_points():
    assert model.service_time(ModelPoint(0.7, 34.0, RTS), D) == pytest.approx(
        1 / 0.7 + 34.0 + 23.2, rel=1e-12)
    assert model.service_time(ModelPoint(0.55, 34.0, BASIC), D) == pytest.approx(
        1 / 0.55 + 34.0 + 8.6, rel=1e-12)


# ---------------------------------------------------------------- throughput

def test_throughput_reference_points():
    assert model.throughput(ModelPoint(0.7, 34.0, RTS), D) == pytest.approx(
        0.49096521715616726, rel=1e-12)
    assert model.throughput(ModelPoint(0.55, 34.0, BASIC), D) == pytest.approx(
        0.5575818838570551, rel=1e-12)


@pytest.mark.parametrize("rate,payload,expected", [
    (0.31, 58.0, 0.7027986223649403),
    (0.45, 40.0, 0.6109981970416977),
    (0.55, 34.0, 0.5575818838570551),
    (0.6, 32.0, 0.5339998425872214),
    (0.7, 29.0, 0.4909934623434469),
])
def test_throughput_basic_operating_rows(rate, payload, expected):
    assert model.throughput(ModelPoint(rate, payload, BASIC), D) == pytest.approx(
        expected, rel=1e-12)


def test_throughput_overhead_identity():
    for rate, payload, mode in ((0.3, 50.0, RTS), (0.55, 34.0, BASIC),
                                (1.0, 20.0, BASIC), (0.7, 34.0, RTS)):
        pt = ModelPoint(rate, payload, mode)
        tp = model.throughput(pt, D)
        ov = model.overhead(pt, D)
        assert tp == pytest.approx(payload / (payload + ov), rel=1e-12)


def test_reduced_denominator_identity_rts():
    # spelled-out denominator: payload + constant exchange cost + idle
    # lead-in + per-collision surcharge, all in slots
    exchange = D.t_rts + D.t_cts + D.t_ack + 3 * D.sifs + D.difs
    surcharge = D.t_rts + D.eifs - D.difs
    for rate in (0.1, 0.31, 0.55, 0.7, 1.0, 2.0):
        pt = ModelPoint(rate, 34.0, RTS)
        n = model.mean_collisions(rate)
        reduced = 34.0 / (34.0 + 1.0 / rate + surcharge * n + exchange)
        assert model.throughput(pt, D) == pytest.approx(reduced, abs=1e-9)


def test_reduced_denominator_identity_basic():
    tail = D.sifs + D.t_ack + D.difs
    surcharge = D.eifs - D.difs
    for rate in (0.1, 0.31, 0.55, 0.7, 1.0, 2.0):
        for payload in (20.0, 34.0, 58.0):
            pt = ModelPoint(rate, payload, BASIC)
            n = model.mean_collisions(rate)
            reduced = payload / (payload + tail + 1.0 / rate
                                 + surcharge * n + n * payload)
            assert model.throughput(pt, D) == pytest.approx(reduced, abs=1e-9)


# ---------------------------------------------------------------- delay

@pytest.mark.parametrize("rate,expected", [
    (0.1, 11.87187234338444),
    (0.4, 9.088422055761148),
    (0.5, 10.387879667487232),
    (0.7, 13.812198698936768),
    (1.0, 20.537265734086027),
])
def test_access_delay_rts_reference_points(rate, expected):
    pt = ModelPoint(rate, 34.0, RTS)
    assert model.mean_access_delay(pt, D) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("rate,payload,expected", [
    (0.31, 58.0, 16.9139766926377),
    (0.45, 40.0, 18.10818925174168),
    (0.55, 34.0, 19.81635425071177),
    (0.6, 32.0, 20.867602967090665),
    (0.7, 29.0, 23.224779923051067),
])
def test_access_delay_basic_reference_points(rate, payload, expected):
    pt = ModelPoint(rate, payload, BASIC)
    assert model.mean_access_delay(pt, D) == pytest.approx(expected, rel=1e-12)


def test_access_delay_composition():
    pt = ModelPoint(0.55, 34.0, BASIC)
    n = model.mean_collisions(0.55)
    expected = n * model.collision_period(pt, D) + 1 / 0.55
    assert model.mean_access_delay(pt, D) == pytest.approx(expected, rel=1e-12)


def test_scalar_access_delay_is_the_model_delay():
    for pt in (ModelPoint(0.55, 34.0, BASIC), ModelPoint(0.7, 34.0, RTS)):
        n = model.mean_collisions(pt.rate)
        cost = model.collision_cost(pt.mode, pt.payload, D)
        assert model.access_delay(pt.rate, n, cost) == model.mean_access_delay(pt, D)
    # valid past the model-point rate cap; zero collisions leave the lead-in
    assert model.access_delay(2 * model.RATE_MAX, 0.0, 50.0) == 0.1
    with pytest.raises(DomainError):
        model.access_delay(0.0, 0.4, 50.0)


def test_evaluate_collects_everything():
    pt = ModelPoint(0.7, 34.0, RTS)
    m = model.evaluate(pt, D)
    assert isinstance(m, FluidMetrics)
    assert m.mean_collisions == model.mean_collisions(0.7)
    assert m.collision_period == model.collision_period(pt, D)
    assert m.service_time == model.service_time(pt, D)
    assert m.throughput == model.throughput(pt, D)
    assert m.access_delay == model.mean_access_delay(pt, D)
    assert m.overhead == model.overhead(pt, D)
    assert m.idle_gap == pytest.approx(1 / 0.7 + D.difs, rel=1e-12)


# ---------------------------------------------------------------- bisection

def test_bisect_stops_at_tolerance():
    probes = []

    def below(x):
        probes.append(x)
        return x < 0.3

    k = model.bisect(below, 0.0, 1.0, tol=0.01)
    assert len(probes) == 7         # 2**-7 is the first halving under 0.01
    assert k < 0.3 <= k + 0.01
    assert 0.0 not in probes and 1.0 not in probes


def test_bisect_runs_to_adjacent_floats():
    root2 = model.bisect(lambda x: x * x < 2.0, 1.0, 2.0)
    assert root2 * root2 < 2.0 <= math.nextafter(root2, math.inf) ** 2
    # the admissible end may lie above the inadmissible one
    assert model.bisect(lambda x: x > 1.0, 3.0, 0.0) == math.nextafter(1.0, math.inf)
