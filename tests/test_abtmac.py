import math

import pytest

from maclab import model
from maclab.abtmac import (AbtmacParams, QosClass, cw_min, estimate_active_nodes,
                           per_class_delay, qos_rates)
from maclab.errors import DomainError, ValidationError
from maclab.model import ModelPoint
from maclab.timing import AccessMode, DEFAULT_DURATIONS as D


# ---------------------------------------------------------------- window rule

@pytest.mark.parametrize("rate,m,expected", [
    (0.5, 10, 20),
    (0.5, 100, 100),
    (0.55, 100, 92),
    (0.55, 20, 30),
    (0.7, 100, 72),
    (0.7, 10, 14),
    (0.7, 20, 24),
    (0.7, 50, 44),
    (0.7, 60, 50),
    (0.7, 5, 10),
])
def test_cw_min_reference_points(rate, m, expected):
    assert cw_min(AbtmacParams(rate), m) == expected


def test_cw_min_is_even_or_clamped():
    for m in range(1, 200):
        w = cw_min(AbtmacParams(0.63), m)
        assert w == 1 or w % 2 == 0
        assert 1 <= w <= 1024


def test_cw_min_clamps():
    # absurd target rate drives the window to the floor
    assert cw_min(AbtmacParams(5.0, k_const=10.0), 10) == 1
    # near-zero target rate saturates at the ceiling
    assert cw_min(AbtmacParams(0.01), 100) == 1024
    assert cw_min(AbtmacParams(0.01, cw_max=256), 100) == 256


def test_cw_min_grows_with_population():
    windows = [cw_min(AbtmacParams(0.7), m) for m in (5, 10, 20, 50, 100)]
    assert windows == sorted(windows)


def test_cw_min_rejects_bad_inputs():
    for m_est in (0, math.nan, math.inf):
        with pytest.raises(DomainError):
            cw_min(AbtmacParams(0.7), m_est)
    with pytest.raises(ValidationError):
        cw_min(AbtmacParams(-0.1), 10)
    with pytest.raises(ValidationError):
        cw_min(AbtmacParams(0.7, k_const=0.0), 10)
    with pytest.raises(ValidationError):
        cw_min(AbtmacParams(math.inf), 10)
    with pytest.raises(ValidationError):
        cw_min(AbtmacParams(0.7, k_prime=math.inf), 10)


def test_cw_min_overflow_is_domain_error():
    # m_est / target_rate passes float range before the window is clamped
    assert cw_min(AbtmacParams(0.55), 10**307) == 1024
    for m_est in (10**308, 10**400):
        with pytest.raises(DomainError):
            cw_min(AbtmacParams(0.55), m_est)


# ---------------------------------------------------------------- estimator

def test_estimate_active_nodes():
    assert estimate_active_nodes(0.0, 1.0) == 1
    assert estimate_active_nodes(1.0, 1.0) == 10
    assert estimate_active_nodes(0.30103, 1.0) == 2
    assert estimate_active_nodes(0.52, 0.4) == 20


def test_estimate_rejects_bad_inputs():
    with pytest.raises(DomainError):
        estimate_active_nodes(-0.1, 1.0)
    with pytest.raises(DomainError):
        estimate_active_nodes(0.5, 0.0)
    with pytest.raises(DomainError):
        estimate_active_nodes(400.0, 1.0)       # 10^400 nodes is past float range
    for measured, k_prime in ((0.5, math.nan), (0.5, math.inf),
                              (math.nan, 1.0), (math.inf, 1.0)):
        with pytest.raises(DomainError):
            estimate_active_nodes(measured, k_prime)


def test_estimator_roundtrip_with_window_rule():
    # feeding the analytic collision count back through the estimator
    # recovers a population whose window sits near the oracle one
    rate = 0.7
    n = model.mean_collisions(rate)
    m_est = estimate_active_nodes(n, n)         # k' tuned to the measurement
    assert m_est == 10
    assert cw_min(AbtmacParams(rate), m_est) == cw_min(AbtmacParams(rate), 10)


# ---------------------------------------------------------------- QoS split

VOICE_DATA = (QosClass("voice", 10, 0.25), QosClass("data", 10, 1.75))


@pytest.mark.parametrize("classes", [
    (),
    (QosClass("a", 0, 1.0),),
    (QosClass("a", 10, -1.0), QosClass("b", 10, 3.0)),
    (QosClass("a", 10, 0.5), QosClass("b", 10, 1.0)),     # mean scale != 1
    (QosClass("a", 10, math.nan),),
    (QosClass("a", 10, math.inf), QosClass("b", 10, 1.0)),
])
def test_qos_rates_rejects_bad_split(classes):
    with pytest.raises(ValidationError):
        qos_rates(0.7, classes)


def test_qos_rates_two_class_split():
    rates = qos_rates(0.7, VOICE_DATA)
    assert rates["voice"] == pytest.approx(1.4, rel=1e-12)
    assert rates["data"] == pytest.approx(0.2, rel=1e-12)
    # scale-weighted rates recover the network average
    assert rates["voice"] * 0.25 + rates["data"] * 1.75 == pytest.approx(
        0.7, rel=1e-12)


def test_qos_rates_three_class_split():
    split = (QosClass("a", 30, 0.5), QosClass("b", 30, 1.0),
             QosClass("c", 30, 1.5))
    rates = qos_rates(0.9, split)
    assert rates["a"] == pytest.approx(0.6, rel=1e-12)
    assert rates["b"] == pytest.approx(0.3, rel=1e-12)
    assert rates["c"] == pytest.approx(0.2, rel=1e-12)


def test_qos_rates_rejects_bad_rate():
    for rate in (0.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            qos_rates(rate, VOICE_DATA)


# ---------------------------------------------------------------- class delay

def test_per_class_delay_reference_points():
    n = model.mean_collisions(0.7)
    fast = per_class_delay(1.4, None, AccessMode.RTS_CTS, n)
    slow = per_class_delay(0.2, None, AccessMode.RTS_CTS, n)
    assert fast == pytest.approx(12.777757160701588, rel=1e-12)
    assert slow == pytest.approx(18.98440639011267, rel=1e-12)
    assert fast < slow


def test_per_class_delay_reduces_to_network_delay():
    # a class contending at the network rate sees the network delay
    for rate in (0.4, 0.55, 0.7):
        n = model.mean_collisions(rate)
        both = per_class_delay(rate, 34.0, AccessMode.BASIC, n)
        assert both == pytest.approx(
            model.mean_access_delay(ModelPoint(rate, 34.0, AccessMode.BASIC), D),
            rel=1e-12)


def test_per_class_delay_basic_needs_payload():
    with pytest.raises(ValidationError):
        per_class_delay(0.5, None, AccessMode.BASIC, 0.4)
    with pytest.raises(DomainError):
        per_class_delay(0.0, 34.0, AccessMode.BASIC, 0.4)
    for rate, n in ((math.nan, 0.4), (0.5, -0.1), (0.5, math.nan), (0.5, math.inf)):
        with pytest.raises(DomainError):
            per_class_delay(rate, 34.0, AccessMode.BASIC, n)
