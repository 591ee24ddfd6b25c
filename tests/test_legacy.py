import math

import pytest

from maclab.errors import ValidationError
from maclab.legacy import (DcfParams, legacy_attempt_rate, mean_backoff,
                           stage_windows)


def test_default_ladder():
    assert stage_windows(DcfParams()) == [32, 64, 128, 256, 512, 1024, 1024, 1024]


def test_params_validation():
    DcfParams()
    DcfParams(16, 1024, 7)
    with pytest.raises(ValidationError):
        DcfParams(32, 1000)      # not a power-of-two multiple
    with pytest.raises(ValidationError):
        DcfParams(32, 1024, 3)   # unreachable within 3 doublings
    with pytest.raises(ValidationError):
        DcfParams(32, 512, 3)    # 4 doublings, one past the ladder
    with pytest.raises(ValidationError):
        DcfParams(2048, 1024)
    with pytest.raises(ValidationError):
        DcfParams(0, 1024)
    for ladder in ((32.0,), (32, 1024.0), (32, 1024, 7.0), (32, 1024, math.inf)):
        with pytest.raises(ValidationError):
            DcfParams(*ladder)


def test_mean_backoff_collision_free_limit():
    # vanishing rate means no collisions, so only the first window counts
    assert mean_backoff(1e-12, DcfParams()) == pytest.approx(16.0, rel=1e-9)


def test_mean_backoff_certain_collision_limit():
    # the collision probability rounds to 1, so every stage weighs the
    # same: the mean of the cumulative half-windows 16, 48, ..., 2032
    assert mean_backoff(50.0, DcfParams()) == pytest.approx(5472 / 8, rel=1e-12)


def test_mean_backoff_grows_with_rate():
    values = [mean_backoff(r, DcfParams()) for r in (0.1, 0.3, 0.6, 0.9, 1.2)]
    assert all(b > a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("m,expected", [
    (10, 0.39500175603895277),
    (50, 0.8972323589085429),
    (100, 1.1594946537372826),
])
def test_fixed_point_reference_values(m, expected):
    assert legacy_attempt_rate(m) == pytest.approx(expected, rel=1e-9)


def test_fixed_point_residual():
    params = DcfParams()
    for m in (5, 10, 20, 50, 100):
        rate = legacy_attempt_rate(m, params)
        assert abs(rate - m / mean_backoff(rate, params)) < 1e-12


@pytest.mark.parametrize("m", [2, 668, 670, 1000, 5000])
def test_fixed_point_is_the_last_float_below_the_crossing(m):
    params = DcfParams()
    rate = legacy_attempt_rate(m, params)
    above = math.nextafter(rate, math.inf)
    assert m / mean_backoff(rate, params) > rate
    assert not m / mean_backoff(above, params) > above


def test_fixed_point_monotone_in_population():
    rates = [legacy_attempt_rate(m) for m in (2, 5, 10, 20, 50, 100, 200)]
    assert all(b > a for a, b in zip(rates, rates[1:]))


def test_fixed_point_band():
    # legacy populations from 10 to 100 stations straddle the whole
    # useful contention band instead of holding one operating point
    lo = legacy_attempt_rate(10)
    hi = legacy_attempt_rate(100)
    assert lo < 0.56 < hi
    assert hi / lo > 2.5


def test_fixed_point_needs_two_stations():
    # a non-finite count would bisect to 0.0 unchecked
    for m in (1, math.nan, math.inf):
        with pytest.raises(ValidationError):
            legacy_attempt_rate(m)


def test_smaller_initial_window_contends_harder():
    aggressive = legacy_attempt_rate(20, DcfParams(16, 1024, 7))
    standard = legacy_attempt_rate(20, DcfParams(32, 1024, 7))
    assert aggressive > standard
