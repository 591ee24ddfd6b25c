import math
from itertools import accumulate

import pytest

from maclab.errors import ValidationError
from maclab.legacy import (DcfParams, _waits, ladder, legacy_attempt_rate,
                           mean_backoff)


def test_default_ladder():
    assert ladder(32, 1024, 7) == [32, 64, 128, 256, 512, 1024]


# ---------------------------------------------------------------- ladder oracles
# the three doubling-with-a-cap rules that `ladder` replaced, kept as written

def _engine_highs(cw_min, cw_max, retry_limit):
    """The simulator's counter values per stage, up to the first at the cap."""
    def window(stage):
        return min((cw_min + 1) * 2 ** stage, cw_max + 1) - 1
    highs = [window(0) + 1]
    while len(highs) <= retry_limit and highs[-1] <= cw_max:
        highs.append(window(len(highs)) + 1)
    return highs


def _stage_windows(params):
    return [min(2 ** i * params.cw_min, params.cw_max)
            for i in range(params.retry_limit + 1)]


def _reachable(cw_min, cw_max, retry_limit):
    """DcfParams' old rule: cw_max is cw_min doubled at most retry_limit times."""
    w, doublings = cw_min, 0
    while w < cw_max and doublings < retry_limit:
        w *= 2
        doublings += 1
    return w == cw_max


def test_ladder_matches_the_engine_table():
    for cw_min in range(33):
        for cw_max in [*range(cw_min, 100), 1023, 1024, 2047, 4096]:
            for retry_limit in range(13):
                assert (ladder(cw_min + 1, cw_max + 1, retry_limit)
                        == _engine_highs(cw_min, cw_max, retry_limit))


def test_ladder_matches_dcf_acceptance_and_stage_windows():
    for cw_min in range(1, 49):
        ends = {cw_min << k for k in range(14)}
        for cw_max in sorted({e + d for e in ends for d in (-1, 0, 1)}):
            for retry_limit in range(1, 13):
                try:
                    params = DcfParams(cw_min, cw_max, retry_limit)
                except ValidationError:
                    assert cw_min > cw_max or not _reachable(cw_min, cw_max, retry_limit)
                    continue
                assert _reachable(cw_min, cw_max, retry_limit)
                assert _waits(params) == list(accumulate(
                    w / 2.0 for w in _stage_windows(params)))


def test_ladder_stops_at_the_cap():
    # a retry limit far past the cap costs nothing: 33·2^5 is the first at 1025
    assert len(ladder(33, 1025, 10**9)) == 6


def test_params_validation():
    DcfParams()
    DcfParams(16, 1024, 7)
    DcfParams(32, 1024, 255)
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
    for args in ((32.0,), (32, 1024.0), (32, 1024, 7.0), (32, 1024, math.inf),
                 (True, True, True), (True, 1024, 10), (1, 2, True)):
        with pytest.raises(ValidationError):
            DcfParams(*args)
    # past 802.11's 1-255 range; a solve loops once per stage
    with pytest.raises(ValidationError):
        DcfParams(32, 1024, 256)
    with pytest.raises(ValidationError):
        DcfParams(32, 1024, 10**9)


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
