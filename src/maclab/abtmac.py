"""Adaptive backoff tuning: the paper's rule for the initial contention
window of a station population, aimed at a target attempt rate.

The chain is: target rate and node count give the mean backoff, the
mean backoff gives the equivalent per-slot transmission probability,
that gives the mean contention window the population should see, and
dividing out the exponential-backoff inflation factor 2^(K*log10 M)
gives the initial window to configure. That factor depends on M alone,
while the inflation a backoff ladder really produces depends on the
collision probability, so the achieved rate misses the target: a 0.70
target gives 0.582, 0.725 and 0.833 at M = 10, 50 and 100 (acceptance
criterion 08). Node count can come from an oracle (the AP announces
it) or from the measured collision rate."""

import math

from ._record import Record
from .errors import DomainError, ValidationError
from .model import access_delay, collision_cost
from .timing import AccessMode, SlotDurations, DEFAULT_DURATIONS


class AbtmacParams(Record):
    __slots__ = (
        "target_rate",      # attempts per slot the population should produce
        "k_const",          # exponent constant in the inflation divisor
        "k_prime",          # estimator constant, calibratable
        "cw_max",
        "retry_limit",
    )

    def __init__(self, target_rate: float, k_const: float = 1.0, k_prime: float = 1.0,
                 cw_max: int = 1024, retry_limit: int = 7):
        if isinstance(target_rate, bool) or not 0 < target_rate < math.inf:
            raise ValidationError("target rate must be positive and finite")
        if not all(type(v) is not bool and 0 < v < math.inf for v in (k_const, k_prime)):
            raise ValidationError("tuning constants must be positive and finite")
        if not all(type(v) is int and v >= 1 for v in (cw_max, retry_limit)):
            raise ValidationError("cw_max and retry limit must be integers >= 1")
        self._fill(target_rate, k_const, k_prime, cw_max, retry_limit)


class QosClass(Record):
    __slots__ = (
        "class_id",
        "station_count",
        "backoff_scale",    # multiplier on the network mean backoff
    )

    def __init__(self, class_id: str, station_count: int, backoff_scale: float):
        if not isinstance(class_id, str):
            raise ValidationError(f"class id must be a string, got {class_id!r}")
        if not (type(station_count) is int and station_count >= 1):
            raise ValidationError(f"class {class_id}: station count must be a positive integer")
        if isinstance(backoff_scale, bool) or not 0 < backoff_scale < math.inf:
            raise ValidationError(f"class {class_id}: backoff scale must be positive")
        self._fill(class_id, station_count, backoff_scale)


def cw_min(params: AbtmacParams, m_est: int) -> int:
    """Initial contention window for an estimated population of m_est.

    Rounded to the nearest even integer and clamped to [1, cw_max].
    """
    if not 1 <= m_est < math.inf:
        raise DomainError(f"estimated node count must be >= 1, got {m_est}")
    try:
        mean_backoff = m_est / params.target_rate
        expected_window = 2.0 * mean_backoff + 1.0
        inflation = 2.0 ** (params.k_const * math.log10(m_est))
        w = int(2 * round(expected_window / inflation / 2.0))
    except OverflowError:
        raise DomainError(f"window for {m_est} nodes at target rate "
                          f"{params.target_rate} overflows a float") from None
    return max(1, min(w, params.cw_max))


def estimate_active_nodes(measured_mean_collisions: float, k_prime: float) -> int:
    """Node count implied by a measured collisions-per-success figure."""
    if not 0 <= measured_mean_collisions < math.inf:
        raise DomainError("mean collisions must be finite and non-negative")
    if not 0 < k_prime < math.inf:
        raise DomainError("estimator constant must be positive and finite")
    try:
        return max(1, round(10.0 ** (measured_mean_collisions / k_prime)))
    except OverflowError:
        raise DomainError(f"node estimate 10^({measured_mean_collisions}/{k_prime}) "
                          "overflows a float") from None


def qos_rates(avg_rate: float, classes) -> dict:
    """Per-class aggregate attempt rates under a backoff-scale split.

    The population M is the sum of the class counts. Each class's
    stations run a backoff scaled relative to the network mean M /
    avg_rate, so a class of count_i stations at scale s_i contributes
    count_i / (s_i * mean_backoff) attempts per slot. The count-weighted
    mean scale must be 1, which keeps the network mean backoff in place.
    """
    if not 0 < avg_rate < math.inf:
        raise DomainError("average attempt rate must be positive and finite")
    if not classes:
        raise ValidationError("QoS split needs at least one class")
    m = sum(c.station_count for c in classes)
    mean_scale = sum(c.station_count * c.backoff_scale for c in classes) / m
    if abs(mean_scale - 1.0) > 1e-9:
        raise ValidationError(
            f"count-weighted mean backoff scale is {mean_scale}, must be 1")
    mean_backoff = m / avg_rate
    return {c.class_id: c.station_count / (c.backoff_scale * mean_backoff)
            for c in classes}


def per_class_delay(class_rate: float, payload, mode: AccessMode,
                    network_mean_collisions: float,
                    d: SlotDurations = DEFAULT_DURATIONS) -> float:
    """Access delay seen by a class contending at its own rate.

    The collision count is a network-wide property and is held fixed;
    only the class's idle lead-in scales with its rate.
    """
    if not 0 <= network_mean_collisions < math.inf:
        raise DomainError("network mean collisions must be finite and non-negative")
    if mode is AccessMode.BASIC and (payload is None or payload <= 0):
        raise ValidationError("basic access needs a positive payload")
    return access_delay(class_rate, network_mean_collisions,
                        collision_cost(mode, payload, d))
