"""Adaptive backoff tuning: pick the initial contention window so a
station population contends at a fixed target attempt rate.

The chain is: target rate and node count give the mean backoff, the
mean backoff gives the equivalent per-slot transmission probability,
that gives the mean contention window the population should see, and
dividing out the exponential-backoff inflation factor 2^(K*log10 M)
gives the initial window to configure. Node count can come from an
oracle (the AP announces it) or from the measured collision rate.
"""

import math
from dataclasses import dataclass

from .errors import DomainError, ValidationError
from .model import access_delay, collision_cost
from .timing import AccessMode, SlotDurations, DEFAULT_DURATIONS


@dataclass(frozen=True)
class AbtmacParams:
    target_rate: float          # attempts per slot the population should produce
    k_const: float = 1.0        # exponent constant in the inflation divisor
    k_prime: float = 1.0        # estimator constant, calibratable
    cw_max: int = 1024
    retry_limit: int = 7

    def __post_init__(self):
        if not 0 < self.target_rate < math.inf:
            raise ValidationError("target rate must be positive and finite")
        if not (0 < self.k_const < math.inf and 0 < self.k_prime < math.inf):
            raise ValidationError("tuning constants must be positive and finite")
        if not (1 <= self.cw_max < math.inf and 1 <= self.retry_limit < math.inf):
            raise ValidationError("cw_max and retry limit must be >= 1")


@dataclass(frozen=True)
class QosClass:
    class_id: str
    station_count: int
    backoff_scale: float        # multiplier on the network mean backoff


def validate_classes(classes, m):
    """Check a QoS split: positive counts summing to m, scales averaging 1."""
    if not classes:
        raise ValidationError("QoS split needs at least one class")
    total = 0
    for c in classes:
        if c.station_count < 1:
            raise ValidationError(f"class {c.class_id}: station count must be positive")
        if c.backoff_scale <= 0:
            raise ValidationError(f"class {c.class_id}: backoff scale must be positive")
        total += c.station_count
    if total != m:
        raise ValidationError(f"class station counts sum to {total}, expected {m}")
    mean_scale = sum(c.station_count * c.backoff_scale for c in classes) / m
    if abs(mean_scale - 1.0) > 1e-9:
        raise ValidationError(
            f"count-weighted mean backoff scale is {mean_scale}, must be 1")
    return classes


def cw_min(params: AbtmacParams, m_est: int) -> int:
    """Initial contention window for an estimated population of m_est.

    Rounded to the nearest even integer and clamped to [1, cw_max].
    """
    if m_est < 1:
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
    if measured_mean_collisions < 0:
        raise DomainError("mean collisions cannot be negative")
    if k_prime <= 0:
        raise DomainError("estimator constant must be positive")
    try:
        return max(1, round(10.0 ** (measured_mean_collisions / k_prime)))
    except OverflowError:
        raise DomainError(f"node estimate 10^({measured_mean_collisions}/{k_prime}) "
                          "overflows a float") from None


def qos_rates(avg_rate: float, m: int, classes) -> dict:
    """Per-class aggregate attempt rates under a backoff-scale split.

    Each class's stations run a backoff scaled relative to the network
    mean, so a class of count_i stations at scale s_i contributes
    count_i / (s_i * mean_backoff) attempts per slot. The count-weighted
    mean backoff stays at m / avg_rate by the validation invariant.
    """
    if avg_rate <= 0:
        raise DomainError("average attempt rate must be positive")
    validate_classes(classes, m)
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
    if class_rate <= 0:
        raise DomainError(f"class rate must be positive, got {class_rate}")
    if network_mean_collisions < 0:
        raise DomainError("network mean collisions cannot be negative")
    if mode is AccessMode.BASIC and (payload is None or payload <= 0):
        raise ValidationError("basic access needs a positive payload")
    return access_delay(class_rate, network_mean_collisions,
                        collision_cost(mode, payload, d))
