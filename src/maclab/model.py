"""Closed-form saturation model of slotted CSMA/CA contention.

The network is abstracted as a renewal process: runs of back-to-back
frame services (zero or more collision periods, then one success)
separated by idle gaps. With aggregate attempt rate `rate` per slot the
number of collisions between consecutive successes is geometric, and
every metric of interest (service and collision period lengths,
throughput, access delay, overhead) has a closed form in `rate`, the
mean payload, and the slot durations.

Convention used throughout: the mean number of idle slots leading in to
any transmission attempt is 1/rate, so no independent backoff-window
parameter appears here.
"""

import math

from ._record import Record
from .errors import DomainError, ValidationError
from .timing import AccessMode, SlotDurations, DEFAULT_DURATIONS

RATE_MAX = 5.0
PAYLOAD_MAX = 1e5


class ModelPoint(Record):
    """Operating point: attempt rate (1/slots), mean payload (slots), mode."""

    __slots__ = ("rate", "payload", "mode")

    def __init__(self, rate: float, payload: float, mode: AccessMode):
        if isinstance(rate, bool) or not 0.0 < rate <= RATE_MAX:
            raise DomainError(f"attempt rate must be in (0, {RATE_MAX}], got {rate}")
        _check_rate(rate)       # its reciprocal must be finite too
        if isinstance(payload, bool) or not 0.0 < payload <= PAYLOAD_MAX:
            raise ValidationError(f"payload must be in (0, {PAYLOAD_MAX}] slots, got {payload}")
        self._fill(rate, payload, mode)


class FluidMetrics(Record):
    __slots__ = (
        "mean_collisions",      # collisions per successful frame
        "collision_period",     # slots, idle lead-in included
        "service_time",         # slots, idle lead-in included
        "idle_gap",             # slots between busy runs
        "throughput",           # payload fraction of channel time
        "access_delay",         # slots from backoff start to winning tx start
        "overhead",             # non-payload slots charged per delivered frame
    )

    def __init__(self, mean_collisions: float, collision_period: float,
                 service_time: float, idle_gap: float, throughput: float,
                 access_delay: float, overhead: float):
        self._fill(mean_collisions, collision_period, service_time, idle_gap,
                   throughput, access_delay, overhead)


def _check_rate(rate):
    # model points are capped at RATE_MAX, but the scalar collision
    # forms stay valid past the cap (iterative callers pass transient
    # rates above it). 1/rate overflows below about 5.6e-309; an int
    # rate past float range skips that test and overflows expm1 instead
    if not 0 < rate < math.inf:
        raise DomainError(f"attempt rate must be positive and finite, got {rate}")
    if rate < 1.0 and not 1.0 / rate < math.inf:
        raise DomainError(f"attempt rate {rate} has no finite reciprocal")


def mean_collisions(rate: float) -> float:
    """Mean number of collisions between two consecutive successes.

    Equals (e^r - 1 - r)/r; strictly increasing, ~r/2 for small r.
    """
    _check_rate(rate)
    try:
        return math.expm1(rate) / rate - 1.0
    except OverflowError:
        raise DomainError(f"attempt rate {rate} overflows e^r - 1") from None


def collision_count_pmf(rate: float, n: int) -> float:
    """P[exactly n collisions between consecutive successes]: geometric."""
    if n < 0:
        raise DomainError("collision count must be non-negative")
    q = collision_probability(rate)
    return (1.0 - q) * q ** n


def collision_probability(rate: float) -> float:
    """Fraction of transmission events that end in collision: n/(n+1)."""
    n = mean_collisions(rate)
    return n / (n + 1.0)


def collision_cost(mode: AccessMode, payload, d: SlotDurations = DEFAULT_DURATIONS) -> float:
    """Channel time a collision burns past its idle lead-in.

    A collided handshake costs the request frame plus the extended
    deferral, whatever the payload (which may be None); a collided data
    frame costs the frame itself plus the deferral.
    """
    if mode is AccessMode.RTS_CTS:
        return d.t_rts + d.eifs
    return payload + d.eifs


def collision_period(pt: ModelPoint, d: SlotDurations = DEFAULT_DURATIONS) -> float:
    """Mean length of one collision period, idle lead-in included."""
    return _slots_per_frame(pt, d, 0.0)[2]


def service_time(pt: ModelPoint, d: SlotDurations = DEFAULT_DURATIONS) -> float:
    """Mean length of the successful part of a frame service."""
    lead = 1.0 / pt.rate
    if pt.mode is AccessMode.RTS_CTS:
        return lead + d.t_rts + d.t_cts + d.t_ack + pt.payload + d.difs + 3 * d.sifs
    return lead + d.t_ack + pt.payload + d.difs + d.sifs


def _slots_per_frame(pt, d, n):
    """Channel slots per delivered frame with n collisions per success,
    then the collision cost, collision period, service time and idle gap
    it is built from.

    The busy-run composition reduces to spent - n * idle, where spent is
    one service plus n collision periods.
    """
    cost = collision_cost(pt.mode, pt.payload, d)
    period = 1.0 / pt.rate + cost
    service = service_time(pt, d)
    idle = 1.0 / pt.rate + d.difs
    spent = service + n * period
    return spent - n * idle, cost, period, service, idle


def throughput(pt: ModelPoint, d: SlotDurations = DEFAULT_DURATIONS) -> float:
    """Fraction of channel time carrying payload at this operating point."""
    return pt.payload / _slots_per_frame(pt, d, mean_collisions(pt.rate))[0]


def overhead(pt: ModelPoint, d: SlotDurations = DEFAULT_DURATIONS) -> float:
    """Non-payload slots charged per delivered frame.

    Defined so that throughput == payload / (payload + overhead).
    """
    return _slots_per_frame(pt, d, mean_collisions(pt.rate))[0] - pt.payload


def access_delay(rate: float, collisions: float, cost: float) -> float:
    """Slots from backoff start until the winning transmission begins.

    `collisions` collision periods of 1/rate + cost slots each, then the
    winner's own idle lead-in of 1/rate. Scalar form, valid for any
    positive rate; mean_access_delay is its value at a model point.
    """
    _check_rate(rate)
    return collisions * (1.0 / rate + cost) + 1.0 / rate


def mean_access_delay(pt: ModelPoint, d: SlotDurations = DEFAULT_DURATIONS) -> float:
    """Slots from backoff start until the winning transmission begins."""
    return access_delay(pt.rate, mean_collisions(pt.rate), collision_cost(pt.mode, pt.payload, d))


def evaluate(pt: ModelPoint, d: SlotDurations = DEFAULT_DURATIONS) -> FluidMetrics:
    """All closed-form metrics for one operating point."""
    n = mean_collisions(pt.rate)
    frame, cost, period, service, idle = _slots_per_frame(pt, d, n)
    return FluidMetrics(
        mean_collisions=n,
        collision_period=period,
        service_time=service,
        idle_gap=idle,
        throughput=pt.payload / frame,
        access_delay=access_delay(pt.rate, n, cost),
        overhead=frame - pt.payload,
    )


def bisect(admissible, ok, bad, tol=0.0):
    """Last admissible point found between `ok` and `bad` (either order).

    `admissible(ok)` must hold and `admissible(bad)` must not; neither
    end is evaluated. The bracket halves until |bad - ok| <= tol or its
    midpoint equals an end (the ends are adjacent floats), then `ok` is
    returned.
    """
    while abs(bad - ok) > tol:
        mid = 0.5 * (ok + bad)
        if mid == ok or mid == bad:
            break
        if admissible(mid):
            ok = mid
        else:
            bad = mid
    return ok
