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
from dataclasses import dataclass

from .errors import DomainError, ValidationError
from .timing import AccessMode, SlotDurations, DEFAULT_DURATIONS

RATE_MAX = 5.0
PAYLOAD_MAX = 1e5


@dataclass(frozen=True)
class ModelPoint:
    """Operating point: attempt rate (1/slots), mean payload (slots), mode."""

    rate: float
    payload: float
    mode: AccessMode

    def validate(self):
        if not 0.0 < self.rate <= RATE_MAX:
            raise DomainError(f"attempt rate must be in (0, {RATE_MAX}], got {self.rate}")
        if not 0.0 < self.payload <= PAYLOAD_MAX:
            raise ValidationError(f"payload must be in (0, {PAYLOAD_MAX}] slots, got {self.payload}")
        return self


@dataclass(frozen=True)
class FluidMetrics:
    mean_collisions: float      # collisions per successful frame
    collision_period: float     # slots, idle lead-in included
    service_time: float         # slots, idle lead-in included
    idle_gap: float             # slots between busy runs
    throughput: float           # payload fraction of channel time
    access_delay: float         # slots from backoff start to winning tx start
    overhead: float             # non-payload slots charged per delivered frame


def _check_rate(rate):
    # model points are capped at RATE_MAX, but the scalar collision
    # forms stay valid for any positive rate (iterative callers pass
    # transient rates above the cap)
    if rate <= 0:
        raise DomainError(f"attempt rate must be positive, got {rate}")


def mean_collisions(rate: float) -> float:
    """Mean number of collisions between two consecutive successes.

    Equals (e^r - 1 - r)/r; strictly increasing, ~r/2 for small r.
    """
    _check_rate(rate)
    return math.expm1(rate) / rate - 1.0


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


def collision_cost(pt: ModelPoint, d: SlotDurations = DEFAULT_DURATIONS) -> float:
    """Channel time a collision burns past its idle lead-in.

    A collided handshake costs the request frame plus the extended
    deferral; a collided data frame costs the frame itself plus the
    deferral.
    """
    if pt.mode is AccessMode.RTS_CTS:
        return d.t_rts + d.eifs
    return pt.payload + d.eifs


def collision_period(pt: ModelPoint, d: SlotDurations = DEFAULT_DURATIONS) -> float:
    """Mean length of one collision period, idle lead-in included."""
    pt.validate()
    return 1.0 / pt.rate + collision_cost(pt, d)


def service_time(pt: ModelPoint, d: SlotDurations = DEFAULT_DURATIONS) -> float:
    """Mean length of the successful part of a frame service."""
    pt.validate()
    lead = 1.0 / pt.rate
    if pt.mode is AccessMode.RTS_CTS:
        return lead + d.t_rts + d.t_cts + d.t_ack + pt.payload + d.difs + 3 * d.sifs
    return lead + d.t_ack + pt.payload + d.difs + d.sifs


def _slots_per_frame(pt, d):
    """Channel slots per delivered frame, payload included.

    The busy-run composition reduces to spent - n * idle, where spent is
    one service plus n collision periods.
    """
    n = mean_collisions(pt.rate)
    spent = service_time(pt, d) + n * collision_period(pt, d)
    idle = 1.0 / pt.rate + d.difs
    return spent - n * idle


def throughput(pt: ModelPoint, d: SlotDurations = DEFAULT_DURATIONS) -> float:
    """Fraction of channel time carrying payload at this operating point."""
    pt.validate()
    return pt.payload / _slots_per_frame(pt, d)


def overhead(pt: ModelPoint, d: SlotDurations = DEFAULT_DURATIONS) -> float:
    """Non-payload slots charged per delivered frame.

    Defined so that throughput == payload / (payload + overhead).
    """
    pt.validate()
    return _slots_per_frame(pt, d) - pt.payload


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
    pt.validate()
    return access_delay(pt.rate, mean_collisions(pt.rate), collision_cost(pt, d))


def evaluate(pt: ModelPoint, d: SlotDurations = DEFAULT_DURATIONS) -> FluidMetrics:
    """All closed-form metrics for one operating point."""
    pt.validate()
    return FluidMetrics(
        mean_collisions=mean_collisions(pt.rate),
        collision_period=collision_period(pt, d),
        service_time=service_time(pt, d),
        idle_gap=1.0 / pt.rate + d.difs,
        throughput=throughput(pt, d),
        access_delay=mean_access_delay(pt, d),
        overhead=overhead(pt, d),
    )
