"""Operating-point selection for backoff-tuned contention.

Four questions get answered here, all on top of the closed forms in
`model`:

* which payload balances collision cost against idle cost at a given
  attempt rate (optimal_payload);
* which attempt rate minimizes per-frame overhead (minimize_overhead);
* how far the active-node estimate can err before the access delay
  moves more than a tolerance (tolerable_ratio_bounds);
* how stable the delay response is, measured as the distance of the
  dominant real pole of its transform from the imaginary axis
  (delay_characteristic / dominant_pole_distance).
"""

import math
from dataclasses import dataclass

from .errors import DomainError, ValidationError
from .model import (ModelPoint, access_delay, collision_cost, mean_collisions,
                    overhead)
from .timing import AccessMode, SlotDurations, DEFAULT_DURATIONS


@dataclass(frozen=True)
class RobustnessBounds:
    max_ratio: float
    min_ratio: float
    delay_tolerance: float


def delay_characteristic(pt: ModelPoint, s: float,
                         d: SlotDurations = DEFAULT_DURATIONS) -> float:
    """Denominator of the access-delay transform at real s.

    Roots of this function are the poles of the delay response. At s=0
    the value is rate*exp(-rate) > 0, and the function increases
    strictly in s, so it has exactly one real root, on the negative
    axis (see dominant_pole_distance).
    """
    pt.validate()
    r = pt.rate
    e = math.exp(-r)
    cost = collision_cost(pt, d)
    return (1.0 - e) * math.exp(s / r) - (1.0 - e - r * e) * math.exp(-cost * s)


def dominant_pole_distance(pt: ModelPoint,
                           d: SlotDurations = DEFAULT_DURATIONS) -> float:
    """Distance of the dominant real pole from the imaginary axis.

    The characteristic is A*exp(s/r) - B*exp(-c*s) with
    A = 1 - exp(-r) > B = A - r*exp(-r) > 0 and c the collision cost,
    so its only real root is s* = -ln(A/B) / (1/r + c). Larger distance
    means a faster-decaying, more stable delay response. DomainError
    below about r = 2e-9, where B cancels to zero in double precision.
    """
    pt.validate()
    r = pt.rate
    e = math.exp(-r)
    a = 1.0 - e
    b = a - r * e
    if b <= 0.0:
        raise DomainError(f"attempt rate {r} is too small to resolve the pole distance")
    return math.log(a / b) / (1.0 / r + collision_cost(pt, d))


def optimal_payload(rate: float, d: SlotDurations = DEFAULT_DURATIONS) -> float:
    """Payload (slots) equating mean collision cost and mean idle cost.

    Basic access only; the handshake mode has no payload knob in its
    overhead. Returns the real-valued payload; round at the protocol
    boundary if whole slots are needed.
    """
    n = mean_collisions(rate)
    return d.eifs + (1.0 + 1.0 / n) / rate + (d.difs + d.sifs) / n


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_RATE_LO, _RATE_HI = 0.01, 2.0
_RATE_TOL = 1e-5


def minimize_overhead(mode: AccessMode, payload: float | None = None,
                      d: SlotDurations = DEFAULT_DURATIONS) -> tuple:
    """Golden-section search for the overhead-minimizing attempt rate.

    For basic access with no payload given, the balance payload is
    substituted at every rate so the search runs over the joint
    optimum. For handshake mode the payload cancels out of the
    overhead entirely. Returns (rate, overhead at that rate).
    """
    def cost(rate):
        if mode is AccessMode.BASIC:
            x = payload if payload is not None else optimal_payload(rate, d)
        else:
            x = payload if payload is not None else 34.0   # cancels in overhead
        return overhead(ModelPoint(rate, x, mode), d)

    a, b = _RATE_LO, _RATE_HI
    c1 = b - _GOLDEN * (b - a)
    c2 = a + _GOLDEN * (b - a)
    f1, f2 = cost(c1), cost(c2)
    while b - a > _RATE_TOL:
        if f1 < f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - _GOLDEN * (b - a)
            f1 = cost(c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + _GOLDEN * (b - a)
            f2 = cost(c2)
    rate = 0.5 * (a + b)
    return rate, cost(rate)


_RATIO_LO, _RATIO_HI = 1e-2, 1e2
_RATIO_GRID = 2000          # log-spaced intervals per side
_RATIO_TOL = 1e-4


def tolerable_ratio_bounds(pt: ModelPoint, delay_tolerance: float = 0.10,
                           d: SlotDurations = DEFAULT_DURATIONS) -> RobustnessBounds:
    """Tolerable range of estimate-to-actual node-count ratio.

    Overestimating the node population by a factor k scales every
    backoff window up by k, so the network really runs at rate/k. The
    bounds are the outermost k on each side of 1 at which the access
    delay still sits within `delay_tolerance` of its nominal value
    (two-sided), searched on [0.01, 100] by log-grid scan plus
    bisection on the boundary crossing. Payload is held fixed.

    The delay is U-shaped in the rate. Wherever it dips below its
    nominal value by more than the tolerance on one side of 1, the
    admissible set is not a single interval: it breaks at the first
    crossing and resumes further out. In handshake mode at payload 34
    that happens below 1 at rate 0.1 and above 1 at rates 0.4 to 1.0.
    The outermost crossing is kept, not the edge nearest 1, because it
    is the reading that reproduces the published ratio tables (Tables 2
    and 3); the nearest edge would give max ratios 1.40, 1.18 and 1.12
    at rates 0.4, 0.5 and 0.7 against the published 3.0, 4.5 and 9.6.
    """
    pt.validate()
    if not 0.0 <= delay_tolerance < 1.0:
        raise ValidationError(
            f"delay tolerance must be in [0, 1), got {delay_tolerance}")
    if delay_tolerance == 0.0:
        return RobustnessBounds(1.0, 1.0, 0.0)

    cost = collision_cost(pt, d)

    def delay(rate):
        # scalar form: the wide ratio scan produces rates the point cap rejects
        return access_delay(rate, mean_collisions(rate), cost)

    base = delay(pt.rate)

    def ok(k):
        return abs(delay(pt.rate / k) - base) / base <= delay_tolerance

    def bisect(k_ok, k_bad):
        while abs(k_bad - k_ok) > _RATIO_TOL:
            mid = 0.5 * (k_ok + k_bad)
            if ok(mid):
                k_ok = mid
            else:
                k_bad = mid
        return k_ok

    # upward: largest admissible k in [1, 100]
    up = [10 ** (2.0 * i / _RATIO_GRID) for i in range(_RATIO_GRID + 1)]
    last_ok, first_bad_after = 1.0, None
    for i, k in enumerate(up):
        if ok(k):
            last_ok = k
            first_bad_after = up[i + 1] if i + 1 <= _RATIO_GRID else None
    max_ratio = _RATIO_HI if first_bad_after is None else bisect(last_ok, first_bad_after)

    # downward: smallest admissible k in [0.01, 1]
    down = [10 ** (-2.0 + 2.0 * i / _RATIO_GRID) for i in range(_RATIO_GRID + 1)]
    first_ok, last_bad_before = 1.0, None
    for i, k in enumerate(down):
        if ok(k):
            first_ok = k
            last_bad_before = down[i - 1] if i > 0 else None
            break
    min_ratio = _RATIO_LO if last_bad_before is None else bisect(first_ok, last_bad_before)

    return RobustnessBounds(max_ratio=max_ratio, min_ratio=min_ratio,
                            delay_tolerance=delay_tolerance)


def recommended_rate(mode: AccessMode) -> tuple:
    """Adopted operating point per mode: (rate, payload or None)."""
    if mode is AccessMode.RTS_CTS:
        return 0.7, None
    return 0.55, 34.0
