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
  (dominant_pole_distance).
"""

import math
from bisect import bisect_left

from ._record import Record
from .errors import DomainError, ValidationError
from .model import (ModelPoint, access_delay, bisect, collision_cost,
                    mean_collisions, overhead)
from .timing import AccessMode, SlotDurations, DEFAULT_DURATIONS


class RobustnessBounds(Record):
    __slots__ = ("max_ratio", "min_ratio", "delay_tolerance")

    def __init__(self, max_ratio: float, min_ratio: float, delay_tolerance: float):
        self._fill(max_ratio, min_ratio, delay_tolerance)


def dominant_pole_distance(pt: ModelPoint,
                           d: SlotDurations = DEFAULT_DURATIONS) -> float:
    """Distance of the dominant real pole from the imaginary axis.

    The characteristic is A*exp(s/r) - B*exp(-c*s) with
    A = 1 - exp(-r) > B = A - r*exp(-r) > 0 and c the collision cost,
    so its only real root is s* = -ln(A/B) / (1/r + c). Larger distance
    means a faster-decaying, more stable delay response. DomainError
    below about r = 2e-9, where B cancels to zero in double precision.
    """
    r = pt.rate
    e = math.exp(-r)
    a = 1.0 - e
    b = a - r * e
    if b <= 0.0:
        raise DomainError(f"attempt rate {r} is too small to resolve the pole distance")
    return math.log(a / b) / (1.0 / r + collision_cost(pt.mode, pt.payload, d))


def optimal_payload(rate: float, d: SlotDurations = DEFAULT_DURATIONS) -> float:
    """Payload (slots) equating mean collision cost and mean idle cost.

    Basic access only; the handshake mode has no payload knob in its
    overhead. Returns the real-valued payload; round at the protocol
    boundary if whole slots are needed. DomainError below about
    r = 1.6e-16, where the mean collision count rounds to zero.
    """
    n = mean_collisions(rate)
    if n <= 0.0:
        raise DomainError(f"attempt rate {rate} is too small to resolve the balance payload")
    return d.eifs + (1.0 + 1.0 / n) / rate + (d.difs + d.sifs) / n


_RATE_LO, _RATE_HI = 0.01, 2.0


def minimize_overhead(mode: AccessMode, payload: float | None = None,
                      d: SlotDurations = DEFAULT_DURATIONS) -> tuple:
    """Attempt rate in [0.01, 2] minimizing per-frame overhead, and that
    overhead, as (rate, overhead).

    For basic access with no payload given, the balance payload is
    substituted at every rate, so the minimum is the joint optimum. In
    handshake mode the payload cancels out of the overhead.

    The overhead is 1/r + n(r)·c' plus a constant, with n(r) the mean
    collision count and c' > 0 the collision cost less DIFS (EIFS
    exceeds DIFS). With h(r) = (r - 1)·expm1(r) + r = r²·n'(r), r² times
    its slope is h(r)·c' - 1; h(0) = 0 and h'(r) = r·e^r > 0, so that
    changes sign once on r > 0. At the balance payload the overhead is
    (n(r) + 2)/r + C·n(r) plus a constant, C = 2·EIFS - DIFS > 0, and r³
    times its slope is G(r) = h(r)·(1 + C·r) - (expm1(r) + r). G(0) = 0,
    G'(0) = -2 and G''(r) = r·e^r·(1 + 3C + C·r) > 0, so G too changes
    sign once on r > 0. The rate returned is the last float at which the
    slope is negative, bisected to adjacent floats, or an end of the
    interval if the sign change lies outside it.
    """
    joint = mode is AccessMode.BASIC and payload is None
    c = 2.0 * d.eifs - d.difs if joint else collision_cost(mode, payload, d) - d.difs

    def falling(r):
        e = math.expm1(r)
        h = (r - 1.0) * e + r
        return h * (1.0 + c * r) < e + r if joint else h * c < 1.0

    if not falling(_RATE_LO):
        rate = _RATE_LO
    elif falling(_RATE_HI):
        rate = _RATE_HI
    else:
        rate = bisect(falling, _RATE_LO, _RATE_HI)
    if payload is None:
        payload = optimal_payload(rate, d) if mode is AccessMode.BASIC else 34.0
    return rate, overhead(ModelPoint(rate, payload, mode), d)


_RATIO_GRID = 2000          # log-spaced intervals per side
_RATIO_TOL = 1e-4


def tolerable_ratio_bounds(pt: ModelPoint, delay_tolerance: float = 0.10,
                           d: SlotDurations = DEFAULT_DURATIONS) -> RobustnessBounds:
    """Tolerable range of estimate-to-actual node-count ratio.

    Overestimating the node population by a factor k scales every
    backoff window up by k, so the network really runs at rate/k. The
    bounds are the outermost k on each side of 1 at which the access
    delay still sits within `delay_tolerance` of its nominal value
    (two-sided), searched on [0.01, 100] on a log grid plus bisection
    on the boundary crossing. Payload is held fixed.

    The delay is U-shaped in the rate. Wherever it dips below its
    nominal value by more than the tolerance on one side of 1, the
    admissible set is not a single interval: it breaks at the first
    crossing and resumes further out. In handshake mode at payload 34
    that happens below 1 at rate 0.1 and above 1 at rates 0.4 to 1.0.
    The outermost crossing is kept, not the edge nearest 1, because it
    is the reading that reproduces the published ratio tables (Tables 2
    and 3); the nearest edge would give max ratios 1.40, 1.18 and 1.12
    at rates 0.4, 0.5 and 0.7 against the published 3.0, 4.5 and 9.6.

    The outermost admissible grid point is found without scanning the
    grid. With n = (e^r - 1 - r)/r collisions of 1/r + c slots each
    and a last lead-in of 1/r, the delay is

        D(r) = (e^r - 1)/r^2 + c (e^r - 1 - r)/r
             = sum_{j>=1} r^(j-2)/j! + c sum_{j>=2} r^(j-1)/j!,

    a sum of 1/r, a constant and positive multiples of r^m for m >= 1,
    so strictly convex on r > 0 for every collision cost c >= 0. Its
    sublevel set {r : D(r) <= (1 + tol) D(rate)} is therefore an
    interval around `rate`, and since each side's grid moves r = rate/k
    monotonically away from `rate`, the grid points within the upper
    tolerance form an index prefix that starts at k = 1. No point past
    the prefix is admissible, so the outermost admissible point is the
    prefix's last point if that one is admissible (the delay there lies
    above nominal), and otherwise the first admissible point walking
    back towards k = 1 (the prefix ends inside a dip). The prefix's end
    is found by bisection on the grid index.
    """
    if not 0.0 <= delay_tolerance < 1.0:
        raise ValidationError(
            f"delay tolerance must be in [0, 1), got {delay_tolerance}")
    if delay_tolerance == 0.0:
        return RobustnessBounds(1.0, 1.0, 0.0)

    cost = collision_cost(pt.mode, pt.payload, d)

    def delay(rate):
        # scalar form: the wide ratio scan produces rates the point cap rejects
        return access_delay(rate, mean_collisions(rate), cost)

    base = delay(pt.rate)

    def excess(k):
        return (delay(pt.rate / k) - base) / base

    def ok(k):
        return abs(excess(k)) <= delay_tolerance

    def outermost(point):
        """Outermost admissible k among point(0) = 1 .. point(_RATIO_GRID):
        the end of the prefix within the upper tolerance, or the first
        admissible point walking back from it (k = 1 always is)."""
        end = bisect_left(range(_RATIO_GRID + 1), True,
                          key=lambda i: excess(point(i)) > delay_tolerance) - 1
        i = next(i for i in range(end, -1, -1) if ok(point(i)))
        return point(i) if i == _RATIO_GRID else bisect(
            ok, point(i), point(i + 1), _RATIO_TOL)

    return RobustnessBounds(
        max_ratio=outermost(lambda i: 10 ** (2.0 * i / _RATIO_GRID)),
        min_ratio=outermost(lambda i: 10 ** (-2.0 + 2.0 * (_RATIO_GRID - i) / _RATIO_GRID)),
        delay_tolerance=delay_tolerance)


# published operating-point tables (delay and payload in slots,
# throughput in percent, ratio bounds dimensionless)
TABLE2_REFERENCE = {
    0.1: {"access_delay": 12.06, "max_ratio": 1.25, "min_ratio": 0.83},
    0.4: {"access_delay": 9.09, "max_ratio": 3.0, "min_ratio": 0.85},
    0.5: {"access_delay": 10.39, "max_ratio": 4.5, "min_ratio": 0.89},
    0.7: {"access_delay": 13.81, "max_ratio": 9.6, "min_ratio": 0.92},
    1.0: {"access_delay": 20.08, "max_ratio": 13.8, "min_ratio": 0.97},
}
TABLE3_REFERENCE = {
    0.31: {"payload": 58, "access_delay": 16.84, "throughput_pct": 70.34,
           "max_ratio": 4.81, "min_ratio": 0.88},
    0.45: {"payload": 40, "access_delay": 18.11, "throughput_pct": 61.10,
           "max_ratio": 7.90, "min_ratio": 0.90},
    0.55: {"payload": 34, "access_delay": 19.82, "throughput_pct": 55.76,
           "max_ratio": 11.00, "min_ratio": 0.91},
    0.6: {"payload": 32, "access_delay": 20.87, "throughput_pct": 53.41,
          "max_ratio": 12.50, "min_ratio": 0.92},
    0.7: {"payload": 29, "access_delay": 23.49, "throughput_pct": 48.89,
          "max_ratio": 16.80, "min_ratio": 0.92},
}


def recommended_rate(mode: AccessMode) -> tuple:
    """Adopted operating point per mode: (rate, payload or None)."""
    if mode is AccessMode.RTS_CTS:
        return 0.7, None
    return 0.55, 34.0
