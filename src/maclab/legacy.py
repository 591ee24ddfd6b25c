"""Self-consistent attempt rate of standard exponential-backoff DCF.

The contention process fixes itself: the attempt rate determines the
collision probability, collisions push stations up the window ladder
which stretches the mean backoff, and the mean backoff determines the
attempt rate. The unique fixed point of that loop is the operating
rate of a legacy population, and it is what every tuned-vs-legacy
comparison uses as its baseline.

The fixed point is found by bisection on a bracket that always holds
it. The mean backoff is at least cw_min/2 and does not fall as the
rate rises, so m / mean_backoff(r) is at most 2m/cw_min and does not
rise with r: it lies above r near 0 and at or below r at 2m/cw_min.
"""

import math
from itertools import accumulate

from ._record import Record
from .errors import ValidationError
from .model import bisect, collision_probability


def ladder(first: int, cap: int, stages: int) -> list:
    """`first` doubled once per stage for stages 0 to `stages`, capped at `cap`.
    The list ends at the first stage at the cap; every later stage shares it."""
    rungs = [min(first, cap)]
    while len(rungs) <= stages and rungs[-1] < cap:
        rungs.append(min(first << len(rungs), cap))
    return rungs


class DcfParams(Record):
    __slots__ = ("cw_min", "cw_max", "retry_limit")

    def __init__(self, cw_min: int = 32, cw_max: int = 1024, retry_limit: int = 7):
        if not all(type(v) is int and v >= 1 for v in (cw_min, cw_max, retry_limit)):
            raise ValidationError("window sizes and retry limit must be positive integers")
        if retry_limit > 255:   # 802.11's retry-limit range; a solve loops once per stage
            raise ValidationError(f"retry limit must be at most 255, got {retry_limit}")
        if cw_min > cw_max:
            raise ValidationError("cw_min must not exceed cw_max")
        # the ladder must actually reach cw_max by doubling
        if cw_min << (len(ladder(cw_min, cw_max, retry_limit)) - 1) != cw_max:
            raise ValidationError(
                "cw_max must be a power-of-two multiple of cw_min reachable "
                f"within {retry_limit} doublings")
        self._fill(cw_min, cw_max, retry_limit)


def _waits(params: DcfParams):
    """Backoff a frame succeeding at each stage has waited: half of every
    window on the way there."""
    windows = ladder(params.cw_min, params.cw_max, params.retry_limit)
    windows += windows[-1:] * (params.retry_limit + 1 - len(windows))
    return list(accumulate(w / 2.0 for w in windows))


def _mean_wait(p, waits):
    """mean_backoff at collision probability p, from the stage waits."""
    backoff = 0.0
    weight_sum = 0.0
    for i, wait in enumerate(waits):
        weight = p ** i
        backoff += weight * wait
        weight_sum += weight
    return backoff / weight_sum


def mean_backoff(rate: float, params: DcfParams) -> float:
    """Mean total backoff a frame accumulates before success or drop.

    A frame succeeding at stage i has waited, in expectation, half of
    every window on the way there. Stage probabilities follow the
    per-attempt collision probability implied by the current rate, and
    the ladder truncates at the retry limit where the frame is dropped.
    The stage weights are left unnormalized: p**i, whose common factor
    (1 - p) cancels in the ratio and would reach 0 where p rounds to 1.
    """
    return _mean_wait(collision_probability(rate), _waits(params))


def legacy_attempt_rate(m: int, params: DcfParams = DcfParams()) -> float:
    """Fixed-point attempt rate of m saturated legacy stations.

    The last float r with m / mean_backoff(r) > r, bisected on
    (0, 2m/cw_min) (see the module docstring). The stage waits are
    built once per solve. DomainError once m/cw_min passes about 710,
    where e^r overflows at the bracket's midpoint.
    """
    if not 2 <= m < math.inf:
        raise ValidationError(
            f"need a finite count of at least 2 contending stations, got {m}")
    waits = _waits(params)
    return bisect(lambda r: m / _mean_wait(collision_probability(r), waits) > r,
                  0.0, 2.0 * m / params.cw_min)
