"""Self-consistent attempt rate of standard exponential-backoff DCF.

The contention process fixes itself: the attempt rate determines the
collision probability, collisions push stations up the window ladder
which stretches the mean backoff, and the mean backoff determines the
attempt rate. The unique fixed point of that loop is the operating
rate of a legacy population, and it is what every tuned-vs-legacy
comparison uses as its baseline.
"""

from dataclasses import dataclass

from .errors import AnalysisError, ValidationError
from .model import collision_probability

MAX_ITER = 10_000
TOL = 1e-8
DAMPING = 0.5


@dataclass(frozen=True)
class DcfParams:
    cw_min: int = 32
    cw_max: int = 1024
    retry_limit: int = 7

    def validate(self):
        if self.cw_min < 1 or self.cw_max < 1 or self.retry_limit < 1:
            raise ValidationError("window sizes and retry limit must be positive")
        if self.cw_min > self.cw_max:
            raise ValidationError("cw_min must not exceed cw_max")
        # the ladder must actually reach cw_max by doubling
        w, doublings = self.cw_min, 0
        while w < self.cw_max and doublings <= self.retry_limit:
            w *= 2
            doublings += 1
        if w != self.cw_max:
            raise ValidationError(
                "cw_max must be a power-of-two multiple of cw_min reachable "
                f"within {self.retry_limit} doublings")
        return self


def stage_windows(params: DcfParams):
    return [min(2 ** i * params.cw_min, params.cw_max)
            for i in range(params.retry_limit + 1)]


def mean_backoff(rate: float, params: DcfParams) -> float:
    """Mean total backoff a frame accumulates before success or drop.

    A frame succeeding at stage i has waited, in expectation, half of
    every window on the way there. Stage probabilities follow the
    per-attempt collision probability implied by the current rate, and
    the ladder truncates at the retry limit where the frame is dropped.
    """
    p = collision_probability(rate)
    windows = stage_windows(params)
    cumulative = 0.0
    weight_sum = 0.0
    backoff = 0.0
    for i, w in enumerate(windows):
        cumulative += w / 2.0
        weight = (1.0 - p) * p ** i
        backoff += weight * cumulative
        weight_sum += weight
    return backoff / weight_sum


def legacy_attempt_rate(m: int, params: DcfParams = DcfParams()) -> float:
    """Fixed-point attempt rate of m saturated legacy stations."""
    params.validate()
    if m < 2:
        raise ValidationError(f"need at least 2 contending stations, got {m}")
    rate = 2.0 * m / (params.cw_min + 1.0)   # collision-free starting guess
    for _ in range(MAX_ITER):
        proposed = m / mean_backoff(rate, params)
        new_rate = (1.0 - DAMPING) * rate + DAMPING * proposed
        if abs(new_rate - rate) < TOL:
            return new_rate
        rate = new_rate
    raise AnalysisError(
        f"attempt-rate iteration did not converge for m={m}", last_iterate=rate)
