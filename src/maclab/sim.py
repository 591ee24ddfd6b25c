"""Slotted discrete-event simulator of a single contention domain.

Stations share one channel and one synchronous slot clock. Idle slots
decrement every active backoff counter; when one or more counters reach
zero a transmission event occupies the channel for its wall duration
(fractional slots allowed), everyone defers the required interframe
gap, and countdown resumes. Exactly one transmitter means success,
otherwise every transmitter climbs the window ladder or drops its frame
at the retry limit.

The initial window comes from the configured policy: the standard
ladder, an adaptively tuned ladder targeting a fixed attempt rate, or
a fixed window. All randomness flows from one named generator (PCG64)
seeded per run, so a (config, seed) pair is bit-reproducible.

Measured quantities mirror the closed-form model: the access delay of
a frame service is the time from the start of network contention for
it (end of the previous successful exchange plus its trailing DIFS,
or the winner's backoff start when the channel had gone quiet) to the
start of the winning transmission, and slot utilization counts frame
transmission time only, with interframe gaps and deferrals left in
the denominator.
"""

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import abtmac as abtmac_mod
from .abtmac import AbtmacParams
from .errors import ValidationError
from .legacy import DcfParams
from .timing import AccessMode, TimingParams, derive_slot_durations, DEFAULT_TIMING

RNG_ALGORITHM = "pcg64"
MIN_DURATION = 10_000
WARMUP_FRACTION = 0.05


# ---------------------------------------------------------------- policies

@dataclass(frozen=True)
class LegacyDcf:
    params: DcfParams = field(default_factory=DcfParams)


@dataclass(frozen=True)
class Abtmac:
    params: AbtmacParams
    m_source: str = "oracle"        # "oracle" | "measured"
    update_interval: int = 1000     # successes between re-estimates (measured)


@dataclass(frozen=True)
class FixedWindow:
    cw_min: int
    cw_max: int = 1024
    retry_limit: int = 7


@dataclass(frozen=True)
class FixedPayload:
    slots: float = 34.0


@dataclass(frozen=True)
class GeometricPayload:
    mean_slots: float = 34.0


@dataclass(frozen=True)
class PoissonTraffic:
    rate: float                     # frame arrivals per slot per station


SATURATED = "saturated"


@dataclass(frozen=True)
class SimConfig:
    station_count: int
    mode: AccessMode = AccessMode.BASIC
    policy: object = field(default_factory=LegacyDcf)
    payload: object = field(default_factory=FixedPayload)
    traffic: object = SATURATED
    duration: int = 1_000_000
    seed: int = 1
    estimation_error_factor: float = 1.0
    timing: TimingParams = field(default_factory=lambda: DEFAULT_TIMING)

    def validate(self):
        if self.station_count < 1:
            raise ValidationError("need at least one station")
        if self.duration < MIN_DURATION:
            raise ValidationError(
                f"duration must be >= {MIN_DURATION} slots for metric validity")
        if self.estimation_error_factor <= 0:
            raise ValidationError("estimation error factor must be positive")
        if not isinstance(self.policy, (LegacyDcf, Abtmac, FixedWindow)):
            raise ValidationError(f"unknown policy {self.policy!r}")
        if isinstance(self.policy, Abtmac):
            self.policy.params.validate()
            if self.policy.m_source not in ("oracle", "measured"):
                raise ValidationError(
                    f"unknown node-count source {self.policy.m_source!r}")
            if self.policy.update_interval < 1:
                raise ValidationError("update interval must be >= 1")
        if isinstance(self.policy, LegacyDcf):
            self.policy.params.validate()
        if isinstance(self.policy, FixedWindow):
            if self.policy.cw_min < 0 or self.policy.cw_max < self.policy.cw_min:
                raise ValidationError("fixed window bounds are inconsistent")
        if self.estimation_error_factor != 1.0 and not (
                isinstance(self.policy, Abtmac) and self.policy.m_source == "oracle"):
            raise ValidationError(
                "estimation error factor applies only to an oracle-sourced Abtmac policy")
        if isinstance(self.payload, FixedPayload):
            if self.payload.slots <= 0:
                raise ValidationError("payload must be positive")
        elif isinstance(self.payload, GeometricPayload):
            if self.payload.mean_slots < 1:
                raise ValidationError("geometric payload mean must be >= 1 slot")
        else:
            raise ValidationError(f"unknown payload model {self.payload!r}")
        if self.traffic != SATURATED:
            if not isinstance(self.traffic, PoissonTraffic) or self.traffic.rate <= 0:
                raise ValidationError(f"unknown traffic model {self.traffic!r}")
        self.timing.validate()
        return self


@dataclass(frozen=True)
class SimMetrics:
    normalized_throughput: float
    throughput_bps: float
    mean_access_delay: float
    mean_collisions_per_service: float
    collision_probability: float
    slot_utilization: float
    attempt_rate: float         # station transmission attempts per idle slot
    jain_index: float
    drops: int
    successes: int
    collisions: int
    per_station_success: tuple
    elapsed_slots: float
    idle_slots: int
    busy_slots: float           # wall time of transmission spans incl. gaps inside
    defer_slots: float          # DIFS/EIFS deferral time
    frame_slots: float          # frame airtime only, the slot-utilization numerator
    final_cw_min: int
    m_estimate: int | None
    rng_algorithm: str = RNG_ALGORITHM


# ---------------------------------------------------------------- engine

def _policy_ladder_params(policy, m_true, error_factor):
    """(cw_min, cw_max, retry_limit, m_estimate or None) at run start."""
    if isinstance(policy, LegacyDcf):
        return policy.params.cw_min, policy.params.cw_max, policy.params.retry_limit, None
    if isinstance(policy, FixedWindow):
        return policy.cw_min, policy.cw_max, policy.retry_limit, None
    if policy.m_source == "oracle":
        m_est = max(1, round(error_factor * m_true))
    else:
        m_est = m_true          # measured mode warm-starts at the true count
    return (abtmac_mod.cw_min(policy.params, m_est), policy.params.cw_max,
            policy.params.retry_limit, m_est)


class _Run:
    def __init__(self, config: SimConfig, trace=None):
        config.validate()
        self.cfg = config
        self.d = derive_slot_durations(config.timing)
        self.trace = trace
        m = config.station_count
        self.rng = np.random.Generator(np.random.PCG64(config.seed))

        cw0, cw_max, retry, m_est = _policy_ladder_params(
            config.policy, m, config.estimation_error_factor)
        self.cw_min_cur = cw0
        self.cw_max = cw_max
        self.retry_limit = retry
        self.m_estimate = m_est

        self.stage = np.zeros(m, dtype=np.int64)
        self.counters = np.zeros(m, dtype=np.int64)
        self.payloads = np.zeros(m, dtype=np.float64)
        self.backoff_start = np.zeros(m, dtype=np.float64)
        self.saturated = config.traffic == SATURATED
        self.active = np.ones(m, dtype=bool) if self.saturated else np.zeros(m, dtype=bool)
        if not self.saturated:
            rate = config.traffic.rate
            self.queue = np.zeros(m, dtype=np.int64)
            self.next_arrival = self.rng.exponential(1.0 / rate, size=m)
        self._draw_payload(np.arange(m))
        self._draw_counters(np.arange(m))

        self.clock = 0.0
        self.idle_slots = 0
        self.busy_slots = 0.0
        self.defer_slots = 0.0
        self.frame_slots = 0.0
        self.successes = 0
        self.collisions = 0
        self.attempts = 0
        self.drops = 0
        self.delivered = 0.0
        self.delay_sum = 0.0
        self.delay_count = 0
        self.per_station = np.zeros(m, dtype=np.int64)
        self.contention_start = 0.0
        # measured-mode estimation bookkeeping
        self.est_succ = 0
        self.est_coll = 0

    # -- randomness -------------------------------------------------------

    def _window(self, stages):
        size = (self.cw_min_cur + 1) * np.power(2, stages)
        return np.minimum(size, self.cw_max + 1) - 1

    def _draw_counters(self, idx):
        if len(idx) == 0:
            return
        w = self._window(self.stage[idx])
        self.counters[idx] = self.rng.integers(0, w + 1)

    def _draw_payload(self, idx):
        if len(idx) == 0:
            return
        p = self.cfg.payload
        if isinstance(p, FixedPayload):
            self.payloads[idx] = p.slots
        else:
            self.payloads[idx] = self.rng.geometric(1.0 / p.mean_slots, size=len(idx))

    # -- traffic ----------------------------------------------------------

    def _roll_arrivals(self):
        due = self.next_arrival <= self.clock
        while np.any(due):
            idx = np.nonzero(due)[0]
            self.queue[idx] += 1
            self.next_arrival[idx] += self.rng.exponential(
                1.0 / self.cfg.traffic.rate, size=len(idx))
            due = self.next_arrival <= self.clock
        fresh = (~self.active) & (self.queue > 0)
        if np.any(fresh):
            idx = np.nonzero(fresh)[0]
            self.active[idx] = True
            self.backoff_start[idx] = self.clock
            self._draw_payload(idx)
            self._draw_counters(idx)

    def _consume_frame(self, idx):
        """A frame left station idx (delivered or dropped): set up the next."""
        self.stage[idx] = 0
        self.backoff_start[idx] = self.clock
        if self.saturated:
            self._draw_payload(np.array([idx]))
            self._draw_counters(np.array([idx]))
            return
        self.queue[idx] -= 1
        if self.queue[idx] > 0:
            self._draw_payload(np.array([idx]))
            self._draw_counters(np.array([idx]))
        else:
            self.active[idx] = False

    # -- adaptation -------------------------------------------------------

    def _maybe_reestimate(self):
        pol = self.cfg.policy
        if not (isinstance(pol, Abtmac) and pol.m_source == "measured"):
            return
        if self.est_succ < pol.update_interval:
            return
        measured = self.est_coll / self.est_succ
        self.m_estimate = abtmac_mod.estimate_active_nodes(measured, pol.params.k_prime)
        self.cw_min_cur = abtmac_mod.cw_min(pol.params, self.m_estimate)
        self.est_succ = 0
        self.est_coll = 0

    # -- event handling ---------------------------------------------------

    def _success(self, idx):
        d = self.d
        payload = self.payloads[idx]
        if self.cfg.mode is AccessMode.RTS_CTS:
            wall = d.t_rts + d.sifs + d.t_cts + d.sifs + payload + d.sifs + d.t_ack
            frames = d.t_rts + d.t_cts + payload + d.t_ack
        else:
            wall = payload + d.sifs + d.t_ack
            frames = payload + d.t_ack
        if self.trace is not None:
            self.trace({"t": self.clock, "kind": "success",
                        "station": int(idx), "span": float(wall)})
        # contention for this service starts when the channel last cleared
        # or when the winner's frame began its backoff, whichever is later
        # (the channel can sit idle with nothing queued under light load)
        self.delay_sum += self.clock - max(self.contention_start,
                                           self.backoff_start[idx])
        self.delay_count += 1
        self.successes += 1
        self.est_succ += 1
        self.per_station[idx] += 1
        self.delivered += payload
        self.busy_slots += wall
        self.frame_slots += frames
        self.clock += wall + d.difs
        self.defer_slots += d.difs
        self.contention_start = self.clock
        self._consume_frame(idx)
        self._maybe_reestimate()

    def _collision(self, idx):
        d = self.d
        if self.cfg.mode is AccessMode.RTS_CTS:
            span = d.t_rts
        else:
            span = float(self.payloads[idx].max())
        if self.trace is not None:
            self.trace({"t": self.clock, "kind": "collision",
                        "stations": [int(i) for i in idx], "span": float(span)})
        self.collisions += 1
        self.est_coll += 1
        self.busy_slots += span
        self.frame_slots += span
        self.clock += span + d.eifs
        self.defer_slots += d.eifs

        dropping = idx[self.stage[idx] >= self.retry_limit]
        climbing = idx[self.stage[idx] < self.retry_limit]
        self.stage[climbing] += 1
        self._draw_counters(climbing)
        for i in dropping:
            self.drops += 1
            if self.trace is not None:
                self.trace({"t": self.clock, "kind": "drop", "station": int(i)})
            self._consume_frame(int(i))
        # stations that dropped in saturated mode already drew a fresh
        # counter in _consume_frame; nothing else to redraw here

    # -- main loop --------------------------------------------------------

    def run(self):
        cfg = self.cfg
        horizon = float(cfg.duration)
        warm_clock = WARMUP_FRACTION * horizon
        start = self._snapshot()    # all zeros; kept if one event crosses the horizon
        snap = None

        while self.clock < horizon:
            if snap is None and self.clock >= warm_clock:
                snap = self._snapshot()
            if not self.saturated:
                self._roll_arrivals()
            if not np.any(self.active):
                # channel is empty; jump to the next arrival
                gap = max(1, math.ceil(self.next_arrival.min() - self.clock))
                self.idle_slots += gap
                self.clock += gap
                continue
            gap = int(self.counters[self.active].min())
            if not self.saturated:
                idle_pool = ~self.active
                if np.any(idle_pool):
                    until = math.ceil(self.next_arrival[idle_pool].min() - self.clock)
                    if 0 < until <= gap:
                        # an arrival may activate a station before the
                        # next counter expiry; advance only that far
                        self.idle_slots += until
                        self.clock += until
                        self.counters[self.active] -= until
                        continue
            self.idle_slots += gap
            self.clock += gap
            self.counters[self.active] -= gap
            ready = np.nonzero(self.active & (self.counters == 0))[0]
            self.attempts += len(ready)
            if len(ready) == 1:
                self._success(int(ready[0]))
            else:
                self._collision(ready)

        return self._metrics(start if snap is None else snap)

    def _snapshot(self):
        return {
            "clock": self.clock, "idle": self.idle_slots, "busy": self.busy_slots,
            "defer": self.defer_slots, "frames": self.frame_slots,
            "succ": self.successes, "coll": self.collisions,
            "attempts": self.attempts, "drops": self.drops,
            "delivered": self.delivered, "delay_sum": self.delay_sum,
            "delay_count": self.delay_count, "per_station": self.per_station.copy(),
        }

    def _metrics(self, snap):
        elapsed = self.clock - snap["clock"]
        idle = self.idle_slots - snap["idle"]
        succ = self.successes - snap["succ"]
        coll = self.collisions - snap["coll"]
        attempts = self.attempts - snap["attempts"]
        delivered = self.delivered - snap["delivered"]
        frames = self.frame_slots - snap["frames"]
        delay_n = self.delay_count - snap["delay_count"]
        per_station = self.per_station - snap["per_station"]
        events = succ + coll

        norm_tp = float(delivered / elapsed) if elapsed > 0 else 0.0
        total = per_station.sum()
        square = (per_station.astype(float) ** 2).sum()
        jain = float(total) ** 2 / (len(per_station) * square) if square > 0 else 0.0
        # numpy scalars sneak in through the accumulators; pin every field
        # to a builtin so reprs and serialization stay plain
        return SimMetrics(
            normalized_throughput=norm_tp,
            throughput_bps=norm_tp * self.cfg.timing.channel_rate,
            mean_access_delay=float((self.delay_sum - snap["delay_sum"]) / delay_n)
                              if delay_n > 0 else math.nan,
            mean_collisions_per_service=coll / succ if succ > 0 else math.inf,
            collision_probability=coll / events if events > 0 else 0.0,
            slot_utilization=float(frames / elapsed) if elapsed > 0 else 0.0,
            attempt_rate=attempts / idle if idle > 0 else 0.0,
            jain_index=float(jain),
            drops=int(self.drops - snap["drops"]),
            successes=int(succ),
            collisions=int(coll),
            per_station_success=tuple(int(x) for x in per_station),
            elapsed_slots=float(elapsed),
            idle_slots=int(idle),
            busy_slots=float(self.busy_slots - snap["busy"]),
            defer_slots=float(self.defer_slots - snap["defer"]),
            frame_slots=float(self.frame_slots - snap["frames"]),
            final_cw_min=int(self.cw_min_cur),
            m_estimate=None if self.m_estimate is None else int(self.m_estimate),
        )


def run(config: SimConfig, trace=None) -> SimMetrics:
    """Execute one simulation and return its measured metrics.

    `trace`, when given, is called with a dict per channel event
    (success, collision, drop) from time zero onward.
    """
    return _Run(config, trace=trace).run()


# ---------------------------------------------------------------- replication

# two-sided 95% t quantiles for 1..30 degrees of freedom
_T95 = (12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
        2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
        2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042)
_Z975 = 1.959963984540054

# the metrics replications average: normalized_throughput through drops
_SCALAR_METRICS = tuple(f.name for f in fields(SimMetrics)[:9])


@dataclass(frozen=True)
class ReplicatedSummary:
    runs: tuple
    mean: dict
    half_width: dict


def _t95(df):
    """Two-sided 95% Student t quantile for df >= 1 degrees of freedom.

    Tabulated to three decimals up to 30; beyond, the Cornish-Fisher
    expansion in 1/df about the normal quantile (Abramowitz and Stegun
    26.7.5), accurate there to better than 1e-7.
    """
    if df <= len(_T95):
        return _T95[df - 1]
    z = _Z975
    z2 = z * z
    g1 = z * (z2 + 1.0) / 4.0
    g2 = z * ((5.0 * z2 + 16.0) * z2 + 3.0) / 96.0
    g3 = z * (((3.0 * z2 + 19.0) * z2 + 17.0) * z2 - 15.0) / 384.0
    g4 = z * ((((79.0 * z2 + 776.0) * z2 + 1482.0) * z2 - 1920.0) * z2 - 945.0) / 92160.0
    return z + (g1 + (g2 + (g3 + g4 / df) / df) / df) / df


def run_replicated(config: SimConfig, replications: int) -> ReplicatedSummary:
    """Independent replications differing only in seed (seed + index)."""
    if replications < 2:
        raise ValidationError("need at least 2 replications")
    runs = []
    for i in range(replications):
        runs.append(run(replace(config, seed=config.seed + i)))
    mean, half = {}, {}
    for name in _SCALAR_METRICS:
        values = np.array([getattr(r, name) for r in runs], dtype=float)
        mean[name] = float(values.mean())
        sd = float(values.std(ddof=1))
        half[name] = _t95(replications - 1) * sd / math.sqrt(replications)
    return ReplicatedSummary(runs=tuple(runs), mean=mean, half_width=half)


# ---------------------------------------------------------------- reports

SENSITIVITY_COLUMNS = ("kind", "value", "normalized_throughput", "throughput_bps",
                       "mean_access_delay", "final_cw_min")


def sensitivity_suite(base: SimConfig, m_estimates=(), payloads=()) -> list:
    """Throughput response to node-count estimation error and payload choice.

    ``m_estimates`` are ratios of assumed to true station count; each row
    reruns ``base`` with the oracle node count scaled by that ratio.
    Payload rows rerun the base scenario error-free at each payload.
    """
    base.validate()
    if not isinstance(base.policy, Abtmac) or base.policy.m_source != "oracle":
        raise ValidationError("sensitivity runs need an oracle-sourced Abtmac policy")
    def row(kind, value, config):
        metrics = run(config)
        return {"kind": kind, "value": value} | {
            name: getattr(metrics, name) for name in SENSITIVITY_COLUMNS[2:]}

    rows = [row("m_estimate", ratio, replace(base, estimation_error_factor=ratio))
            for ratio in m_estimates]
    rows += [row("payload", payload, replace(base, payload=FixedPayload(payload),
                                             estimation_error_factor=1.0))
             for payload in payloads]
    return rows
