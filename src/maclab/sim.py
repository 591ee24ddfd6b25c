"""Slotted discrete-event simulator of a single contention domain.

Stations share one channel and one synchronous slot clock. Idle slots
decrement every active backoff counter; when one or more counters reach
zero a transmission event occupies the channel for its wall duration
(fractional slots allowed), everyone defers the required interframe
gap, and countdown resumes. Exactly one transmitter means success,
otherwise every transmitter climbs the window ladder or drops its frame
at the retry limit.

Counters run on the idle-slot clock, the count of idle slots so far:
a station that draws counter c when that count is n fires when it
reaches n + c, however much busy time lies between. The engine keeps
these deadlines in a heap of plain integers, `deadline << shift |
station` with `shift` the bit length of the station count, so ties pop
in station order; an event costs the stations it touches, not the
population. Poisson arrivals do the same: pending arrivals sit in one
heap and the stations with empty queues in another, so a roll costs
the stations whose arrivals fall due. One loop runs every event: it
pops the tied deadlines, books the success or collision in place, and
draws the counters of all the event's stations (the winner, or the
climbers in station order) in one call.

The initial window comes from the configured policy: the standard
ladder, an adaptively tuned ladder targeting a fixed attempt rate, or
a fixed window. All randomness flows from one named generator (PCG64)
seeded per run, so a (config, seed) pair is bit-reproducible. Counters
are numpy's `integers(0, W + 1)` run in Python: numpy's own rule, Lemire's
multiply-and-reject on 32-bit halves of the raw output, with PCG64's
half-word buffer held by the engine. numpy's geometric, exponential and
64-bit bounded draws never touch that buffer, so all of them interleave.
numpy is imported only when a run or a replication set is built.

Measured quantities mirror the closed-form model: the access delay of
a frame service is the time from the start of network contention for
it (end of the previous successful exchange plus its trailing DIFS,
or the winner's backoff start when the channel had gone quiet) to the
start of the winning transmission, and slot utilization counts frame
transmission time only, with interframe gaps and deferrals left in
the denominator.
"""

import heapq
import math
from dataclasses import dataclass, field, fields, replace

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

    def __post_init__(self):
        if self.m_source not in ("oracle", "measured"):
            raise ValidationError(f"unknown node-count source {self.m_source!r}")
        if not 1 <= self.update_interval < math.inf:
            raise ValidationError("update interval must be >= 1")


@dataclass(frozen=True)
class FixedWindow:
    cw_min: int
    cw_max: int = 1024
    retry_limit: int = 7

    def __post_init__(self):
        if not (0 <= self.cw_min <= self.cw_max < math.inf and 0 <= self.retry_limit < math.inf):
            raise ValidationError("fixed window bounds are inconsistent")


@dataclass(frozen=True)
class FixedPayload:
    slots: float = 34.0

    def __post_init__(self):
        if not 0 < self.slots < math.inf:
            raise ValidationError("payload must be positive and finite")


@dataclass(frozen=True)
class GeometricPayload:
    mean_slots: float = 34.0

    def __post_init__(self):
        if not 1 <= self.mean_slots < math.inf:
            raise ValidationError("geometric payload mean must be finite and >= 1 slot")


@dataclass(frozen=True)
class PoissonTraffic:
    rate: float                     # frame arrivals per slot per station

    def __post_init__(self):
        if not 0 < self.rate <= 1:
            raise ValidationError(_TRAFFIC_RULE.format(self))


SATURATED = "saturated"
_TRAFFIC_RULE = ("traffic must be saturated or Poisson at (0, 1] arrivals "
                 "per slot per station, got {!r}")


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

    def __post_init__(self):
        if not 1 <= self.station_count < math.inf:
            raise ValidationError("need at least one station")
        if not isinstance(self.station_count, int):
            raise ValidationError(
                f"station count must be an integer, got {self.station_count!r}")
        if not MIN_DURATION <= self.duration < math.inf:
            raise ValidationError(
                f"duration must be >= {MIN_DURATION} slots for metric validity")
        if not (isinstance(self.seed, int) and self.seed >= 0):
            raise ValidationError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not 0 < self.estimation_error_factor < math.inf:
            raise ValidationError("estimation error factor must be positive and finite")
        if not isinstance(self.policy, (LegacyDcf, Abtmac, FixedWindow)):
            raise ValidationError(f"unknown policy {self.policy!r}")
        if self.estimation_error_factor != 1.0 and not (
                isinstance(self.policy, Abtmac) and self.policy.m_source == "oracle"):
            raise ValidationError(
                "estimation error factor applies only to an oracle-sourced Abtmac policy")
        if not isinstance(self.payload, (FixedPayload, GeometricPayload)):
            raise ValidationError(f"unknown payload model {self.payload!r}")
        if self.traffic != SATURATED and not isinstance(self.traffic, PoissonTraffic):
            raise ValidationError(_TRAFFIC_RULE.format(self.traffic))


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

# the running totals of a run, in the order its snapshots list them; the
# metrics subtract the warm-up snapshot from the last, per_station too
_TALLIES = ("clock", "idle_slots", "busy_slots", "defer_slots", "frame_slots",
            "successes", "collisions", "attempts", "drops", "delivered",
            "delay_sum")


class _Run:
    def __init__(self, config: SimConfig, trace=None):
        self.cfg = config
        self.d = derive_slot_durations(config.timing)
        self.trace = trace
        m = config.station_count
        import numpy as np
        self.rng = np.random.Generator(np.random.PCG64(config.seed))

        pol = config.policy
        ladder = pol if isinstance(pol, FixedWindow) else pol.params
        self.cw_max = ladder.cw_max
        self.retry_limit = ladder.retry_limit
        self.m_estimate = None
        self.next_estimate = None       # success count at the next re-estimate
        if isinstance(pol, Abtmac):
            if pol.m_source == "oracle":
                self.m_estimate = max(1, round(config.estimation_error_factor * m))
            else:
                # measured mode warm-starts at the true count, then re-estimates
                # from the collisions per success of each update_interval successes
                self.m_estimate = m
                self.next_estimate = pol.update_interval
                self.collision_mark = 0
            self.cw_min_cur = abtmac_mod.cw_min(pol.params, self.m_estimate)
        else:
            self.cw_min_cur = ladder.cw_min

        self.stage = [0] * m
        self.backoff_start = [0.0] * m
        self.per_station = [0] * m
        self.saturated = config.traffic == SATURATED
        if not self.saturated:
            # a Poisson station contends exactly while its queue is non-empty
            self.mean_arrival_gap = 1.0 / config.traffic.rate
            self.queue = [0] * m
            self.next_arrival = self.rng.exponential(self.mean_arrival_gap, size=m).tolist()
            # heaps of (next arrival, station): one entry per station, and
            # one per quiet station (empty queue), which starts as everyone;
            # a quiet station leaves only when a roll gives it a frame
            self.arrivals = [(t, i) for i, t in enumerate(self.next_arrival)]
            heapq.heapify(self.arrivals)
            self.quiet = self.arrivals[:]
        # the whole population draws a payload and then a counter up front,
        # idle Poisson stations included, so the seed fixes one stream
        p = config.payload
        self.geometric_p = None
        if isinstance(p, FixedPayload):
            self.payloads = [float(p.slots)] * m
        else:
            self.geometric_p = 1.0 / p.mean_slots
            self.payloads = self.rng.geometric(self.geometric_p, size=m).astype(float).tolist()
        self._stage_highs()
        counters = self.rng.integers(0, np.full(m, self.highs[0])).tolist()
        state = self.rng.bit_generator.state
        self.has_uint32, self.uinteger = state["has_uint32"], state["uinteger"]
        self.random_raw = self.rng.bit_generator.random_raw

        self.clock = 0.0
        self.idle_slots = 0
        # a heap of deadline keys over the armed stations: counters only
        # run on idle slots, so each fires when idle_slots reaches the
        # idle-slot count at its draw plus the drawn counter. A key packs
        # that deadline above the station's bits, so ties pop in station order
        self.shift = m.bit_length()
        self.armed = [c << self.shift | i for i, c in enumerate(counters)] if self.saturated else []
        heapq.heapify(self.armed)

    # -- randomness -------------------------------------------------------

    def _window(self, stage):
        return min((self.cw_min_cur + 1) * 2 ** stage, self.cw_max + 1) - 1

    def _stage_highs(self):
        """_window(k) + 1 per stage up to the first at cw_max; later stages share it."""
        self.highs = [self._window(0) + 1]
        while len(self.highs) <= self.retry_limit and self.highs[-1] <= self.cw_max:
            self.highs.append(self._window(len(self.highs)) + 1)
        self.last_stage = len(self.highs) - 1

    def _arm(self, stations):
        """Draw each station's counter, in order, and push its deadline key."""
        highs, last, stage = self.highs, self.last_stage, self.stage
        base, shift, armed = self.idle_slots, self.shift, self.armed
        has_uint32, uinteger = self.has_uint32, self.uinteger
        for i in stations:
            high = highs[stage[i] if stage[i] < last else last]
            if 1 < high <= 1 << 32:
                # numpy's integers(0, high): Lemire's multiply-and-reject on the
                # raw stream's 32-bit halves, low half first, high half buffered;
                # its rejection threshold (2^32 - high) % high lies below high
                while True:
                    if has_uint32:
                        has_uint32, half = 0, uinteger
                    else:
                        raw = self.random_raw()
                        has_uint32, uinteger, half = 1, raw >> 32, raw & 0xFFFFFFFF
                    scaled = half * high
                    leftover = scaled & 0xFFFFFFFF
                    if leftover >= high or leftover >= (0x100000000 - high) % high:
                        break
                counter = scaled >> 32
            else:
                # one value draws nothing; above 2^32 numpy's 64-bit path runs
                counter = int(self.rng.integers(0, high))
            heapq.heappush(armed, (base + counter) << shift | i)
        self.has_uint32, self.uinteger = has_uint32, uinteger

    def _draw_payload(self, i):
        if self.geometric_p is not None:
            self.payloads[i] = float(self.rng.geometric(self.geometric_p))

    # -- traffic ----------------------------------------------------------

    def _roll_arrivals(self):
        clock = self.clock
        heap = self.arrivals
        if heap[0][0] > clock:
            return
        due = []
        while heap and heap[0][0] <= clock:
            due.append(heapq.heappop(heap)[1])
        due.sort()
        # only an arrival can give an idle station a frame
        fresh = []
        quiet = self.quiet
        while quiet and quiet[0][0] <= clock:
            fresh.append(heapq.heappop(quiet)[1])
        fresh.sort()
        # due stations redraw in station order, round by round, until
        # each one's next arrival lies after the clock
        next_arrival = self.next_arrival
        batch = due
        while batch:
            for i in batch:
                self.queue[i] += 1
                next_arrival[i] += self.rng.exponential(self.mean_arrival_gap)
            batch = [i for i in batch if next_arrival[i] <= clock]
        for i in due:
            heapq.heappush(heap, (next_arrival[i], i))
        for i in fresh:
            self.backoff_start[i] = clock
            self._draw_payload(i)
        self._arm(fresh)

    def _consume_frame(self, i):
        """A frame left station i (delivered or dropped): set up the next."""
        self.stage[i] = 0
        self.backoff_start[i] = self.clock
        if not self.saturated:
            self.queue[i] -= 1
            if self.queue[i] == 0:
                heapq.heappush(self.quiet, (self.next_arrival[i], i))
                return
        self._draw_payload(i)
        self._arm((i,))

    # -- adaptation -------------------------------------------------------

    def _reestimate(self, collisions):
        params = self.cfg.policy.params
        interval = self.cfg.policy.update_interval
        measured = (collisions - self.collision_mark) / interval
        self.m_estimate = abtmac_mod.estimate_active_nodes(measured, params.k_prime)
        self.cw_min_cur = abtmac_mod.cw_min(params, self.m_estimate)
        self._stage_highs()
        self.collision_mark = collisions
        self.next_estimate += interval

    # -- main loop --------------------------------------------------------

    def run(self):
        horizon = float(self.cfg.duration)
        warm_clock = WARMUP_FRACTION * horizon
        d, trace, arm, heappop = self.d, self.trace, self._arm, heapq.heappop
        armed, shift, stage, payloads = self.armed, self.shift, self.stage, self.payloads
        per_station, backoff_start = self.per_station, self.backoff_start
        station_bits, retry_limit = (1 << shift) - 1, self.retry_limit
        sifs, t_ack, difs, eifs, saturated = d.sifs, d.t_ack, d.difs, d.eifs, self.saturated
        rts = self.cfg.mode is AccessMode.RTS_CTS
        # left prefixes of the exchange sums; adding the rest in the
        # written order keeps every rounding step
        wall_head = d.t_rts + sifs + d.t_cts + sifs if rts else 0.0
        frame_head = d.t_rts + d.t_cts if rts else 0.0
        busy = defer = frames = delivered = delay_sum = contention_start = 0.0
        successes = collisions = attempts = drops = 0

        def tallies():
            return [self.clock, self.idle_slots, busy, defer, frames, successes,
                    collisions, attempts, drops, delivered, delay_sum], list(per_station)

        start = tallies()    # all zeros; kept if one event crosses the horizon
        snap = None
        while self.clock < horizon:
            if snap is None and self.clock >= warm_clock:
                snap = tallies()
            if not saturated:
                self._roll_arrivals()
                if self.quiet:
                    # every arrival lies strictly after the clock, so until >= 1
                    until = math.ceil(self.quiet[0][0] - self.clock)
                    if not armed or until <= (armed[0] >> shift) - self.idle_slots:
                        # the channel is empty, or an arrival may activate
                        # a station before the next deadline: advance only
                        # that far
                        self.idle_slots += until
                        self.clock += until
                        continue
            key = heappop(armed)
            deadline = key >> shift
            self.clock += deadline - self.idle_slots
            self.idle_slots = deadline
            ready = [key & station_bits]
            later = deadline + 1 << shift
            while armed and armed[0] < later:
                ready.append(heappop(armed) & station_bits)
            attempts += len(ready)

            if len(ready) == 1:
                i = ready[0]
                payload = payloads[i]
                wall = wall_head + payload + sifs + t_ack
                clock = self.clock
                if trace is not None:
                    trace({"t": clock, "kind": "success", "station": i, "span": wall})
                # contention for this service starts when the channel last
                # cleared or when the winner's frame began its backoff,
                # whichever is later (the channel can sit idle with nothing
                # queued under light load)
                delay_sum += clock - max(contention_start, backoff_start[i])
                successes += 1
                per_station[i] += 1
                delivered += payload
                busy += wall
                frames += frame_head + payload + t_ack
                self.clock = contention_start = clock + (wall + difs)
                defer += difs
                self._consume_frame(i)
                if successes == self.next_estimate:
                    self._reestimate(collisions)
                continue

            span = d.t_rts if rts else max(payloads[i] for i in ready)
            if trace is not None:
                trace({"t": self.clock, "kind": "collision", "stations": ready, "span": span})
            collisions += 1
            busy += span
            frames += span
            self.clock += span + eifs
            defer += eifs
            # climbers redraw first, all in station order; then each dropped
            # frame hands its station the next one
            dropping = []
            for i in ready:
                if stage[i] < retry_limit:
                    stage[i] += 1
                else:
                    dropping.append(i)
            arm([i for i in ready if i not in dropping] if dropping else ready)
            for i in dropping:
                drops += 1
                if trace is not None:
                    trace({"t": self.clock, "kind": "drop", "station": i})
                self._consume_frame(i)

        return self._metrics(tallies(), start if snap is None else snap)

    def _metrics(self, now, then):
        t = {name: a - b for name, a, b in zip(_TALLIES, now[0], then[0])}
        per_station = [a - b for a, b in zip(now[1], then[1])]
        elapsed, succ, coll = t["clock"], t["successes"], t["collisions"]
        events = succ + coll

        norm_tp = t["delivered"] / elapsed if elapsed > 0 else 0.0
        square = sum(float(x) ** 2 for x in per_station)
        jain = float(sum(per_station)) ** 2 / (len(per_station) * square) if square > 0 else 0.0
        return SimMetrics(
            normalized_throughput=norm_tp,
            throughput_bps=norm_tp * self.cfg.timing.channel_rate,
            mean_access_delay=t["delay_sum"] / succ if succ > 0 else math.nan,
            mean_collisions_per_service=coll / succ if succ > 0 else math.inf,
            collision_probability=coll / events if events > 0 else 0.0,
            slot_utilization=t["frame_slots"] / elapsed if elapsed > 0 else 0.0,
            attempt_rate=t["attempts"] / t["idle_slots"] if t["idle_slots"] > 0 else 0.0,
            jain_index=jain,
            drops=t["drops"],
            successes=succ,
            collisions=coll,
            per_station_success=tuple(per_station),
            elapsed_slots=elapsed,
            idle_slots=t["idle_slots"],
            busy_slots=t["busy_slots"],
            defer_slots=t["defer_slots"],
            frame_slots=t["frame_slots"],
            final_cw_min=self.cw_min_cur,
            m_estimate=self.m_estimate,
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
    import numpy as np
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
