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
reaches n + c, however much busy time lies between: at most cw_max
after its draw. A saturated population whose stage-0 window fits within
four slots per station (cw_min + 1 <= 4M), with cw_max below
max(4M, 2^12), keeps its armed stations in a ring of lists, one per idle
slot, a power of two above cw_max in size, indexed by deadline & mask;
an event steps to the first non-empty one, so it scans the idle slots
between events, which the stage-0 window sets. Any other run (Poisson
traffic, a sparse population, a window too wide for a ring) keeps a
heap of the distinct deadlines and, per deadline, the list of stations
armed for it. Either way an event costs the stations it touches, not
the population, and sorts its ties into station order. One loop runs
every event: it takes the next deadline, books the success or collision
in place, and draws the counters of the stations the event handed on,
the winner, or the climbers and then the dropped. On the ring each
draws in that event; on the heap, and for a new frame that draws a
geometric payload first, they draw in that order at the top of the
next pass.

Poisson arrivals sit in heaps too: each station's next arrival in one,
the stations with empty queues in another. The pass that finds
arrivals due rolls them, after an event or at once after idle slots
advance to a quiet station's arrival, so a roll costs the stations
whose arrivals fall due: one such station draws its arrivals in a row,
several draw in rounds in station order, one array per round.

The initial window comes from the configured policy: the standard
ladder, an adaptively tuned ladder targeting a fixed attempt rate, or
a fixed window. All randomness flows from one named generator (PCG64)
seeded per run, so a (config, seed) pair is bit-reproducible. Counters
are numpy's `integers(0, W + 1)` run in Python: Lemire's
multiply-and-reject on 32-bit halves of the raw output, low half first,
from one iterator; every draw runs one fast path, and `_Run._finish`
takes the rare rest. Where counters are the only draws (saturated, fixed
payload, cw_max below 2^32) it reads raw words a block at a time, a
process's first 2^18 from a Python copy of numpy's PCG64 and its
seeding, so such runs never import numpy. Elsewhere numpy's generator
hands out a raw word once the last one's halves are used, so its
geometric, exponential and 64-bit draws interleave as if it drew all.

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
import struct
from dataclasses import dataclass, field, fields, replace
from itertools import chain, permutations

from . import RNG_ALGORITHM, abtmac as abtmac_mod
from .abtmac import AbtmacParams
from .errors import ValidationError
from .legacy import DcfParams, ladder
from .timing import AccessMode, TimingParams, derive_slot_durations, DEFAULT_TIMING

MIN_DURATION = 10_000
WARMUP_FRACTION = 0.05
RAW_BLOCK = 2048                # raw words per block when counters draw alone
# a Python word costs about 8 numpy block words: a process's first 2^18
# raw words (about 0.1 s, what importing numpy costs) come from Python
_python_words_left = _PYTHON_WORDS = 1 << 18
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


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
        if not (type(self.update_interval) is int and self.update_interval >= 1):
            raise ValidationError("update interval must be an integer >= 1")


@dataclass(frozen=True)
class FixedWindow:
    cw_min: int
    cw_max: int = 1024
    retry_limit: int = 7

    def __post_init__(self):
        if not (all(type(v) is int for v in (self.cw_min, self.cw_max, self.retry_limit))
                and 0 <= self.cw_min <= self.cw_max and 0 <= self.retry_limit):
            raise ValidationError("fixed window bounds are inconsistent or not integers")


@dataclass(frozen=True)
class FixedPayload:
    slots: float = 34.0

    def __post_init__(self):
        if isinstance(self.slots, bool) or not 0 < self.slots < math.inf:
            raise ValidationError("payload must be positive and finite")


@dataclass(frozen=True)
class GeometricPayload:
    mean_slots: float = 34.0

    def __post_init__(self):
        if isinstance(self.mean_slots, bool) or not 1 <= self.mean_slots < math.inf:
            raise ValidationError("geometric payload mean must be finite and >= 1 slot")


@dataclass(frozen=True)
class PoissonTraffic:
    rate: float                     # frame arrivals per slot per station

    def __post_init__(self):
        if isinstance(self.rate, bool) or not 0 < self.rate <= 1:
            raise ValidationError(_TRAFFIC_RULE.format(self))
        if not 1.0 / self.rate < math.inf:     # the mean arrival gap overflows below ~5.6e-309
            raise ValidationError(f"arrival rate {self.rate} has no finite reciprocal")


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
        for name in ("station_count", "duration", "seed"):
            value = getattr(self, name)
            if type(value) is not int:      # a bool would run as 0 or 1
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        if self.station_count < 1:
            raise ValidationError("need at least one station")
        if self.duration < MIN_DURATION:
            raise ValidationError(
                f"duration must be >= {MIN_DURATION} slots for metric validity")
        if self.seed < 0:
            raise ValidationError(f"seed must be a non-negative integer, got {self.seed!r}")
        factor = self.estimation_error_factor
        if isinstance(factor, bool) or not 0 < factor < math.inf:
            raise ValidationError("estimation error factor must be positive and finite")
        if not factor * self.station_count < math.inf:
            raise ValidationError("estimation error factor times the station count overflows")
        if not isinstance(self.policy, (LegacyDcf, Abtmac, FixedWindow)):
            raise ValidationError(f"unknown policy {self.policy!r}")
        pol = self.policy
        params = pol if isinstance(pol, FixedWindow) else pol.params
        if params.cw_max >= 1 << 63:    # counters are numpy int64 draws below cw_max + 1
            raise ValidationError(f"the simulator needs cw_max below 2^63, got {params.cw_max}")
        if params.retry_limit > 255:    # the engine tables a counter bound per stage
            raise ValidationError(f"retry limit must be at most 255, got {params.retry_limit}")
        if factor != 1.0 and not (
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


# ---------------------------------------------------------------- raw words

def _seed_state(seed):
    """numpy's SeedSequence(seed).generate_state(4, uint64), as ints: the
    seed's 32-bit words hashed into a pool of four and hashed back out."""
    words = [seed >> k & 0xFFFFFFFF for k in range(0, max(seed.bit_length(), 1), 32)]
    h = 0x43B0D7E5

    def hashmix(value, mult=0x931E8875):
        nonlocal h
        value = (value ^ h) * (h := h * mult & 0xFFFFFFFF) & 0xFFFFFFFF
        return value ^ value >> 16

    def mix(x, y):
        x = (0xCA01F9DD * x - 0x4973F715 * y) & 0xFFFFFFFF
        return x ^ x >> 16

    pool = [hashmix(w) for w in (words + [0] * 4)[:4]]
    for src, dst in permutations(range(4), 2):
        pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        pool = [mix(p, hashmix(w)) for p in pool]
    h = 0x8B51F9DD
    out = [hashmix(p, 0x58F38DED) for p in pool * 2]
    return [lo | hi << 32 for lo, hi in zip(out[::2], out[1::2])]


def _pcg64_blocks(seed):
    """PCG64(seed).random_raw in blocks of RAW_BLOCK words, each as its
    32-bit halves, low half first. The process's first _PYTHON_WORDS come
    from Python; then a numpy PCG64 takes over at the Python state."""
    global _python_words_left
    mult, m64, m128, words = _PCG_MULT, (1 << 64) - 1, (1 << 128) - 1, [0] * RAW_BLOCK
    # numpy seeds with inc = 2·words[2:] + 1 and the state stepped from 0,
    # plus words[:2], stepped again
    s_hi, s_lo, i_hi, i_lo = _seed_state(seed)
    inc = (i_hi << 65 | i_lo << 1 | 1) & m128
    state = ((inc + (s_hi << 64 | s_lo)) * mult + inc) & m128
    pack = struct.Struct(f"<{RAW_BLOCK}Q").pack
    halves = struct.Struct(f"<{2 * RAW_BLOCK}I").unpack
    while _python_words_left > 0:
        _python_words_left -= RAW_BLOCK
        for j in range(RAW_BLOCK):
            # a 128-bit LCG step, then XSL-RR: the state's halves xored,
            # rotated right by its top six bits (x·(2^64 + 1) holds x twice)
            state = (state * mult + inc) & m128
            words[j] = ((state >> 64 ^ state) & m64) * 0x10000000000000001 >> (state >> 122) & m64
        yield halves(pack(*words))
    import numpy as np
    bit_generator = np.random.PCG64()
    bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                           "has_uint32": 0, "uinteger": 0}
    while True:
        yield bit_generator.random_raw(RAW_BLOCK).astype("<u8", copy=False).view("<u4").tolist()


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
        pol = config.policy
        params = pol if isinstance(pol, FixedWindow) else pol.params
        self.cw_max = params.cw_max
        self.retry_limit = params.retry_limit
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
            self.cw_min_cur = params.cw_min

        self.stage = [0] * m
        self.backoff_start = [0.0] * m
        self.per_station = [0] * m
        self.saturated = config.traffic == SATURATED
        if self.saturated and isinstance(config.payload, FixedPayload) and self.cw_max < 1 << 32:
            self.rng, halves = None, _pcg64_blocks(config.seed)     # counters draw alone
        else:
            import numpy as np
            self.rng = np.random.Generator(np.random.PCG64(config.seed))
            halves = map(lambda w: (w & 0xFFFFFFFF, w >> 32),
                         iter(self.rng.bit_generator.random_raw, None))
        self.next_half = chain.from_iterable(halves).__next__
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

        self.clock, self.idle_slots = 0.0, 0
        # the armed stations by deadline: counters only run on idle slots,
        # so each fires when idle_slots reaches the idle-slot count at its
        # draw plus the drawn counter: in the `ring` (see the module notes)
        # or in lists by deadline, `stations_at`, with `armed` heaping keys
        ring = self.saturated and self.highs[0] <= 4 * m and self.cw_max < max(4 * m, 1 << 12)
        self.ring = [[] for _ in range(1 << self.cw_max.bit_length())] if ring else None
        self.stations_at = {}
        next_half, finish, high = self.next_half, self._finish, self.highs[0]
        for i in range(m):
            scaled = next_half() * high if 1 < high <= 0x100000000 else 0
            c = scaled >> 32 if scaled & 0xFFFFFFFF >= high else finish(high, scaled)
            if self.saturated:
                (self.ring[c] if ring else self.stations_at.setdefault(c, [])).append(i)
        self.armed = list(self.stations_at)
        heapq.heapify(self.armed)
        self.pending = []               # stations whose counters run() draws first

    def _finish(self, high, scaled):
        """The counter below `high` for a draw off the fast path: none drawn
        for a window of one value, numpy's 64-bit draw above 2^32, else
        Lemire's rejection zone, redrawing while the low half is under it."""
        if high == 1:
            return 0
        if high > 0x100000000:
            return int(self.rng.integers(0, high))
        threshold = (0x100000000 - high) % high
        while scaled & 0xFFFFFFFF < threshold:
            scaled = self.next_half() * high
        return scaled >> 32

    def _stage_highs(self):
        """Counter values per stage, 0 to retry_limit, as in 802.11:
        CW_k + 1 = (cw_min + 1)·2^k, capped at cw_max + 1."""
        highs = ladder(self.cw_min_cur + 1, self.cw_max + 1, self.retry_limit)
        self.highs = highs + highs[-1:] * (self.retry_limit + 1 - len(highs))

    def _roll_arrivals(self, clock):
        """Queue the arrivals due by `clock`; return the stations they woke,
        each with its backoff started and its payload drawn."""
        heap, queue, next_arrival = self.arrivals, self.queue, self.next_arrival
        gap = self.mean_arrival_gap
        due = []
        while heap and heap[0][0] <= clock:
            due.append(heapq.heappop(heap)[1])
        due.sort()
        # the due stations with no frame wake: the quiet heap's due entries
        fresh = [i for i in due if not queue[i]]
        for _ in fresh:
            heapq.heappop(self.quiet)
        # due stations redraw in station order, round by round, until each
        # one's next arrival lies after the clock; a round is one array draw
        batch = due
        while batch:
            later = []
            for i, wait in zip(batch, self.rng.exponential(gap, len(batch)).tolist()):
                queue[i] += 1
                next_arrival[i] += wait
                if next_arrival[i] <= clock:
                    later.append(i)
            batch = later
        for i in due:
            heapq.heappush(heap, (next_arrival[i], i))
        for i in fresh:
            self.backoff_start[i] = clock
            if self.geometric_p is not None:
                self.payloads[i] = float(self.rng.geometric(self.geometric_p))
        return fresh

    def _reestimate(self, collisions):
        params = self.cfg.policy.params
        interval = self.cfg.policy.update_interval
        measured = (collisions - self.collision_mark) / interval
        self.m_estimate = abtmac_mod.estimate_active_nodes(measured, params.k_prime)
        self.cw_min_cur = abtmac_mod.cw_min(params, self.m_estimate)
        self._stage_highs()
        self.collision_mark = collisions
        self.next_estimate += interval

    def run(self):
        horizon = float(self.cfg.duration)
        warm_clock = WARMUP_FRACTION * horizon
        d, trace, heappop, heappush = self.d, self.trace, heapq.heappop, heapq.heappush
        armed, stations_at, ring, stage = self.armed, self.stations_at, self.ring, self.stage
        mask = len(ring) - 1 if ring else 0
        payloads, per_station, backoff_start = self.payloads, self.per_station, self.backoff_start
        retry_limit, highs = self.retry_limit, self.highs
        next_half, rng, next_estimate = self.next_half, self.rng, self.next_estimate
        p, t_rts = self.geometric_p, d.t_rts
        sifs, t_ack, difs, eifs, saturated = d.sifs, d.t_ack, d.difs, d.eifs, self.saturated
        if not saturated:
            roll, arrivals, quiet = self._roll_arrivals, self.arrivals, self.quiet
            queue, next_arrival = self.queue, self.next_arrival
            exponential, gap, ceil = rng.exponential, self.mean_arrival_gap, math.ceil
        rts = self.cfg.mode is AccessMode.RTS_CTS
        # left prefixes of the exchange sums; adding the rest in the
        # written order keeps every rounding step
        wall_head = t_rts + sifs + d.t_cts + sifs if rts else 0.0
        frame_head = t_rts + d.t_cts if rts else 0.0
        clock, idle_slots = self.clock, self.idle_slots
        busy = defer = frames = delivered = delay_sum = contention_start = 0.0
        successes = collisions = attempts = drops = 0
        snap = start = [clock, idle_slots, busy, defer, frames, successes, collisions,
                        attempts, drops, delivered, delay_sum], per_station[:]
        pending, payloads_first, finish = self.pending, False, self._finish
        fresh_at_once = ring and p is None     # else a geometric payload draws first
        while True:
            # the stations the last step left to draw do so in order, each
            # new frame (stage 0) its random payload first unless a roll drew it
            for i in pending:
                s = stage[i]
                if payloads_first and not s:
                    payloads[i] = float(rng.geometric(p))
                high = highs[s]
                scaled = next_half() * high if 1 < high <= 0x100000000 else 0
                deadline = idle_slots + (scaled >> 32 if scaled & 0xFFFFFFFF >= high
                                         else finish(high, scaled))
                if ring:
                    ring[deadline & mask].append(i)
                elif deadline in stations_at:
                    stations_at[deadline].append(i)
                else:
                    stations_at[deadline] = [i]
                    heappush(armed, deadline)
            if successes == next_estimate:
                self._reestimate(collisions)
                highs, next_estimate = self.highs, self.next_estimate
            if clock >= horizon:
                break
            if snap is start and clock >= warm_clock:
                snap = [clock, idle_slots, busy, defer, frames, successes, collisions,
                        attempts, drops, delivered, delay_sum], per_station[:]
            pending, payloads_first = [], p is not None
            if not saturated:
                if arrivals[0][0] > clock and quiet:
                    # every arrival lies strictly after the clock, so until >= 1
                    until = ceil(quiet[0][0] - clock)
                    if not armed or until <= armed[0] - idle_slots:
                        # the channel is empty, or an arrival may activate a station
                        # before the next deadline: advance that far and roll there
                        # (no tally moves), again if the sum rounds short (past 2^51)
                        idle_slots += until
                        clock += until
                        if arrivals[0][0] > clock:
                            continue
                if arrivals[0][0] <= clock:
                    t, i = heappop(arrivals)
                    if arrivals and arrivals[0][0] <= clock:
                        heappush(arrivals, (t, i))
                        pending, payloads_first = roll(clock), False
                        continue
                    # _roll_arrivals for one due station: its draws in a row;
                    # if it woke, the top draws its payload with its counter
                    while t <= clock:
                        queue[i] += 1
                        t += exponential(gap)
                    next_arrival[i] = t
                    heappush(arrivals, (t, i))
                    if quiet and quiet[0][0] <= clock:
                        heappop(quiet)
                        backoff_start[i] = clock
                        pending = [i]
                    continue
            if ring:
                deadline = idle_slots
                while not ring[deadline & mask]:
                    deadline += 1
                ready, ring[deadline & mask] = ring[deadline & mask], []
            else:
                deadline = heappop(armed)
                ready = stations_at.pop(deadline)
            clock += deadline - idle_slots
            idle_slots = deadline
            attempts += len(ready)
            if len(ready) == 1:
                i = ready[0]
                payload = payloads[i]
                wall = wall_head + payload + sifs + t_ack
                if trace is not None:
                    trace({"t": clock, "kind": "success", "station": i, "span": wall})
                # contention starts when the channel last cleared or when the
                # winner's frame began its backoff, whichever is later
                began = backoff_start[i]
                delay_sum += clock - (began if began > contention_start else contention_start)
                successes += 1
                per_station[i] += 1
                delivered += payload
                busy += wall
                frames += frame_head + payload + t_ack
                clock = contention_start = clock + (wall + difs)
                defer += difs
                leaving = ready
            else:
                ready.sort()
                span = t_rts if rts else max(payloads[i] for i in ready)
                if trace is not None:
                    trace({"t": clock, "kind": "collision", "stations": ready, "span": span})
                collisions += 1
                busy += span
                frames += span
                clock += span + eifs
                defer += eifs
                # climbers redraw first, all in station order; then each
                # dropped frame hands its station the next one
                leaving = []
                for i in ready:
                    s = stage[i] + 1
                    if s <= retry_limit:
                        stage[i] = s
                        if ring:
                            high = highs[s]
                            scaled = next_half() * high if 1 < high <= 0x100000000 else 0
                            ring[idle_slots + (scaled >> 32 if scaled & 0xFFFFFFFF >= high
                                               else finish(high, scaled)) & mask].append(i)
                        else:
                            pending.append(i)
                    else:
                        leaving.append(i)
                        drops += 1
                        if trace is not None:
                            trace({"t": clock, "kind": "drop", "station": i})
            # a frame left (delivered or dropped): its station starts the
            # next, or goes quiet on an empty queue
            for i in leaving:
                stage[i] = 0
                backoff_start[i] = clock
                if not saturated:
                    queue[i] -= 1
                    if not queue[i]:
                        heappush(quiet, (next_arrival[i], i))
                        continue
                if fresh_at_once:
                    high = highs[0]
                    scaled = next_half() * high if 1 < high <= 0x100000000 else 0
                    ring[idle_slots + (scaled >> 32 if scaled & 0xFFFFFFFF >= high
                                       else finish(high, scaled)) & mask].append(i)
                else:
                    pending.append(i)

        self.clock, self.idle_slots = clock, idle_slots
        now = [clock, idle_slots, busy, defer, frames, successes, collisions,
               attempts, drops, delivered, delay_sum], per_station
        return self._metrics(now, snap)

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


def _pairwise_sum(values):
    """numpy's float64 sum: a plain loop below 8 values, eight running
    sums up to 128, above that two halves split on a multiple of 8."""
    n = len(values)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])
    tail, total = n - n % 8, 0.0
    if tail:
        acc = values[:8]
        for i in range(8, tail, 8):
            acc = [a + v for a, v in zip(acc, values[i:i + 8])]
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    for v in values[tail:]:
        total += v
    return total


def _mean_sd(values):
    """numpy's mean and std(ddof=1) of a list of floats, bit for bit."""
    n = len(values)
    mean = _pairwise_sum(values) / n
    return mean, math.sqrt(_pairwise_sum([(v - mean) * (v - mean) for v in values]) / (n - 1))


def run_replicated(config: SimConfig, replications: int) -> ReplicatedSummary:
    """Independent replications differing only in seed (seed + index)."""
    if replications < 2:
        raise ValidationError("need at least 2 replications")
    runs = [run(replace(config, seed=config.seed + i)) for i in range(replications)]
    mean, half = {}, {}
    for name in _SCALAR_METRICS:
        mean[name], sd = _mean_sd([float(getattr(r, name)) for r in runs])
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
