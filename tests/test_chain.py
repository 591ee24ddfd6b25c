"""The saturated engine against its exact embedded Markov chain.

For a few stations on small windows the saturated simulator is a finite
Markov chain. Its state before each channel event is every station's
(backoff stage, remaining counter). The stations holding the smallest
counter transmit after that many idle slots and every other counter
drops by as much. A lone transmitter succeeds and redraws at stage 0;
colliders climb one stage, or drop the frame at the retry limit and
restart at stage 0. Every mover draws its counter uniformly on
0..min((cw_min + 1)·2^stage, cw_max + 1) - 1. The chain's stationary
law gives the exact attempt rate (attempts per idle slot), collisions
per service and drops per event, which replicated runs must bracket in
their 95% intervals.
"""

import itertools
import math

import numpy as np
import pytest

from maclab.sim import (FixedPayload, FixedWindow, SimConfig, _t95, run_replicated)
from maclab.timing import AccessMode

MAX_STATES = 3000       # a dense solve stays well under a second
REPLICATIONS = 5
SEED = 1                # fixed before any result was seen; runs use seeds 1..5


def _exact(stations, window):
    """(attempt rate, collisions per service, drops per event) of the chain."""
    values = [min((window.cw_min + 1) * 2 ** s, window.cw_max + 1)
              for s in range(window.retry_limit + 1)]
    local = [(s, c) for s, count in enumerate(values) for c in range(count)]
    index = {state: k for k, state in enumerate(itertools.product(local, repeat=stations))}
    n = len(index)
    assert n <= MAX_STATES
    step = np.zeros((n, n))
    attempts, idle, collided, drops = (np.zeros(n) for _ in range(4))
    for state, k in index.items():
        low = min(c for _, c in state)
        ready = [i for i, (_, c) in enumerate(state) if c == low]
        idle[k], attempts[k], collided[k] = low, len(ready), len(ready) > 1
        moves = []          # per station: the (stage, counter) it may hold next
        for i, (s, c) in enumerate(state):
            if i not in ready:
                moves.append([(s, c - low)])
                continue
            if len(ready) > 1 and s < window.retry_limit:
                s += 1
            else:
                drops[k] += len(ready) > 1
                s = 0
            moves.append([(s, c) for c in range(values[s])])
        weight = 1.0 / math.prod(len(m) for m in moves)
        for successor in itertools.product(*moves):
            step[k, index[successor]] += weight
    # stationary law: pi (step - I) = 0 with the weights summing to 1
    system = step.T - np.eye(n)
    system[-1] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    pi = np.linalg.solve(system, rhs)
    coll = pi @ collided
    return pi @ attempts / (pi @ idle), coll / (1.0 - coll), pi @ drops


@pytest.mark.parametrize("stations,window", [
    (2, FixedWindow(3, 15, 2)),         # 784 states
    (3, FixedWindow(1, 7, 2)),          # 2744 states, and the retry limit is reached
], ids=["m2-cw3", "m3-cw1"])
def test_engine_matches_the_exact_chain(stations, window):
    rate, per_service, per_event = _exact(stations, window)
    summary = run_replicated(SimConfig(station_count=stations, mode=AccessMode.BASIC,
                                       policy=window, payload=FixedPayload(34.0),
                                       duration=2_000_000, seed=SEED), REPLICATIONS)
    drops = np.array([r.drops / (r.successes + r.collisions) for r in summary.runs])
    drop_half = _t95(REPLICATIONS - 1) * drops.std(ddof=1) / math.sqrt(REPLICATIONS)
    assert abs(summary.mean["attempt_rate"] - rate) <= summary.half_width["attempt_rate"]
    assert (abs(summary.mean["mean_collisions_per_service"] - per_service)
            <= summary.half_width["mean_collisions_per_service"])
    assert abs(drops.mean() - per_event) <= drop_half
