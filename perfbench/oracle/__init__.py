"""Frozen copy of the maclab simulator as the benchmark was defined against.

The modules next to this file are verbatim copies of `src/maclab` at the
commit that introduced the benchmark (errors, timing, model, legacy,
abtmac, sim). Do not edit them: they are the oracle that seeded
simulator outputs are checked against when the benchmark runs with a
seed that has no recorded reference. Every change the roadmap plans for
the simulator is required to keep these outputs bit-identical.
"""

from .abtmac import AbtmacParams
from .sim import (Abtmac, FixedPayload, GeometricPayload, PoissonTraffic,
                  SATURATED, SimConfig, run, run_replicated)
from .timing import AccessMode
