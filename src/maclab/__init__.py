"""Contention-MAC laboratory.

Closed-form saturation model of slotted CSMA/CA, operating-point
design (payload balance, overhead minimization, robustness and
stability analysis), adaptive initial-window tuning toward a target
attempt rate, the standard exponential-backoff baseline, and a
deterministic slotted simulator that measures the empirical
counterpart of every analytical metric.
"""

__version__ = "0.1.0"

from .errors import AnalysisError, DomainError, MaclabError, ValidationError
from .timing import (AccessMode, SlotDurations, TimingParams,
                     derive_slot_durations, DEFAULT_DURATIONS, DEFAULT_TIMING)
from .model import (FluidMetrics, ModelPoint, access_delay, collision_count_pmf,
                    collision_period, collision_probability, evaluate,
                    mean_access_delay, mean_collisions, overhead, service_time,
                    throughput)
from .design import (RobustnessBounds, delay_characteristic,
                     dominant_pole_distance, minimize_overhead,
                     optimal_payload, recommended_rate, tolerable_ratio_bounds)
from .abtmac import (AbtmacParams, QosClass, cw_min, estimate_active_nodes,
                     per_class_delay, qos_rates)
from .legacy import DcfParams, legacy_attempt_rate
from .sim import (Abtmac, FixedPayload, FixedWindow, GeometricPayload,
                  LegacyDcf, PoissonTraffic, ReplicatedSummary, SATURATED,
                  SimConfig, SimMetrics, run, run_replicated, sensitivity_suite)
