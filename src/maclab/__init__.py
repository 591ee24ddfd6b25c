"""Contention-MAC laboratory.

Closed-form saturation model of slotted CSMA/CA, operating-point
design (payload balance, overhead minimization, robustness and
stability analysis), adaptive initial-window tuning toward a target
attempt rate, the standard exponential-backoff baseline, and a
deterministic slotted simulator that measures the empirical
counterpart of every analytical metric.

`import maclab` loads only the errors, the timing and the closed-form
model (and the slotted record base they share, without `dataclasses`).
Every other name (the design tools, window tuning, the legacy
baseline, the simulator and its numpy) loads on first use, as do the
submodules `design`, `abtmac`, `legacy`, `sim`, `config` and `cli`.
"""

import importlib

__version__ = "0.1.0"
RNG_ALGORITHM = "pcg64"          # the simulator's named generator

from . import errors, model, timing     # the closed forms load with the package

# public name -> the submodule that defines it, resolved on first access
_EXPORTS = {name: module for module, names in (
    ("errors", ("DomainError", "MaclabError", "ValidationError")),
    ("timing", ("AccessMode", "SlotDurations", "TimingParams", "derive_slot_durations",
                "DEFAULT_DURATIONS", "DEFAULT_TIMING")),
    ("model", ("FluidMetrics", "ModelPoint", "access_delay", "collision_count_pmf",
               "collision_period", "collision_probability", "evaluate",
               "mean_access_delay", "mean_collisions", "overhead", "service_time",
               "throughput")),
    ("design", ("RobustnessBounds", "dominant_pole_distance", "minimize_overhead",
                "optimal_payload", "recommended_rate", "tolerable_ratio_bounds")),
    ("abtmac", ("AbtmacParams", "QosClass", "cw_min", "estimate_active_nodes",
                "per_class_delay", "qos_rates")),
    ("legacy", ("DcfParams", "legacy_attempt_rate")),
    ("sim", ("Abtmac", "FixedPayload", "FixedWindow", "GeometricPayload", "LegacyDcf",
             "PoissonTraffic", "ReplicatedSummary", "SATURATED", "SimConfig",
             "SimMetrics", "run", "run_replicated", "sensitivity_suite")),
) for name in names}
_SUBMODULES = ("abtmac", "cli", "config", "design", "legacy", "sim")

# star imports keep binding the layers that importing every layer bound
__all__ = [*_EXPORTS, "abtmac", "design", "errors", "legacy", "model", "sim", "timing"]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULES))
