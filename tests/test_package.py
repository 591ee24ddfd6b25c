"""The package namespace: every public name resolves, most on first use."""

import importlib

import pytest

import maclab

# The names `from maclab import *` bound when the package imported every
# layer up front; loading the layers on first use keeps each of them.
EXPORTED = {
    "errors": ["DomainError", "MaclabError", "ValidationError"],
    "timing": ["AccessMode", "DEFAULT_DURATIONS", "DEFAULT_TIMING", "SlotDurations",
               "TimingParams", "derive_slot_durations"],
    "model": ["FluidMetrics", "ModelPoint", "access_delay", "collision_count_pmf",
              "collision_period", "collision_probability", "evaluate",
              "mean_access_delay", "mean_collisions", "overhead", "service_time",
              "throughput"],
    "design": ["RobustnessBounds", "delay_characteristic", "dominant_pole_distance",
               "minimize_overhead", "optimal_payload", "recommended_rate",
               "tolerable_ratio_bounds"],
    "abtmac": ["AbtmacParams", "QosClass", "cw_min", "estimate_active_nodes",
               "per_class_delay", "qos_rates"],
    "legacy": ["DcfParams", "legacy_attempt_rate"],
    "sim": ["Abtmac", "FixedPayload", "FixedWindow", "GeometricPayload", "LegacyDcf",
            "PoissonTraffic", "ReplicatedSummary", "SATURATED", "SimConfig",
            "SimMetrics", "run", "run_replicated", "sensitivity_suite"],
}


@pytest.mark.parametrize("module,name", [(m, n) for m, names in EXPORTED.items()
                                         for n in names])
def test_exported_name_resolves_to_its_layer(module, name):
    layer = importlib.import_module(f"maclab.{module}")
    assert getattr(maclab, name) is getattr(layer, name)


@pytest.mark.parametrize("module", list(EXPORTED) + ["config", "cli"])
def test_submodule_resolves(module):
    assert getattr(maclab, module) is importlib.import_module(f"maclab.{module}")


def test_star_import_binds_the_exported_set():
    namespace = {}
    exec("from maclab import *", namespace)
    del namespace["__builtins__"]
    expected = set(EXPORTED).union(*EXPORTED.values())
    assert set(namespace) == expected
    assert set(maclab.__all__) == expected


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'simulate'"):
        maclab.simulate
    assert not hasattr(maclab, "numpy")
