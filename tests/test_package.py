"""The package namespace: every public name resolves, most on first use.
The closed-form records behave as the frozen dataclasses they replaced."""

import copy
import dataclasses
import importlib
import pickle

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
    "design": ["RobustnessBounds", "dominant_pole_distance", "minimize_overhead",
               "optimal_payload", "recommended_rate", "tolerable_ratio_bounds"],
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


# one valid positional argument list per record, every field set
RECORDS = {
    "TimingParams": (2e6, 9e-6, 10e-6, 34e-6, 72, 24, 112, 160, 112),
    "SlotDurations": (8.0, 5.6, 5.6, 0.5, 2.5, 18.2, 9.6),
    "ModelPoint": (0.7, 34.0, maclab.AccessMode.RTS_CTS),
    "FluidMetrics": (0.4, 27.6, 52.3, 3.9, 0.45, 13.8, 41.2),
    "RobustnessBounds": (9.6, 0.91, 0.1),
    "DcfParams": (16, 1024, 6),
    "AbtmacParams": (0.55, 1.5, 2.0, 512, 5),
    "QosClass": ("voice", 10, 0.25),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_behaves_as_a_frozen_dataclass(name):
    cls, args = getattr(maclab, name), RECORDS[name]
    twin = dataclasses.make_dataclass(cls.__qualname__, cls.__match_args__, frozen=True)
    rec = cls(*args)
    assert not isinstance(rec, tuple) and not hasattr(rec, "__dict__")
    assert [getattr(rec, f) for f in cls.__match_args__] == list(args)
    assert cls(**dict(zip(cls.__match_args__, args))) == rec
    assert repr(rec) == repr(twin(*args))
    assert hash(rec) == hash(twin(*args))
    assert rec != twin(*args) and rec != args
    assert pickle.loads(pickle.dumps(rec)) == rec
    assert copy.deepcopy(rec) == rec and copy.copy(rec) == rec
    first = cls.__match_args__[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(rec, first, args[0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(rec, first)
    assert rec.replace() == rec
    changed = rec.replace(**{first: args[0] * 2})
    assert changed != rec and getattr(changed, first) == args[0] * 2
    with pytest.raises(TypeError):
        rec.replace(no_such_field=1)


def test_record_defaults():
    assert maclab.TimingParams() == maclab.TimingParams(
        1e6, 20e-6, 10e-6, 50e-6, 144, 48, 112, 160, 112)
    assert maclab.DcfParams() == maclab.DcfParams(32, 1024, 7)
    assert maclab.AbtmacParams(0.7) == maclab.AbtmacParams(0.7, 1.0, 1.0, 1024, 7)


def test_records_validate_when_replaced():
    with pytest.raises(maclab.DomainError):
        maclab.ModelPoint(0.7, 34.0, maclab.AccessMode.BASIC).replace(rate=6.0)
    with pytest.raises(maclab.ValidationError):
        maclab.DcfParams().replace(cw_max=1000)
    with pytest.raises(maclab.ValidationError):
        maclab.AbtmacParams(0.7).replace(k_prime=0.0)
