"""Scenario files: flat INI with [timing], [sim], [policy] sections, and
QoS files, which hold only a [qos] section.

Every key is optional; omitted keys fall back to the defaults of the
record they fill, so a file may override just the pieces it cares
about. Unknown sections and keys are rejected, and so is any value
that does not parse as its key's type. See FORMATS.md for the full key
reference.
"""

import configparser

from .errors import ValidationError
from .timing import AccessMode, TimingParams, DEFAULT_TIMING

_SCENARIO_SECTIONS = ("timing", "sim", "policy")

_TIMING_KEYS = dict(TimingParams.__init__.__annotations__)     # field -> type
_SIM_KEYS = {"stations": int, "mode": AccessMode, "payload_model": str,
             "payload": float, "arrival_rate": float, "duration": int,
             "seed": int, "estimation_error_factor": float}
_LADDER_KEYS = {"cw_max": int, "retry_limit": int}
_POLICY_KEYS = {
    "legacy": {"cw_min": int, **_LADDER_KEYS},
    "abtmac": {"target_rate": float, "k": float, "k_prime": float,
               "m_source": str, "update_interval": int, **_LADDER_KEYS},
    "fixed": {"cw_min": int, **_LADDER_KEYS},
}


def read_config(path, sections=_SCENARIO_SECTIONS) -> configparser.ConfigParser:
    """Parse an INI file, rejecting any section outside `sections`."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        loaded = cp.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ValidationError(f"malformed config file {path}: {exc}") from None
    if not loaded:
        raise ValidationError(f"cannot read config file {path}")
    for name in cp.sections() + ([cp.default_section] if cp.defaults() else []):
        if name not in sections:
            raise ValidationError(f"unknown section [{name}] in {path}")
    return cp


def _read_section(cp, name, types):
    """The keys section `name` sets, each parsed by its type in `types`."""
    values = {}
    for key, raw in cp[name].items():
        if key not in types:
            raise ValidationError(f"unknown [{name}] key {key!r}; "
                                  f"expected one of {', '.join(types)}")
        try:
            values[key] = types[key](raw)
        except ValueError:
            raise ValidationError(f"[{name}] {key} = {raw!r} is not a valid "
                                  f"{types[key].__name__}") from None
    return values


def timing_from_config(cp) -> TimingParams:
    if not cp.has_section("timing"):
        return DEFAULT_TIMING
    return TimingParams(**_read_section(cp, "timing", _TIMING_KEYS))


def _policy_from_config(cp):
    from .abtmac import AbtmacParams
    from .legacy import DcfParams
    from .sim import Abtmac, FixedWindow, LegacyDcf
    kind = cp.get("policy", "kind", fallback="legacy")
    if kind not in _POLICY_KEYS:
        raise ValidationError(f"unknown policy kind {kind!r}")
    keys = _read_section(cp, "policy", {"kind": str, **_POLICY_KEYS[kind]})
    keys.pop("kind", None)
    if kind == "legacy":
        return LegacyDcf(DcfParams(**keys))
    if kind == "fixed":
        if "cw_min" not in keys:
            raise ValidationError("[policy] kind=fixed needs a cw_min key")
        return FixedWindow(**keys)
    outer = {k: keys.pop(k) for k in ("m_source", "update_interval") if k in keys}
    if "k" in keys:
        keys["k_const"] = keys.pop("k")
    # AbtmacParams has no default target; 0.55 is the basic-access operating point
    return Abtmac(AbtmacParams(**{"target_rate": 0.55, **keys}), **outer)


def scenario_from_config(cp):
    """The SimConfig a [timing]/[sim]/[policy] file describes."""
    # the simulator loads only for a scenario, not for a [timing] or [qos] file
    from .sim import FixedPayload, GeometricPayload, PoissonTraffic, SimConfig
    payload_models = {"fixed": FixedPayload, "geometric": GeometricPayload}
    if not cp.has_section("sim"):
        raise ValidationError("scenario file needs a [sim] section")
    keys = _read_section(cp, "sim", _SIM_KEYS)
    if "stations" not in keys:
        raise ValidationError("[sim] needs a stations key")
    keys["station_count"] = keys.pop("stations")

    model = keys.pop("payload_model", "fixed")
    if model not in payload_models:
        raise ValidationError(f"unknown payload_model {model!r}")
    payload = [keys.pop("payload")] if "payload" in keys else []

    arrival = keys.pop("arrival_rate", 0.0)
    if not 0 <= arrival <= 1:
        raise ValidationError(
            f"[sim] arrival_rate must be in [0, 1] (0 means saturated), got {arrival}")
    if arrival > 0:
        keys["traffic"] = PoissonTraffic(arrival)
    if cp.has_section("policy"):
        keys["policy"] = _policy_from_config(cp)
    return SimConfig(timing=timing_from_config(cp),
                     payload=payload_models[model](*payload), **keys)


def qos_from_config(cp) -> list:
    """[qos] keys `class.<id> = <count> <scale>` in file order."""
    from .abtmac import QosClass
    if not cp.has_section("qos"):
        return []
    classes = []
    for key, value in cp["qos"].items():
        if not key.startswith("class."):
            raise ValidationError(f"unknown [qos] key {key!r}")
        try:
            count, scale = value.split()
            classes.append(QosClass(class_id=key[len("class."):],
                                    station_count=int(count),
                                    backoff_scale=float(scale)))
        except ValueError:
            raise ValidationError(
                f"[qos] {key} needs '<count> <scale>', got {value!r}") from None
    return classes


def load_scenario(path):
    return scenario_from_config(read_config(path))
