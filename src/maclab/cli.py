"""Command-line harness.

Subcommands map onto the library layers: `analyze` sweeps the closed
forms, `stability` sweeps pole distances, `tables` reproduces the two
operating-point tables next to their reference values, `design` prints
the adopted operating points and tuned window sizes, `baseline` sweeps
the standard-backoff fixed point, and `simulate` drives the slotted
simulator from a scenario file.

Artifacts are CSV (one per command) written to stdout or, with --out,
into a directory under a fixed name. Floats are emitted with repr
precision so re-reading a CSV reproduces the values bit-identically.
Exit codes: 0 success, 1 analysis failure, 2 validation/usage error.
"""

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import os
import sys

from . import __version__, config as config_mod, design, legacy, model
from . import sim as sim_mod
from .abtmac import AbtmacParams, cw_min, per_class_delay, qos_rates
from .errors import AnalysisError, MaclabError, ValidationError
from .model import ModelPoint
from .sim import RNG_ALGORITHM
from .timing import AccessMode, DEFAULT_TIMING, derive_slot_durations

def _parse_range(text):
    """start:stop:step inclusive grid, or a single value."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return [float(parts[0])]
        if len(parts) != 3:
            raise ValueError
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ValidationError(
            f"range must be 'start:stop:step' or a single number, got {text!r}"
        ) from None
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValidationError(f"range {text!r} has a non-finite bound or step")
    if step <= 0 or stop < start:
        raise ValidationError(f"range {text!r} is empty or has non-positive step")
    count = (stop - start) / step
    if not math.isfinite(count):
        raise ValidationError(f"range {text!r} has more points than a float can count")
    return [start + i * step for i in range(int(round(count)) + 1)]


def _parse_list(text, cast=float):
    try:
        values = [cast(p) for p in text.split(",") if p]
    except ValueError:
        raise ValidationError(f"bad list value {text!r}") from None
    if not values:
        raise ValidationError(f"list {text!r} has no values")
    return values


def _timing(args):
    if args.timing_config:
        return config_mod.timing_from_config(
            config_mod.read_config(args.timing_config, ("timing",)))
    return DEFAULT_TIMING


def _slot_us(args, timing):
    return timing.slot * 1e6 if args.units == "us" else 1.0


@contextlib.contextmanager
def _artifact(args, filename):
    """Stream to --out/<filename>, printing its path once written, or to stdout."""
    if not args.out:
        yield sys.stdout
        return
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, filename)
    with open(path, "w", newline="") as fh:
        yield fh
    print(path)


def _write_rows(args, filename, header, rows):
    """CSV with a header row. Floats formatted via repr."""
    with _artifact(args, filename) as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([repr(v) if isinstance(v, float) else v for v in row]
                    for row in rows)


# ---------------------------------------------------------------- analyze

_FLUID_FIELDS = tuple(f.name for f in dataclasses.fields(model.FluidMetrics))
_UNSCALED = ("mean_collisions", "throughput")     # every other metric is in slots


def _cmd_analyze(args):
    timing = _timing(args)
    d = derive_slot_durations(timing)
    mode = AccessMode(args.mode)
    scale = _slot_us(args, timing)
    rows = []
    for rate in _parse_range(args.rates):
        m = model.evaluate(ModelPoint(rate, args.payload, mode), d)
        rows.append((rate, args.payload) + tuple(
            getattr(m, f) if f in _UNSCALED else getattr(m, f) * scale
            for f in _FLUID_FIELDS))
    _write_rows(args, "analyze.csv", ("rate", "payload") + _FLUID_FIELDS, rows)
    return 0


# ---------------------------------------------------------------- stability

def _cmd_stability(args):
    d = derive_slot_durations(_timing(args))
    mode = AccessMode(args.mode)
    rates = _parse_range(args.rates)
    payloads = [None] if args.payloads is None else _parse_list(args.payloads)
    rows = []
    for payload in payloads:
        for rate in rates:
            x = design.optimal_payload(rate, d) if payload is None else payload
            pt = ModelPoint(rate, x, mode)
            rows.append((rate, x, design.dominant_pole_distance(pt, d)))
    _write_rows(args, "stability.csv", ("rate", "payload", "pole_distance"), rows)
    return 0


# ---------------------------------------------------------------- tables

def _cmd_tables(args):
    timing = _timing(args)
    d = derive_slot_durations(timing)
    scale = _slot_us(args, timing)
    rows = []
    if args.table == 2:
        header = ("rate", "access_delay", "max_ratio", "min_ratio",
                  "ref_access_delay", "ref_max_ratio", "ref_min_ratio",
                  "delta_access_delay", "delta_max_ratio", "delta_min_ratio")
        for rate, ref in design.TABLE2_REFERENCE.items():
            pt = ModelPoint(rate, 34.0, AccessMode.RTS_CTS)
            delay = model.mean_access_delay(pt, d)
            bounds = design.tolerable_ratio_bounds(pt, 0.10, d)
            rows.append((rate, delay * scale, bounds.max_ratio, bounds.min_ratio,
                         ref["access_delay"] * scale, ref["max_ratio"],
                         ref["min_ratio"],
                         (delay - ref["access_delay"]) * scale,
                         bounds.max_ratio - ref["max_ratio"],
                         bounds.min_ratio - ref["min_ratio"]))
        _write_rows(args, "table2.csv", header, rows)
        return 0
    header = ("rate", "balance_payload", "payload", "access_delay",
              "delay_payload_ratio_pct", "throughput_pct", "max_ratio",
              "min_ratio", "ref_payload", "ref_access_delay",
              "ref_throughput_pct", "ref_max_ratio", "ref_min_ratio",
              "delta_payload", "delta_access_delay", "delta_throughput_pct")
    for rate, ref in design.TABLE3_REFERENCE.items():
        balance = design.optimal_payload(rate, d)
        # delay and throughput are evaluated at the reference whole-slot
        # payload so the comparison columns line up
        pt = ModelPoint(rate, float(ref["payload"]), AccessMode.BASIC)
        delay = model.mean_access_delay(pt, d)
        tp = model.throughput(pt, d) * 100.0
        bounds = design.tolerable_ratio_bounds(pt, 0.10, d)
        rows.append((rate, balance, ref["payload"], delay * scale,
                     delay / ref["payload"] * 100.0, tp,
                     bounds.max_ratio, bounds.min_ratio,
                     ref["payload"], ref["access_delay"] * scale,
                     ref["throughput_pct"], ref["max_ratio"], ref["min_ratio"],
                     balance - ref["payload"],
                     (delay - ref["access_delay"]) * scale,
                     tp - ref["throughput_pct"]))
    _write_rows(args, "table3.csv", header, rows)
    return 0


# ---------------------------------------------------------------- design

def _cmd_design(args):
    timing = _timing(args)
    d = derive_slot_durations(timing)
    mode = AccessMode(args.mode)
    rate, payload = design.recommended_rate(mode)
    if args.target_rate is not None:
        rate = args.target_rate
        if not 0 < rate <= model.RATE_MAX:
            raise ValidationError(f"target rate must be in (0, {model.RATE_MAX}], got {rate}")
        payload = design.optimal_payload(rate, d) if mode is AccessMode.BASIC else None
    lines = [f"mode: {mode.value}", f"attempt_rate: {rate}"]
    if payload is not None:
        lines.append(f"payload_slots: {round(payload)}")
    params = AbtmacParams(target_rate=rate)
    for m in _parse_list(args.stations, int):
        lines.append(f"cw_min[M={m}]: {cw_min(params, m)}")
    if args.qos:
        classes = config_mod.qos_from_config(config_mod.read_config(args.qos, ("qos",)))
        n_bar = model.mean_collisions(rate)
        scale = _slot_us(args, timing)
        for cid, class_rate in qos_rates(rate, classes).items():
            delay = per_class_delay(class_rate, payload, mode, n_bar, d)
            lines.append(f"qos[{cid}]: rate {class_rate} "
                         f"delay {delay * scale}")
    with _artifact(args, "design.txt") as fh:
        fh.writelines(line + "\n" for line in lines)
    return 0


# ---------------------------------------------------------------- baseline

def _cmd_baseline(args):
    timing = _timing(args)
    d = derive_slot_durations(timing)
    scale = _slot_us(args, timing)
    stations = _parse_range(args.stations)
    if not all(m.is_integer() for m in stations):
        raise ValidationError(f"station counts must be whole numbers, got {args.stations!r}")
    params = legacy.DcfParams(cw_min=args.cw_min, cw_max=args.cw_max,
                              retry_limit=args.retry_limit)
    rows = []
    for m in map(int, stations):
        rate = legacy.legacy_attempt_rate(m, params)
        for mode in (AccessMode.BASIC, AccessMode.RTS_CTS):
            pt = ModelPoint(rate, args.payload, mode)
            rows.append((m, mode.value, rate, model.throughput(pt, d),
                         model.mean_access_delay(pt, d) * scale))
    _write_rows(args, "baseline.csv",
                ("stations", "mode", "rate", "throughput", "access_delay"), rows)
    return 0


# ---------------------------------------------------------------- simulate

def _cmd_simulate(args):
    m_estimates = () if args.m_ratios is None else _parse_list(args.m_ratios)
    payloads = () if args.sweep_payloads is None else _parse_list(args.sweep_payloads)
    sweep = bool(m_estimates or payloads)
    if args.replications < 1:
        raise ValidationError(f"--replications must be at least 1, got {args.replications}")
    if args.trace and (sweep or args.replications > 1):
        raise ValidationError("event tracing applies to single runs only")
    if sweep and args.replications > 1:
        raise ValidationError("the sensitivity sweep takes no --replications")
    cfg = config_mod.load_scenario(args.scenario)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.duration is not None:
        overrides["duration"] = args.duration
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    timing = cfg.timing
    scale = _slot_us(args, timing)

    if sweep:
        rows = sim_mod.sensitivity_suite(cfg, m_estimates=m_estimates, payloads=payloads)
        columns = sim_mod.SENSITIVITY_COLUMNS
        table = [tuple(r[c] * scale if c == "mean_access_delay" else r[c]
                       for c in columns) for r in rows]
        _write_rows(args, "sensitivity.csv", columns, table)
        return 0

    if args.replications > 1:
        summary = sim_mod.run_replicated(cfg, args.replications)
        header = ["metric", "mean", "ci95_half_width"]
        rows = []
        for name in summary.mean:
            factor = scale if name == "mean_access_delay" else 1.0
            rows.append((name, summary.mean[name] * factor,
                         summary.half_width[name] * factor))
        _write_rows(args, "replications.csv", header, rows)
        return 0

    trace_fh = None
    trace = None
    if args.trace:
        parent = os.path.dirname(args.trace)
        if parent:
            os.makedirs(parent, exist_ok=True)
        trace_fh = open(args.trace, "w")
        def trace(event):
            trace_fh.write(json.dumps(event) + "\n")
    try:
        metrics = sim_mod.run(cfg, trace=trace)
    finally:
        if trace_fh:
            trace_fh.close()
    doc = dataclasses.asdict(metrics)
    doc["mean_access_delay"] *= scale
    doc["per_station_success"] = ";".join(str(v) for v in doc["per_station_success"])
    _write_rows(args, "metrics.csv", tuple(doc), (tuple(doc.values()),))
    return 0


# ---------------------------------------------------------------- plumbing

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="maclab",
        description="Contention-MAC laboratory: closed-form model, window "
                    "tuning, and slotted simulation")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, timing=True, units=True):
        p.add_argument("--out", default=None,
                       help="directory for artifacts (default: stdout)")
        if timing:
            p.add_argument("--timing-config", default=None,
                           help="INI file with only a [timing] section")
        if units:
            p.add_argument("--units", choices=("slots", "us"), default="slots",
                           help="unit for delay outputs")

    p = sub.add_parser("analyze", help="closed-form metric sweep over attempt rate")
    p.add_argument("--mode", choices=("basic", "rts"), required=True)
    p.add_argument("--lambda", dest="rates", required=True,
                   help="attempt-rate grid start:stop:step")
    p.add_argument("--payload", type=float, default=34.0)
    common(p)

    p = sub.add_parser("stability", help="dominant-pole distance sweep")
    p.add_argument("--mode", choices=("basic", "rts"), required=True)
    p.add_argument("--lambda", dest="rates", required=True)
    p.add_argument("--payloads", default=None,
                   help="comma list of payloads; default: balance payload per rate")
    common(p, units=False)

    p = sub.add_parser("tables", help="operating-point tables with references")
    p.add_argument("--table", type=int, choices=(2, 3), required=True)
    common(p)

    p = sub.add_parser("design", help="recommended operating point and windows")
    p.add_argument("--mode", choices=("basic", "rts"), required=True)
    p.add_argument("--stations", default="100",
                   help="comma list of station counts for window sizing")
    p.add_argument("--target-rate", type=float, default=None,
                   help="override the adopted attempt rate")
    p.add_argument("--qos", default=None,
                   help="INI file with only a [qos] section to split rates over")
    common(p)

    p = sub.add_parser("baseline", help="standard-backoff fixed-point sweep")
    p.add_argument("--m", dest="stations", required=True,
                   help="station-count grid start:stop:step")
    p.add_argument("--payload", type=float, default=34.0)
    p.add_argument("--cw-min", type=int, default=32)
    p.add_argument("--cw-max", type=int, default=1024)
    p.add_argument("--retry-limit", type=int, default=7)
    common(p)

    p = sub.add_parser("simulate", help="run the slotted simulator")
    p.add_argument("--scenario", required=True, help="scenario INI file")
    p.add_argument("--replications", type=int, default=1)
    p.add_argument("--duration", type=int, default=None,
                   help="override scenario duration (slots)")
    p.add_argument("--trace", default=None,
                   help="write a JSON-lines event trace to this file")
    p.add_argument("--m-ratios", default=None,
                   help="sensitivity: comma list of assumed/true node ratios")
    p.add_argument("--sweep-payloads", default=None,
                   help="sensitivity: comma list of payloads (slots)")
    p.add_argument("--seed", type=int, default=None,
                   help="override the scenario's random seed")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes for replications (accepted; "
                        "replications still run serially)")
    common(p, timing=False)

    sub.add_parser("version", help="print version and RNG identifier")
    return parser


_HANDLERS = {
    "analyze": _cmd_analyze,
    "stability": _cmd_stability,
    "tables": _cmd_tables,
    "design": _cmd_design,
    "baseline": _cmd_baseline,
    "simulate": _cmd_simulate,
}


def execute(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    if args.command == "version":
        print(f"maclab {__version__} (rng: {RNG_ALGORITHM})")
        return 0
    try:
        return _HANDLERS[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AnalysisError as exc:
        print(f"analysis failed: {exc}", file=sys.stderr)
        return 1
    except MaclabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(execute(sys.argv[1:]))


if __name__ == "__main__":
    main()
