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
Exit codes: 0 success, 2 validation/usage error, 1 when stdout closes
before the output is written (`maclab ... | head`), with no traceback.
"""

import argparse
import contextlib
import csv
import math
import os
import sys

# Each handler imports the layers it runs, so the closed-form commands
# never load the simulator, the scenario reader or numpy.
from . import RNG_ALGORITHM, __version__, model
from .errors import ValidationError
from .model import ModelPoint
from .timing import AccessMode, DEFAULT_TIMING, derive_slot_durations

_MAX_RANGE_POINTS = 10**7     # a grid is built whole before its first row prints


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
    if not math.isfinite(count) or round(count) >= _MAX_RANGE_POINTS:
        raise ValidationError(f"range {text!r} has more than {_MAX_RANGE_POINTS} points")
    return [start + i * step for i in range(int(round(count)) + 1)]


def _parse_list(text, cast=float):
    try:
        values = [cast(p) for p in text.split(",") if p]
    except ValueError:
        raise ValidationError(f"bad list value {text!r}") from None
    if not values:
        raise ValidationError(f"list {text!r} has no values")
    return values


def _slot_us(args, timing):
    return timing.slot * 1e6 if args.units == "us" else 1.0


def _closed_form(args):
    """The --timing-config (or default) slot durations and --units delay factor."""
    timing = DEFAULT_TIMING
    if args.timing_config is not None:
        from . import config
        timing = config.timing_from_config(config.read_config(args.timing_config, ("timing",)))
    return derive_slot_durations(timing), _slot_us(args, timing)


def _create(path):
    """Open `path` for writing, creating its directory; failing to is a usage error."""
    parent = os.path.dirname(path)
    try:
        if parent:
            os.makedirs(parent, exist_ok=True)
        return open(path, "w", newline="")
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from None


@contextlib.contextmanager
def _artifact(args, filename):
    """Stream to --out/<filename>, printing its path once written, or to stdout."""
    if args.out is None:
        yield sys.stdout
        return
    if not args.out:
        raise ValidationError("--out needs a directory name")
    path = os.path.join(args.out, filename)
    with _create(path) as fh:
        yield fh
    print(path)


def _write_rows(args, filename, header, rows):
    """CSV with a header row. csv.writer formats floats via repr."""
    with _artifact(args, filename) as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


# ---------------------------------------------------------------- analyze

_FLUID_FIELDS = model.FluidMetrics.__slots__
_UNSCALED = ("mean_collisions", "throughput")     # every other metric is in slots


def _cmd_analyze(args):
    d, scale = _closed_form(args)
    mode = AccessMode(args.mode)
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
    from . import design
    d, _ = _closed_form(args)
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
    from . import design
    d, scale = _closed_form(args)
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
    from . import abtmac, design
    d, scale = _closed_form(args)
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
    params = abtmac.AbtmacParams(target_rate=rate)
    for m in _parse_list(args.stations, int):
        lines.append(f"cw_min[M={m}]: {abtmac.cw_min(params, m)}")
    if args.qos is not None:
        from . import config
        classes = config.qos_from_config(config.read_config(args.qos, ("qos",)))
        n_bar = model.mean_collisions(rate)
        for cid, class_rate in abtmac.qos_rates(rate, classes).items():
            delay = abtmac.per_class_delay(class_rate, payload, mode, n_bar, d)
            lines.append(f"qos[{cid}]: rate {class_rate} "
                         f"delay {delay * scale}")
    with _artifact(args, "design.txt") as fh:
        fh.writelines(line + "\n" for line in lines)
    return 0


# ---------------------------------------------------------------- baseline

def _cmd_baseline(args):
    from . import legacy
    d, scale = _closed_form(args)
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
    import dataclasses
    from . import config, sim
    m_estimates = () if args.m_ratios is None else _parse_list(args.m_ratios)
    payloads = () if args.sweep_payloads is None else _parse_list(args.sweep_payloads)
    sweep = bool(m_estimates or payloads)
    for name in ("replications", "workers"):
        if getattr(args, name) < 1:
            raise ValidationError(f"--{name} must be at least 1, got {getattr(args, name)}")
    if args.trace == "":
        raise ValidationError("--trace needs a file name")
    if args.trace and (sweep or args.replications > 1):
        raise ValidationError("event tracing applies to single runs only")
    if sweep and args.replications > 1:
        raise ValidationError("the sensitivity sweep takes no --replications")
    cfg = config.load_scenario(args.scenario)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.duration is not None:
        overrides["duration"] = args.duration
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    scale = _slot_us(args, cfg.timing)

    if sweep:
        rows = sim.sensitivity_suite(cfg, m_estimates=m_estimates, payloads=payloads)
        columns = sim.SENSITIVITY_COLUMNS
        table = [tuple(r[c] * scale if c == "mean_access_delay" else r[c]
                       for c in columns) for r in rows]
        _write_rows(args, "sensitivity.csv", columns, table)
        return 0

    if args.replications > 1:
        summary = sim.run_replicated(cfg, args.replications)
        header = ["metric", "mean", "ci95_half_width"]
        rows = []
        for name in summary.mean:
            factor = scale if name == "mean_access_delay" else 1.0
            rows.append((name, summary.mean[name] * factor,
                         summary.half_width[name] * factor))
        _write_rows(args, "replications.csv", header, rows)
        return 0

    trace_fh = trace = None
    if args.trace:
        import json
        trace_fh = _create(args.trace)
        def trace(event):
            trace_fh.write(json.dumps(event) + "\n")
    try:
        metrics = sim.run(cfg, trace=trace)
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
        else:
            p.set_defaults(units="slots")       # stability prints no delays

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


def main():
    try:
        code = execute(sys.argv[1:])
        sys.stdout.flush()      # a closed stdout fails here, inside the try
    except BrokenPipeError:
        # as in the "Note on SIGPIPE" of Python's signal docs: point stdout
        # at devnull so the flush at exit cannot fail again, and exit 1
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
