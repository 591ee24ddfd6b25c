"""In-process side of the benchmark, run in a fresh interpreter by run.py.

Modes:
  setup    import maclab.cli and build the workload's configs, then exit;
           run.py times this whole process as the set-up time
  measure  time `maclab.run` passes of a library workload, untraced
  trace    untraced passes, then the layer tracer installed and traced
           passes; CLI workloads call `maclab.cli.execute` in-process

The interpreter must find maclab under ./src of the working directory;
the worker refuses any other copy. Every output is checked against the
reference file run.py hands over, and the result goes to --result as JSON.
"""

import argparse
import collections
import contextlib
import dataclasses
import io
import json
import os
import statistics
import sys
import time
import traceback

import common


def _load_program():
    import maclab
    import maclab.cli
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(maclab.__file__).startswith(src + os.sep):
        sys.exit(f"maclab was imported from {maclab.__file__}, not from {src}")
    return maclab


def _sim_configs(maclab, args):
    """The SimConfigs one pass simulates (one per replication for replicated-cli)."""
    duration = common.slots(args.smoke)
    if args.workload in common.LIBRARY_WORKLOADS:
        return [common.build_config(maclab, args.workload, args.seed, duration)]
    if args.workload == "replicated-cli":
        base = maclab.config.load_scenario(args.scenario)
        return [dataclasses.replace(base, seed=base.seed + i)
                for i in range(common.REPLICATIONS)]
    return []


def _execute(maclab, argv):
    """maclab.cli.execute with output captured, as (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = maclab.cli.execute(argv)
        except Exception:       # an uncaught exception is how the command fails
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def _passes(seconds, run_one):
    """Run passes back to back while the next one is expected to fit in `seconds`."""
    walls = [run_one(0)]
    start = time.perf_counter() - walls[0]
    while time.perf_counter() - start + walls[-1] <= seconds:
        walls.append(run_one(len(walls)))
    return walls


def _pass_fn(maclab, args, checker, configs):
    """One timed pass of the workload; returns its wall seconds."""
    if args.workload in common.LIBRARY_WORKLOADS:
        def one(_i):
            start = time.perf_counter()
            metrics = maclab.run(configs[0])
            wall = time.perf_counter() - start
            checker.sim(dataclasses.asdict(metrics))
            return wall
        return one

    ops = common.cli_ops(args.workload, args.scenario)

    def one(_i):
        results = []
        start = time.perf_counter()
        for _op, argv in ops:
            results.append(_execute(maclab, argv))
        wall = time.perf_counter() - start
        for (op, _argv), result in zip(ops, results):
            checker.cli(op, *result)
        return wall
    return one


class EventClock:
    """trace= hook: counts channel events and the host time between them."""

    def __init__(self):
        self.counts = collections.Counter()
        self.gaps = collections.defaultdict(list)
        self.last = None

    def start(self):
        self.last = time.perf_counter()

    def __call__(self, event):
        now = time.perf_counter()
        self.gaps[event["kind"]].append(now - self.last)
        self.counts[event["kind"]] += 1
        self.last = now


def _sim_ratios(all_metrics):
    succ = sum(m.successes for m in all_metrics)
    events = sum(m.successes + m.collisions + m.drops for m in all_metrics)
    idle = sum(m.idle_slots for m in all_metrics)
    return succ / events, idle / events


def measure(maclab, args, checker, configs):
    # let lazy set-up finish before timing: one short run of the same config
    maclab.run(dataclasses.replace(configs[0], duration=common.SMOKE_SLOTS))
    walls = _passes(args.seconds, _pass_fn(maclab, args, checker, configs))
    return {"wall_s": walls}


def trace(maclab, args, checker, configs):
    import tracer as tracer_mod

    started = time.perf_counter()
    untraced = _passes(args.seconds / 2, _pass_fn(maclab, args, checker, configs))
    samples = collections.defaultdict(list)

    # simulator layer: untraced run time, then the trace= hook, per config
    events = drops = 0
    if configs:
        if args.workload == "replicated-cli":
            serial = 0.0
            for cfg in configs:
                start = time.perf_counter()
                maclab.run(cfg)
                serial += time.perf_counter() - start
        clock = EventClock()
        hooked = []
        for cfg in configs:
            clock.start()
            hooked.append(maclab.run(cfg, trace=clock))
        events = sum(clock.counts.values())
        drops = clock.counts["drop"]
        checker.events(events)
        if args.workload in common.LIBRARY_WORKLOADS:
            checker.sim(dataclasses.asdict(hooked[0]))
            samples["sim.us_per_event"] = [w / events * 1e6 for w in untraced]
        else:
            samples["sim.us_per_event"] = [serial / events * 1e6]
        for kind in ("success", "collision"):
            samples[f"sim.{kind}_gap_us_p50"] = [statistics.median(clock.gaps[kind]) * 1e6]
        samples["sim.success_ratio"], samples["sim.idle_slots_per_event"] = (
            [v] for v in _sim_ratios(hooked))
    else:       # the closed forms simulate nothing
        for name in ("us_per_event", "success_gap_us_p50", "collision_gap_us_p50",
                     "success_ratio", "idle_slots_per_event"):
            samples["sim." + name] = [0.0]
    samples["sim.events"] = [events]
    samples["sim.drops"] = [drops]

    tracer = tracer_mod.Tracer()
    wrapped = tracer_mod.install(tracer)
    one = _pass_fn(maclab, args, checker, configs)
    per_pass = []

    def traced_pass(i):
        before = tracer.snapshot()
        wall, _ = tracer.run_pass(i, lambda: one(i))
        after = tracer.snapshot()
        per_pass.append({name: [a - b for a, b in zip(stat, before.get(name, [0, 0.0, 0.0]))]
                         for name, stat in after.items()})
        return wall

    remaining = args.seconds - (time.perf_counter() - started)
    traced = _passes(remaining, traced_pass)
    tracer.write_spans(args.spans)

    def stat(p, name, field):
        return p.get(name, [0, 0.0, 0.0])[field]

    for p in per_pass:
        for name in ("model.evaluate", "model.mean_collisions", "design.optimal_payload",
                     "abtmac.cw_min", "timing.derive_slot_durations"):
            samples[f"{name}.calls"].append(stat(p, name, 0))
        for name in ("model.evaluate", "design.dominant_pole_distance",
                     "design.tolerable_ratio_bounds", "legacy.legacy_attempt_rate"):
            calls = stat(p, name, 0)
            samples[f"{name}.us_per_call"].append(stat(p, name, 1) / calls * 1e6 if calls else 0.0)
        for inner, outer in (("design.delay_characteristic", "design.dominant_pole_distance"),
                             ("legacy.mean_backoff", "legacy.legacy_attempt_rate")):
            solves = stat(p, outer, 0)
            samples[f"{inner}.per_solve"].append(stat(p, inner, 0) / solves if solves else 0.0)
        samples["sim.run_replicated.s"].append(stat(p, "sim.run_replicated", 1))
        samples["config.load_scenario.s"].append(stat(p, "config.load_scenario", 1))
        samples["cli.execute.self_s"].append(stat(p, "cli.execute", 2))
        for layer in common.LAYERS:
            samples[f"{layer}.self_s"].append(
                sum(s[2] for name, s in p.items() if name.startswith(layer + ".")))
    span = statistics.median(samples["sim.run_replicated.s"])
    samples["sim.replicated_overlap"] = [serial / span if span else 0.0] \
        if args.workload == "replicated-cli" else [0.0]
    samples["trace.overhead_ratio"] = [statistics.median(traced) / statistics.median(untraced)]
    counts = [{name: s[0] for name, s in p.items()} for p in per_pass]
    return {"untraced_wall_s": untraced, "traced_wall_s": traced,
            "wrapped_functions": wrapped, "counts_repeat": all(c == counts[0] for c in counts),
            "calls_per_pass": counts[0], "samples": samples}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workload", choices=common.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--scenario", help="scenario INI of replicated-cli")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--reference", help="reference JSON to check outputs against")
    parser.add_argument("--result", help="where to write the result JSON")
    parser.add_argument("--spans", help="where to write the traced spans (gzip JSON lines)")
    args = parser.parse_args(argv)

    maclab = _load_program()
    configs = _sim_configs(maclab, args)
    if args.mode == "setup":
        return
    with open(args.reference, encoding="utf-8", newline="") as fh:
        checker = common.Checker(json.load(fh))
    doc = (measure if args.mode == "measure" else trace)(maclab, args, checker, configs)
    doc.update(outcomes=checker.outcomes, problems=checker.problems)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    main()
