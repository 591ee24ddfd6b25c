"""Reference outputs the benchmark checks the program against.

For the default seed at full size, references are the files under
`reference/`, recorded from the program at the commit that defined the
benchmark. For any other seed or size, simulator references are computed
by the frozen copy of that program in `oracle/`. Closed-form outputs do
not depend on the seed, so their recorded reference always applies.

Run this file from the repository root to record the references again:

    python3 perfbench/reference.py
"""

import csv
import dataclasses
import gzip
import io
import json
import os
import subprocess
import sys

import common

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
FAILURE_MARKERS = ["ZeroDivisionError", "analysis failed"]


def _path(workload):
    suffix = ".json.gz" if workload == "closed-form-cli" else ".json"
    return os.path.join(REFERENCE_DIR, workload + suffix)


def _load(workload):
    path = _path(workload)
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "rt", encoding="utf-8", newline="") as fh:
        return json.load(fh)


def _save(workload, doc):
    path = _path(workload)
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "wt", encoding="utf-8", newline="") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def replications_csv(summary):
    """replications.csv as `maclab simulate --replications` writes it (slot units)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["metric", "mean", "ci95_half_width"])
    writer.writerows([name, repr(summary.mean[name]), repr(summary.half_width[name])]
                     for name in summary.mean)
    return buf.getvalue()


def simulate(pkg, workload, seed, duration):
    """Reference for a simulator workload, computed by `pkg` in this process.

    `events` counts every trace callback (success, collision, drop) of one
    pass; the output check proves the program simulated the same events.
    """
    cfg = common.build_config(pkg, workload, seed, duration)
    events = [0]

    def count(_event):
        events[0] += 1

    if workload in common.LIBRARY_WORKLOADS:
        metrics = pkg.run(cfg, trace=count)
        return {"seed": seed, "duration": duration, "events": events[0],
                "metrics": dataclasses.asdict(metrics)}
    # run_replicated calls its module's `run`; count through it
    real_run = pkg.sim.run
    pkg.sim.run = lambda config, trace=None: real_run(config, trace=count)
    try:
        summary = pkg.sim.run_replicated(cfg, common.REPLICATIONS)
    finally:
        pkg.sim.run = real_run
    return {"seed": seed, "duration": duration, "events": events[0],
            "ops": {"simulate": {"exit": 0, "exact": True,
                                 "stdout": replications_csv(summary)}}}


def reference_for(workload, seed, smoke):
    """The reference a run of `workload` is checked against."""
    duration = common.slots(smoke)
    if workload == "closed-form-cli":
        return _load(workload)
    if seed == common.DEFAULT_SEED and not smoke:
        return _load(workload)
    import oracle
    return simulate(oracle, workload, seed, duration)


# ---------------------------------------------------------------- recording

def _cli(argv, env):
    proc = subprocess.run([sys.executable, "-c", common.CONSOLE, *argv], env=env,
                          capture_output=True)
    return (proc.returncode, proc.stdout.decode("utf-8"),
            proc.stderr.decode("utf-8", errors="replace"))


def _record_closed_form(env, maclab):
    ops = {}
    for op, argv in common.CLOSED_FORM:
        code, out, err = _cli(argv, env)
        if code == 0:
            ops[op] = {"exit": 0, "stdout": out}
            continue
        if op not in common.KNOWN_DEFECT_OPS:
            raise RuntimeError(f"{op} failed: {err}")
        start, stop, step = (int(x) for x in argv[-1].split(":"))
        stations = list(range(start, stop + 1, step))
        failing = None
        for m in stations:
            try:
                maclab.legacy_attempt_rate(m)
            except ZeroDivisionError:
                failing = m
                break
        prefix = argv[:-1] + [f"{start}:{failing - step}:{step}"]
        prefix_code, prefix_out, prefix_err = _cli(prefix, env)
        if prefix_code != 0:
            raise RuntimeError(f"{op} {prefix[-1]} failed: {prefix_err}")
        ops[op] = {"exit": code, "known_defect": f"ZeroDivisionError in mean_backoff "
                   f"from legacy_attempt_rate({failing}); no rows printed",
                   "failure_markers": FAILURE_MARKERS, "stderr_tail": err.strip().splitlines()[-1],
                   "rows_before_failure": prefix_out,
                   "complete_rows": 1 + 2 * len(stations)}
    return {"ops": ops}


def record(root):
    """Record every reference from the program in `root/src`."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import maclab
    env = dict(os.environ, PYTHONPATH=src)
    seed, duration = common.DEFAULT_SEED, common.SLOTS
    for workload in common.LIBRARY_WORKLOADS:
        _save(workload, simulate(maclab, workload, seed, duration))
    doc = simulate(maclab, "replicated-cli", seed, duration)
    work = os.path.join(root, ".perfbench", "work")
    scenario = common.write_scenario(work, seed, duration)
    code, out, err = _cli(common.replicated_argv(scenario), env)
    if code != 0 or out != doc["ops"]["simulate"]["stdout"]:
        raise RuntimeError(f"simulate disagrees with run_replicated (exit {code}): {err}")
    _save("replicated-cli", doc)
    _save("closed-form-cli", _record_closed_form(env, maclab))


if __name__ == "__main__":
    record(os.getcwd())
