"""Workload definitions and output checks shared by the harness and worker.

Standard library only: the harness process never imports the program.
"""

import csv
import io
import json
import math
import os

DEFAULT_SEED = 11
SLOTS = 1_000_000
SMOKE_SLOTS = 20_000        # reduced size for the benchmark's own smoke tests
REPLICATIONS = 5
CLI_WORKERS = 2             # matches the 2 CPUs the benchmark was sized on

# Simulator inputs, as plain values so that both the program and the
# frozen oracle can build a SimConfig from them.
SIM_SPECS = {
    "sat-m1000": {"stations": 1000, "mode": "rts", "target_rate": 0.7,
                  "payload_model": "fixed", "payload": 34.0,
                  "arrival_rate": 0.0},
    "poisson-m50": {"stations": 50, "mode": "basic", "target_rate": 0.55,
                    "payload_model": "geometric", "payload": 34.0,
                    "arrival_rate": 2e-4},
    "replicated-cli": {"stations": 20, "mode": "rts", "target_rate": 0.7,
                       "payload_model": "fixed", "payload": 34.0,
                       "arrival_rate": 0.0},
}

# Closed-form commands, run in this order as one pass. The baseline range
# is kept whole on purpose: it reaches the station count where the
# legacy fixed point divides by zero (see README.md, "Known defect").
CLOSED_FORM = (
    ("tables-2", ["tables", "--table", "2"]),
    ("tables-3", ["tables", "--table", "3"]),
    ("stability", ["stability", "--mode", "basic", "--lambda", "0.05:1.99:0.001"]),
    ("analyze", ["analyze", "--mode", "rts", "--lambda", "0.01:2.0:0.0005"]),
    ("baseline", ["baseline", "--m", "10:1000:10"]),
    ("design", ["design", "--mode", "rts",
                "--stations", "10,20,50,100,200,500,1000"]),
)
KNOWN_DEFECT_OPS = {"baseline"}
REL_TOL = 1e-6              # closed-form outputs; room for closed forms over searches

WORKLOADS = ("sat-m1000", "poisson-m50", "replicated-cli", "closed-form-cli")
LIBRARY_WORKLOADS = ("sat-m1000", "poisson-m50")
LAYERS = ("sim", "model", "design", "legacy", "abtmac", "timing", "config", "cli")

# What the `maclab` console script runs.
CONSOLE = "import sys; from maclab.cli import main; sys.exit(main())"


def slots(smoke):
    return SMOKE_SLOTS if smoke else SLOTS


def build_config(pkg, workload, seed, duration):
    """SimConfig for a simulator workload, built from `pkg` (maclab or the oracle)."""
    spec = SIM_SPECS[workload]
    payload_cls = pkg.FixedPayload if spec["payload_model"] == "fixed" else pkg.GeometricPayload
    traffic = (pkg.PoissonTraffic(spec["arrival_rate"]) if spec["arrival_rate"]
               else pkg.SATURATED)
    return pkg.SimConfig(
        station_count=spec["stations"], mode=pkg.AccessMode(spec["mode"]),
        policy=pkg.Abtmac(pkg.AbtmacParams(spec["target_rate"])),
        payload=payload_cls(spec["payload"]), traffic=traffic,
        duration=duration, seed=seed)


def scenario_ini(seed, duration):
    """The bench-owned scenario file of `replicated-cli`."""
    spec = SIM_SPECS["replicated-cli"]
    return (f"[sim]\nstations = {spec['stations']}\nmode = {spec['mode']}\n"
            f"payload_model = {spec['payload_model']}\npayload = {spec['payload']}\n"
            f"duration = {duration}\nseed = {seed}\n\n"
            f"[policy]\nkind = abtmac\ntarget_rate = {spec['target_rate']}\n")


def write_scenario(work_dir, seed, duration):
    os.makedirs(work_dir, exist_ok=True)
    path = os.path.join(work_dir, f"scenario-s{seed}-d{duration}.ini")
    with open(path, "w") as fh:
        fh.write(scenario_ini(seed, duration))
    return path


def replicated_argv(scenario_path):
    return ["simulate", "--scenario", scenario_path,
            "--replications", str(REPLICATIONS), "--workers", str(CLI_WORKERS)]


def cli_ops(workload, scenario_path=None):
    """(op id, argv) pairs that make up one pass of a CLI workload."""
    if workload == "replicated-cli":
        return [("simulate", replicated_argv(scenario_path))]
    return list(CLOSED_FORM)


# ---------------------------------------------------------------- checks

def canonical(value):
    """JSON text that compares equal exactly when the values are bit-identical."""
    return json.dumps(value, sort_keys=True)


def check_sim_metrics(out, ref):
    """None if every field of the reference SimMetrics matches bit for bit."""
    for name, expected in ref.items():
        if name not in out:
            return f"field {name} missing"
        if canonical(out[name]) != canonical(expected):
            return f"field {name}: {out[name]!r} != reference {expected!r}"
    return None


def _same_cell(got, want):
    if got == want:
        return True
    try:
        a, b = float(got), float(want)
    except ValueError:
        return False
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def _rows(text):
    if "," in text.partition("\n")[0]:
        return list(csv.reader(io.StringIO(text)))
    return [line.split() for line in text.splitlines()]


def check_table(out, ref, prefix_only=False):
    """None if `out` matches `ref` cell by cell within REL_TOL.

    CSV text is split into cells, the design report into tokens.
    With `prefix_only`, `out` may carry rows past the end of `ref`.
    """
    got, want = _rows(out), _rows(ref)
    if len(got) < len(want) or (not prefix_only and len(got) != len(want)):
        return f"{len(got)} rows, reference has {len(want)}"
    for i, (g, w) in enumerate(zip(got, want)):
        if len(g) != len(w) or not all(_same_cell(a, b) for a, b in zip(g, w)):
            return f"row {i}: {g!r} != reference {w!r}"
    return None


def check_cli_op(op, ref, exit_code, stdout, stderr):
    """Classify one CLI operation: ("ok" | "known-defect" | "wrong", detail).

    An operation fails on a nonzero exit, an uncaught exception, or output
    that does not match the reference. A failure of an operation whose
    reference records a known defect, in the way it records, is
    "known-defect": it still counts as failed, but the output is not wrong.
    """
    if ref.get("known_defect"):
        if exit_code != 0:
            if any(marker in stderr for marker in ref["failure_markers"]):
                return "known-defect", stderr.strip().splitlines()[-1]
            return "wrong", f"exit {exit_code}: {stderr.strip()[-300:]}"
        # the defect is fixed: the rows the reference has must still match,
        # and each station count in the range must now yield its rows
        detail = check_table(stdout, ref["rows_before_failure"], prefix_only=True)
        if detail is None and len(_rows(stdout)) != ref["complete_rows"]:
            detail = f"{len(_rows(stdout))} rows, expected {ref['complete_rows']}"
        return ("wrong", detail) if detail else ("ok", None)
    if exit_code != 0:
        return "wrong", f"exit {exit_code}: {stderr.strip()[-300:]}"
    if ref.get("exact"):
        detail = None if stdout == ref["stdout"] else "output differs from reference"
    else:
        detail = check_table(stdout, ref["stdout"])
    return ("wrong", detail) if detail else ("ok", None)


def count_rows(text):
    """Result rows in a CLI output: CSV data rows, or report lines."""
    rows = _rows(text)
    return len(rows) - 1 if rows and "," in text.partition("\n")[0] else len(rows)


class Checker:
    """Checks outputs against a reference and tallies the operations."""

    def __init__(self, reference):
        self.ref = reference
        self.outcomes = {"ok": 0, "known-defect": 0, "wrong": 0}
        self.problems = []

    def record(self, op, outcome, detail):
        self.outcomes[outcome] += 1
        if outcome != "ok" and len(self.problems) < 20:
            self.problems.append({"op": op, "outcome": outcome, "detail": detail})
        return outcome

    def merge(self, doc):
        """Add the tallies a worker process reported."""
        for outcome, count in doc["outcomes"].items():
            self.outcomes[outcome] += count
        self.problems += doc["problems"][:20 - len(self.problems)]

    def sim(self, fields):
        detail = check_sim_metrics(fields, self.ref["metrics"])
        return self.record("run", "wrong" if detail else "ok", detail)

    def events(self, count):
        expected = self.ref["events"]
        return self.record("trace-hook", "ok" if count == expected else "wrong",
                           f"{count} events, reference has {expected}")

    def cli(self, op, code, out, err):
        return self.record(op, *check_cli_op(op, self.ref["ops"][op], code, out, err))

    @property
    def attempted(self):
        return sum(self.outcomes.values())

    @property
    def failed(self):
        return self.attempted - self.outcomes["ok"]
