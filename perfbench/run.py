"""maclab benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload sat-m1000 --seed 11 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout; the program is imported from ./src.
With --trace 0 the end-to-end metrics of BENCHMARK.json are measured,
with --trace 1 the per-layer ones. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. A result
file with a manifest goes to .perfbench/results/. See perfbench/README.md.
"""

import argparse
import datetime
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import common
import reference

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 5
RUN_DEADLINE_S = 170        # every run must end well inside 180 s
RSS_SAMPLE_S = 0.05
PAGE_KB = os.sysconf("SC_PAGE_SIZE") // 1024


class TreeRss(threading.Thread):
    """Samples the summed resident memory of a process and its descendants."""

    def __init__(self, pid):
        super().__init__(daemon=True)
        self.pid = pid
        self.peak_kb = 0
        self.done = threading.Event()

    def _tree(self, pid):
        pids = [pid]
        try:
            for task in os.listdir(f"/proc/{pid}/task"):
                with open(f"/proc/{pid}/task/{task}/children") as fh:
                    for child in fh.read().split():
                        pids.extend(self._tree(int(child)))
        except OSError:         # the process ended while we looked
            pass
        return pids

    @staticmethod
    def _rss_kb(pid):
        try:
            with open(f"/proc/{pid}/statm") as fh:
                return int(fh.read().split()[1]) * PAGE_KB
        except OSError:
            return 0

    def run(self):
        while not self.done.wait(RSS_SAMPLE_S):
            self.peak_kb = max(self.peak_kb, sum(map(self._rss_kb, self._tree(self.pid))))


def run_tree(cmd, env, out_path, err_path, timeout, sample_rss=False):
    """Run cmd to completion; returns (exit code, wall seconds, peak memory KiB).

    The peak is the larger of the sampled sum over the process tree and
    the kernel's high-water mark of the largest process in it. On timeout
    the whole process group is killed; either way nothing is left running.
    """
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env,
                                start_new_session=True)
        killer = threading.Timer(max(timeout, 1.0), os.killpg, (proc.pid, signal.SIGKILL))
        killer.start()
        sampler = TreeRss(proc.pid) if sample_rss else None
        if sampler:
            sampler.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            killer.cancel()
            if sampler:
                sampler.done.set()
                sampler.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        _reap_group(proc.pid)
    peak = max(usage.ru_maxrss, sampler.peak_kb if sampler else 0)
    return proc.returncode, wall, peak


def _reap_group(pgid):
    """Kill and wait out anything the command left behind in its group."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    while True:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def summarize(values):
    """Median and quartiles as statistics.quantiles gives them."""
    values = list(values)
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3}


def _read(path):
    with open(path, "rb") as fh:
        return fh.read().decode("utf-8", errors="replace")


class Run:
    def __init__(self, root, bench, workload, args):
        self.root, self.bench, self.workload, self.args = root, bench, workload, args
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.tmp = os.path.join(root, ".perfbench", "tmp", f"{os.getpid()}-{workload}")
        os.makedirs(self.tmp, exist_ok=True)
        os.makedirs(os.path.join(root, ".perfbench", "results"), exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.scenario = (common.write_scenario(os.path.join(root, ".perfbench", "work"),
                                               args.seed, common.slots(args.smoke))
                         if workload == "replicated-cli" else None)
        self.ref = reference.reference_for(workload, args.seed, args.smoke)
        self.ref_path = os.path.join(self.tmp, "reference.json")
        with open(self.ref_path, "w", encoding="utf-8", newline="") as fh:
            json.dump(self.ref, fh)
        self.spans = os.path.join(root, ".perfbench", "results",
                                  f"{workload}-seed{args.seed}-{os.getpid()}.spans.jsonl.gz")
        self.checker = common.Checker(self.ref)

    def remaining(self):
        return self.deadline - time.monotonic()

    def _worker(self, mode, sample_rss=False):
        result = os.path.join(self.tmp, f"{mode}.json")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
               "--workload", self.workload, "--seed", str(self.args.seed),
               "--seconds", str(self.args.seconds), "--reference", self.ref_path,
               "--result", result,
               "--spans", self.spans]
        if self.scenario:
            cmd += ["--scenario", self.scenario]
        if self.args.smoke:
            cmd.append("--smoke")
        err = os.path.join(self.tmp, f"{mode}.err")
        code, wall, peak = run_tree(cmd, self.env, os.path.join(self.tmp, f"{mode}.out"),
                                    err, self.remaining(), sample_rss)
        if code != 0:
            raise RuntimeError(f"worker {mode} exited {code}: {_read(err)[-2000:]}")
        if mode == "setup":
            return wall
        with open(result, encoding="utf-8") as fh:
            doc = json.load(fh)
        self.checker.merge(doc)
        doc["peak_kb"] = peak
        return doc

    def setup(self):
        self._worker("setup")           # untimed: compiles bytecode, fills file caches
        return [self._worker("setup") for _ in range(SETUP_REPEATS)]

    def cli_passes(self):
        """Passes of a CLI workload, one fresh `maclab` process per command."""
        ops = common.cli_ops(self.workload, self.scenario)
        walls, rows, peaks = [], [], []
        budget_start = time.perf_counter()
        while not walls or time.perf_counter() - budget_start + walls[-1] <= self.args.seconds:
            wall = peak = pass_rows = 0
            for op, argv in ops:
                out, err = os.path.join(self.tmp, op + ".out"), os.path.join(self.tmp, op + ".err")
                code, op_wall, op_peak = run_tree([sys.executable, "-c", common.CONSOLE, *argv],
                                                  self.env, out, err, self.remaining(), True)
                wall += op_wall
                peak = max(peak, op_peak)
                stdout = _read(out)
                if self.checker.cli(op, code, stdout, _read(err)) == "ok":
                    pass_rows += common.count_rows(stdout)
            walls.append(wall)
            rows.append(pass_rows)
            peaks.append(peak)
            if self.remaining() < 2 * wall:
                break
        return walls, rows, peaks

    def end_to_end(self):
        samples = {"setup_s": self.setup()}
        if self.workload in common.LIBRARY_WORKLOADS:
            doc = self._worker("measure", sample_rss=True)
            walls, peaks = doc["wall_s"], [doc["peak_kb"]]
            events = [self.ref["events"]] * len(walls)
        else:
            walls, rows, peaks = self.cli_passes()
            events = [self.ref["events"]] * len(walls) if "events" in self.ref else rows
        samples["wall_s"] = walls
        samples["events_per_s"] = [n / w for n, w in zip(events, walls)]
        samples["peak_rss_mb"] = [kb / 1024 for kb in peaks]
        samples["ops_ok_frac"] = [1 - self.checker.failed / self.checker.attempted]
        return samples, {}

    def per_layer(self):
        doc = self._worker("trace")
        extra = {k: doc[k] for k in ("untraced_wall_s", "traced_wall_s", "wrapped_functions",
                                     "counts_repeat", "calls_per_pass")}
        extra["spans"] = os.path.relpath(self.spans, self.root)
        return doc["samples"], extra

    def execute(self):
        kind = "per_layer" if self.args.trace else "end_to_end"
        samples, extra = self.per_layer() if self.args.trace else self.end_to_end()
        metrics, summary = {}, {}
        for spec in self.bench[kind]:
            values = samples[spec["name"]]      # KeyError: a metric the harness lost
            summary[spec["name"]] = dict(summarize(values), unit=spec["unit"])
            metrics[spec["name"]] = {"value": summary[spec["name"]]["median"],
                                     "unit": spec["unit"]}
        line = {"correct": self.checker.outcomes["wrong"] == 0 and self.checker.attempted > 0,
                "attempted": self.checker.attempted, "failed": self.checker.failed,
                "metrics": metrics}
        return line, summary, extra


# ---------------------------------------------------------------- manifest

def _commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def _src_digest(root):
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def manifest(root, args, workload):
    seeds = {"workload_seed": args.seed}
    if workload == "replicated-cli":
        seeds["simulator_seeds"] = [args.seed + i for i in range(common.REPLICATIONS)]
    elif workload in common.LIBRARY_WORKLOADS:
        seeds["simulator_seeds"] = [args.seed]
    else:
        seeds["note"] = "closed forms use no randomness; the seed selects nothing"
    return {
        "commit": _commit(root), "src_sha256": _src_digest(root),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(), "platform": platform.platform(),
        "seeds": seeds, "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "started_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def run_workload(root, bench, workload, args):
    run = Run(root, bench, workload, args)
    man = manifest(root, args, workload)
    try:
        line, summary, extra = run.execute()
    finally:
        shutil.rmtree(run.tmp, ignore_errors=True)
    results = os.path.dirname(run.spans)
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S")
    path = os.path.join(results, f"{workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "manifest": man, "metrics": summary,
                   "ops": run.checker.outcomes, "problems": run.checker.problems,
                   "details": extra, "result": line}, fh, indent=1)
    for name, s in summary.items():
        print(f"{workload:16s} {name:40s} {s['median']:<14.6g} {s['unit']:12s}"
              f" n={s['n']} q1={s['q1']:.6g} q3={s['q3']:.6g}")
    print(f"{workload:16s} correct={line['correct']} attempted={line['attempted']}"
          f" failed={line['failed']} result={os.path.relpath(path, root)}")
    for problem in {json.dumps(p, sort_keys=True): p for p in run.checker.problems}.values():
        print(f"{workload:16s} {problem['outcome']}: {problem['op']}: {problem['detail']}")
    return line


def main(argv=None):
    root = os.getcwd()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"reduced size ({common.SMOKE_SLOTS} slots per simulation)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    bench_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(root, "src", "maclab", "cli.py")) \
            or not os.path.isfile(bench_path):
        sys.exit(f"{root} is not a maclab checkout (no src/maclab or BENCHMARK.json)")
    with open(bench_path) as fh:
        bench = json.load(fh)
    if args.seconds is None:
        args.seconds = bench["run_seconds"]

    workloads = common.WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {w: run_workload(root, bench, w, args) for w in workloads}
    if len(lines) == 1:
        line = lines[args.workload]
    else:
        line = {"correct": all(l["correct"] for l in lines.values()),
                "attempted": sum(l["attempted"] for l in lines.values()),
                "failed": sum(l["failed"] for l in lines.values()),
                "metrics": {f"{w}.{name}": m for w, l in lines.items()
                            for name, m in l["metrics"].items()}}
    print(json.dumps(line))


if __name__ == "__main__":
    main()
