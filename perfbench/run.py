#!/usr/bin/env python3
"""The loadsteal benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload solve-sweep --seed 1 --seconds 45 --trace 0

It builds the release `loadsteal` binary and the in-process helper
(`perfbench/`), then drives the binary once per command, one process at
a time, with tracing off. With `--trace 1` it runs the CLI pass once and
then the helper's traced run, which times each layer from the
benchmark's own code. The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it records the run's metadata and calibration figure.
See README.md in this directory for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("solve-sweep", "trace-pipeline")

# The CLI's replication pool size. One worker: on a shared 2-CPU host
# more add noise, not throughput.
THREADS = "1"

# Output checks.
RESIDUAL_TOL = 1e-9  # ‖F(π)‖∞ of a solve; integration stops at 1e-10
W_REL_TOL = 1e-5  # |W − closed form| / closed form; the worst case today is 1.8e-7
# |baseline mean sojourn − W| / W at n = 128. The baseline has read
# +0.4% to +2.4% above W (finite-n bias plus run-to-run noise); without
# its steal rule it would simulate M/M/1 and read +185%.
SOJOURN_TOL = 0.03

# Set-up rounds in a traced run (the end-to-end run has one per round).
SETUP_ROUNDS = 7

REPORT_COUNTS = re.compile(r"events\s+(\d+) arrivals, (\d+) completions")
JOBS_ANOMALY = "lifecycle inconsistencies"


class BuildError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(root):
    """Build the CLI and the helper; return their paths.

    The build is skipped when the sources' digest matches the one stored
    by the last build into the same target directory: in a checkout
    without `.git`, the CLI's build script (which watches `.git/HEAD`)
    would otherwise relink the binary on every run."""
    if not os.path.exists(os.path.join(root, "Cargo.toml")):
        raise BuildError("no Cargo.toml at the checkout root")
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    release = os.path.join(target, "release")
    binaries = (os.path.join(release, "loadsteal"), os.path.join(release, "perfbench"))
    stamp = os.path.join(target, "perfbench-sources")
    digest = source_digest(root)
    try:
        with open(stamp) as f:
            if f.read() == digest and all(map(os.path.exists, binaries)):
                return binaries
    except OSError:
        pass
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "loadsteal-cli"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ):
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            raise BuildError(" ".join(cmd) + " failed")
    with open(stamp, "w") as f:
        f.write(digest)
    return binaries


class Runner:
    """Runs CLI commands one at a time, timing each and tallying outcomes."""

    def __init__(self, binary, work):
        self.binary = binary
        self.work = work
        self.env = dict(os.environ, LOADSTEAL_THREADS=THREADS)
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.peak_rss_kb = 0

    def run(self, args):
        """Run `loadsteal <args>`; return (exit code, stdout, wall seconds)."""
        out = os.path.join(self.work, "stdout")
        err = os.path.join(self.work, "stderr")
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, err, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        t0 = time.perf_counter()
        pid = os.posix_spawn(self.binary, [self.binary, *args], self.env, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - t0
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        code = os.waitstatus_to_exitcode(status)
        with open(out, encoding="utf-8", errors="replace") as f:
            stdout = f.read()
        self.attempted += 1
        if code != 0:
            with open(err, encoding="utf-8", errors="replace") as f:
                last = (f.read().strip().splitlines() or [""])[-1]
            self.fail(f"loadsteal {' '.join(args)}: exit {code}: {last}")
        return code, stdout, wall

    def fail(self, why):
        """Record a failed operation (counted as attempted by the caller)."""
        self.failed += 1
        self.failures.append(why)
        log("CHECK FAILED: " + why)


# ---------------------------------------------------------------- checks


def read_counters(path):
    """The counters of a `--metrics-json` file, or None if it is missing
    or malformed."""
    try:
        with open(path) as f:
            return json.load(f)["metrics"]["counters"]
    except (OSError, ValueError, KeyError):
        return None


def check_solve(doc, closed_form_w):
    """Problems with one `solve --metrics-json -` document; returns
    (list of problems, relative W error or None)."""
    gauges = doc["metrics"]["gauges"]
    problems = []
    residual = gauges["solver.residual"]
    if not residual <= RESIDUAL_TOL:
        problems.append(f"residual {residual:.3e} > {RESIDUAL_TOL:.0e}")
    rel = None
    if closed_form_w is not None:
        rel = abs(gauges["solver.mean_time_in_system"] - closed_form_w) / closed_form_w
        if not rel <= W_REL_TOL:
            problems.append(f"W off the closed form by {rel:.3e} > {W_REL_TOL:.0e}")
    return problems, rel


def check_baseline(sojourn, w):
    """Problems with the baseline simulator's mean sojourn against the
    mean-field W."""
    rel = abs(sojourn - w) / w
    if not rel <= SOJOURN_TOL:
        return [f"baseline mean sojourn {sojourn:.4f} vs W {w:.4f}: rel {rel:.2e} > {SOJOURN_TOL}"]
    return []


def same_sample_path(plain_stdout, counted_stdout):
    """Whether an untraced simulate and its `--metrics-json` twin report
    the same per-run task count and steal rate (so the twin's event count
    belongs to the timed run)."""
    def runs_line(out):
        return [l for l in out.splitlines() if l.startswith("per run")]

    return runs_line(plain_stdout) == runs_line(counted_stdout) != []


def comparable_trace(text):
    """Trace lines that must match across engines: all but the
    per-replicate wall-clock summaries."""
    return [l for l in text.splitlines() if '"ev":"replicate_done"' not in l]


def check_engines(heap_stdout, heap_trace, cal_stdout, cal_trace):
    problems = []
    if heap_stdout != cal_stdout:
        problems.append("heap and calendar narratives differ")
    if comparable_trace(heap_trace) != comparable_trace(cal_trace):
        problems.append("heap and calendar traces differ")
    return problems


def check_pipeline(counters, report_out, jobs_out, transient_out):
    """Problems in the analyzers' outputs for one traced simulate."""
    problems = []
    m = REPORT_COUNTS.search(report_out)
    if not m:
        problems.append("report prints no event counts")
    else:
        got = (int(m.group(1)), int(m.group(2)))
        want = (counters["sim.arrivals"], counters["sim.completions"])
        if got != want:
            problems.append(f"report counts {got} != simulate counters {want}")
    if JOBS_ANOMALY in jobs_out:
        problems.append("jobs reports lifecycle anomalies")
    if "deviation" not in transient_out:
        problems.append("transient prints no deviation summary")
    return problems


# ---------------------------------------------------------------- paths


class Bench:
    def __init__(self, runner, plan, seed, work):
        self.r = runner
        self.plan = plan
        self.seed = str(seed)
        self.work = work
        self.samples = {}
        self.max_rel_err = 0.0

    def add(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def path(self, name):
        return os.path.join(self.work, name)

    def setup_round(self):
        """Minimal invocation of each command the benchmark uses: process
        start, argument and model resolution, and the mean-field solves
        of `simulate --metrics-json`, `report` and `transient`."""
        tiny = self.path("tiny.ndjson")
        sim = ["simulate", *self.plan["setup_simulate"], "--seed", self.seed,
               "--metrics-json", self.path("tiny.json")]
        traced_sim = ["simulate", *self.plan["setup_trace_write"], "--seed", self.seed,
                      "--trace", tiny, "--metrics-json", self.path("tiny.json")]
        total = 0.0
        for args in (["solve", *self.plan["setup_solve"]], sim, traced_sim,
                     ["report", tiny], ["jobs", tiny], ["transient", tiny]):
            total += self.r.run(args)[2]
        self.add("setup_s", total)

    def solve_set(self, which):
        """Solve every case of the `heavy` or `light` set; returns the wall time."""
        total = 0.0
        for case in self.plan["solve"]:
            if case["set"] != which:
                continue
            code, out, wall = self.r.run(["solve", *case["args"], "--metrics-json", "-"])
            total += wall
            if code != 0:
                continue
            try:
                problems, rel = check_solve(json.loads(out), case["closed_form_w"])
            except (ValueError, KeyError) as e:
                problems, rel = [f"unreadable metrics document: {e!r}"], None
            if rel is not None:
                self.max_rel_err = max(self.max_rel_err, rel)
            if problems:
                self.r.fail(f"solve {' '.join(case['args'])}: {'; '.join(problems)}")
        self.add(f"solve_{which}_s", total)
        return total

    def simulate(self, count=False):
        """One untraced run of each simulate config; returns the wall time.

        With `count`, each config also runs once with `--metrics-json` on
        the same seed for its event count (a property of the sample path,
        checked by comparing the two narratives); the counts are returned
        instead."""
        total, events = 0.0, {}
        for case in self.plan["simulate"]:
            args = ["simulate", *case["args"], "--seed", self.seed]
            code, plain, wall = self.r.run(args)
            self.add(f"sim.{case['name']}.wall", wall)
            total += wall
            if not count or code:
                continue
            metrics = self.path("count.json")
            code, counted, _ = self.r.run(args + ["--metrics-json", metrics])
            if code:
                continue
            counters = read_counters(metrics)
            if counters is None or "sim.events" not in counters:
                self.r.fail(f"simulate {case['name']}: no sim.events counter in {metrics}")
            elif not same_sample_path(plain, counted):
                self.r.fail(f"simulate {case['name']}: the --metrics-json run took another path")
            else:
                events[case["name"]] = counters["sim.events"]
        return events if count else total

    def engine_check(self):
        outs = []
        for engine in ("heap", "calendar"):
            trace = self.path(f"engine-{engine}.ndjson")
            args = ["simulate", *self.plan["engine_check"], "--seed", self.seed,
                    "--engine", engine, "--trace", trace]
            code, out, _ = self.r.run(args)
            if code != 0:
                return
            with open(trace) as f:
                outs += [out, f.read()]
        for p in check_engines(*outs):
            self.r.fail(f"simulate --engine: {p}")

    def trace_write(self):
        """The traced simulate alone; returns (exit code, wall time)."""
        # Each write starts a fresh file, with no dirty pages from the
        # previous one waiting for writeback.
        trace = self.path("trace.ndjson")
        if os.path.exists(trace):
            os.remove(trace)
        os.sync()
        args = ["simulate", *self.plan["trace_write"], "--seed", self.seed,
                "--trace", trace, "--metrics-json", self.path("trace.json")]
        code, _, wall = self.r.run(args)
        self.add("trace_write_s", wall)
        return code, wall

    def trace_pipeline(self):
        """The traced simulate, then the three readers on its trace;
        returns the wall time."""
        code, write = self.trace_write()
        trace = self.path("trace.ndjson")
        reads = [self.r.run([cmd, trace]) for cmd in ("report", "jobs", "transient")]
        self.add("trace_analyze_s", sum(w for _, _, w in reads))
        if code == 0 and all(c == 0 for c, _, _ in reads):
            counters = read_counters(self.path("trace.json"))
            problems = (["simulate wrote no counters"] if counters is None
                        else check_pipeline(counters, *(out for _, out, _ in reads)))
            for p in problems:
                self.r.fail(f"trace pipeline: {p}")
        return write + sum(w for _, _, w in reads)


# ---------------------------------------------------------------- runs

# How many times each path runs per round. Every path runs in every
# workload, since each workload reports every end-to-end metric; the
# workload's own path runs twice. Single invocations on a shared host
# vary by 20-40%, so the cheap paths and the simulates (the noisiest)
# run twice in both.
ROUND = {
    "solve-sweep": {"setup": 2, "light": 2, "simulate": 2, "trace": 1, "write": 2},
    "trace-pipeline": {"setup": 2, "light": 1, "simulate": 2, "trace": 2, "write": 2},
}

PATHS = {
    "setup": Bench.setup_round,
    "light": lambda b: b.solve_set("light"),
    "simulate": Bench.simulate,
    "trace": Bench.trace_pipeline,
    "write": Bench.trace_write,
}


def end_to_end(b, workload, seconds):
    """Every end-to-end metric: one sweep of the heavy solve set (9 s on a
    2-CPU host, and steadier than the short paths), then rounds over
    every path until `seconds` have passed."""
    t0 = time.perf_counter()
    b.engine_check()
    events = b.simulate(count=True)
    b.solve_set("heavy")
    while True:
        for path, reps in ROUND[workload].items():
            for _ in range(reps):
                PATHS[path](b)
        if time.perf_counter() - t0 >= seconds:
            break

    est = {k: statistics.median(v) for k, v in b.samples.items()}
    metrics = {
        "setup_s": (est["setup_s"], "s"),
        "solve_heavy_s": (est["solve_heavy_s"], "s"),
        "solve_light_s": (est["solve_light_s"], "s"),
        "solve_max_rel_err": (b.max_rel_err, "ratio"),
        "trace_write_s": (est["trace_write_s"], "s"),
        "trace_analyze_s": (est["trace_analyze_s"], "s"),
        "peak_rss_mb": (b.r.peak_rss_kb / 1024, "MB"),
    }
    for name, case in (("sim_ns_per_event", "n128"), ("sim_large_ns_per_event", "n65536")):
        if case in events:
            metrics[name] = (est[f"sim.{case}.wall"] * 1e9 / events[case], "ns")
    return metrics


def traced(b, helper):
    """Every per-layer metric: set-up rounds and one pass over every path
    through the CLI, then the helper's traced run on the same inputs and
    the CLI pass's trace."""
    for _ in range(SETUP_ROUNDS):
        b.setup_round()
    b.engine_check()
    cli_s = b.solve_set("heavy") + b.solve_set("light") + b.simulate() + b.trace_pipeline()
    doc = layers(b, helper, b.path("trace.ndjson"))
    if doc is None:
        return {}
    # A layer that failed its check reports null; it is left out.
    metrics = {k: (v["value"], v["unit"]) for k, v in doc["metrics"].items()
               if v["value"] is not None}
    if doc["setup_inproc_s"] is not None:
        setup_cli_s = statistics.median(b.samples["setup_s"])
        metrics["cli.overhead_s"] = (setup_cli_s - doc["setup_inproc_s"], "s")
    metrics["bench.tracing_overhead"] = (doc["wall_traced_s"] / cli_s, "ratio")
    return metrics


def layers(b, helper, trace):
    """The helper's traced run on `trace`, its checks and the baseline
    check tallied on `b`'s runner; returns its document, or None (counted
    as a failure) if the helper exits non-zero."""
    proc = subprocess.run(
        [helper, "layers", "--seed", b.seed, "--trace", trace, "--work", b.work],
        env=b.r.env, capture_output=True, text=True,
    )
    b.r.attempted += 1
    if proc.returncode != 0:
        last = (proc.stderr.strip().splitlines() or [""])[-1]
        b.r.fail(f"perfbench layers: exit {proc.returncode}: {last}")
        return None
    doc = json.loads(proc.stdout)
    checks = [(c["name"], [] if c["ok"] else [c["detail"]]) for c in doc["checks"]]
    checks.append(("baseline", check_baseline(doc["metrics"]["baseline.mean_sojourn"]["value"],
                                              b.plan["baseline_w"])))
    b.r.attempted += len(checks)
    for name, problems in checks:
        if problems:
            b.r.fail(f"{name}: {'; '.join(problems)}")
    return doc


def simulate_threads(args):
    """Threads a `simulate` with these arguments runs its replications
    on: the pool's workers plus the calling thread, which helps run the
    batch, and no more than there are runs."""
    return min(int(args[args.index("--runs") + 1]), int(THREADS) + 1)


def source_digest(root):
    """SHA-256 over the sources the benchmark builds, for snapshots taken
    outside a git checkout and to tell whether a build is current."""
    paths = [os.path.join(root, "Cargo.toml"), os.path.join(root, "Cargo.lock")]
    for top in ("src", "crates", "compat", "perfbench"):
        for dirpath, dirs, files in os.walk(os.path.join(root, top)):
            dirs[:] = [d for d in dirs if d != "target"]
            paths += [os.path.join(dirpath, f) for f in files
                      if f.endswith((".rs", ".toml", ".lock", ".py"))]
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(os.path.relpath(p, root).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_revision(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    try:
        cli, helper = build(root)
    except BuildError as e:
        log(f"build failed: {e}")
        return 1

    work = os.path.join(root, ".perfbench_work")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        plan = json.loads(subprocess.run([helper, "plan"], stdout=subprocess.PIPE,
                                         check=True).stdout)
        calibration = json.loads(subprocess.run([helper, "calibrate"], stdout=subprocess.PIPE,
                                                check=True).stdout)["calibration_ns"]
        bench = Bench(Runner(cli, work), plan, args.seed, work)
        t0 = time.perf_counter()
        if args.trace:
            metrics = traced(bench, helper)
            metrics["bench.calibration_ns"] = (calibration, "ns")
        else:
            metrics = end_to_end(bench, args.workload, args.seconds)
        elapsed = time.perf_counter() - t0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    r = bench.r
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loadsteal_threads": int(THREADS),
        "simulate_threads": {c["name"]: simulate_threads(c["args"]) for c in plan["simulate"]},
        "nproc": os.cpu_count(),
        "git": git_revision(root) or "unknown",
        "source_digest": source_digest(root),
        "bench.calibration_ns": calibration,
        "samples": bench.samples,
        "elapsed_s": round(elapsed, 3),
        "failures": r.failures,
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": r.failed == 0 and not r.failures,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
