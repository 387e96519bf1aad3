#!/usr/bin/env python3
"""mobitherm end-to-end benchmark: one workload per invocation.

Run from the root of a source tree:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/README.md for why each exists):
  sweep       in-process BatchRunner fans of 16 and 8 runs, single runs
              and a CompareRunner verdict; no service, no socket
  serve_cold  mobitherm_serve --listen 0 --shards 1 --workers 2, one
              closed-loop connection, every request never seen before
  serve_warm  the same binary, one connection pipelining Zipf(0.99)
              re-submits of a warmed 32-key set; every op a cache hit

The first run builds the library, mobitherm_serve and the harness from
source into .bench_build/. With --trace 0 the last stdout line carries the
end-to-end metrics; with --trace 1 it carries the per-layer metrics, after
a line with the span self-time report. Exits non-zero, printing no result,
when the build or a run fails.
"""

import argparse
import array
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")
SERVE = os.path.join(BUILD_DIR, "mobitherm_serve")

# serve_cold: fresh servers per run; the timed seconds are split between
# them. serve_warm: each fresh server takes a fixed op count (see
# kWarmOpsPerServer in client.h), and servers repeat until --seconds of
# timed ops have run.
SERVERS_PER_RUN = 3
# sweep: setup_s is the median over this many fresh harness processes,
# the timed one included, each timed from its spawn to its first timed op.
SWEEP_SETUPS = 3
# Whole-run budget; every child process is bounded by what is left of it.
RUN_BUDGET_S = 170.0
# Tail percentile over distinct samples (one per single run, plain submit
# or protocol op). Sweep's and serve_cold's ~200 samples a run keep ~20
# beyond p90. serve_warm has samples for a p99, but on a contended host
# its per-server p99 swung fivefold (0.50 to 2.66 ms: vCPU stalls hold up
# the whole window) while its p90 moved as much as its median.
TAIL_QUANTILE = 0.90
TAIL_MIN_BEYOND = 10

END_TO_END = [
    ("setup_s", "s"), ("peak_rss_mb", "MB"), ("sim_s_per_s", "sim_s/s"),
    ("req_per_s", "1/s"), ("p50_ms", "ms"), ("tail_ms", "ms"),
    ("fan_p50_ms", "ms"), ("verdict_p50_ms", "ms"),
]
HIGHER_IS_BETTER = {"sim_s_per_s", "req_per_s"}
PER_LAYER = [
    ("sim.tick_us.nexus", "us"), ("sim.tick_us.odroid", "us"),
    ("sim.tick_us.synthetic", "us"), ("sim.build_us", "us"),
    ("sim.summarize_us", "us"), ("sim.batch.efficiency", "ratio"),
    ("sim.batch.run_wall_ms", "ms"),
    ("sim.governor_decisions_per_sim_s", "1/sim_s"),
    ("sim.dvfs_transitions_per_sim_s", "1/sim_s"),
    ("thermal.step_ns", "ns"), ("linalg.gemv_ns", "ns"),
    ("thermal.tick_share", "ratio"), ("service.cold_job_ms", "ms"),
    ("service.serialize_us", "us"), ("service.handoff_ms", "ms"),
    ("service.lanes_per_wide_job", "count"),
    ("service.server_cpu_util", "ratio"),
    ("service.lanes_per_verdict", "count"),
    ("service.rounds_per_verdict", "count"),
    ("service.cache.hit_ratio", "ratio"),
    ("service.cache.evictions", "count"), ("service.key_us", "us"),
    ("service.submit_hit_us", "us"), ("server.handle_line_us.submit", "us"),
    ("server.handle_line_us.result", "us"), ("json.parse_us", "us"),
    ("net.socket_us", "us"), ("server.cpu_us_per_op", "us"),
    ("server.rss_bytes_per_submit", "B"), ("trace.overhead", "ratio"),
    ("trace.unaccounted", "ratio"),
]


class BenchError(Exception):
    pass


class TailRefused(BenchError):
    pass


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ stats

def percentile(values, q):
    """Linear interpolation between closest ranks of the sorted values."""
    s = sorted(values)
    if not s:
        raise BenchError("percentile of no samples")
    pos = q * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail(values, q):
    """The q-quantile, refused unless >= TAIL_MIN_BEYOND samples lie
    beyond it."""
    n = len(values)
    beyond = n - 1 - math.floor(q * (n - 1)) if n else 0
    if beyond < TAIL_MIN_BEYOND:
        raise TailRefused(
            "p%g of %d samples has %d beyond it (need %d)"
            % (q * 100, n, beyond, TAIL_MIN_BEYOND))
    return percentile(values, q)


def median(values):
    if not values:
        raise BenchError("median of no samples")
    return statistics.median(values)


def load_samples(path):
    a = array.array("d")
    with open(path, "rb") as f:
        a.frombytes(f.read())
    return a.tolist()


# ------------------------------------------------------------------ processes

class Budget:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        left = self.end - time.monotonic()
        if left <= 1.0:
            raise BenchError("run budget exhausted")
        return left


def cpu_split():
    """Disjoint CPU pairs for the server and the load generator, which
    keeps their scheduling (and so server throughput) from varying between
    server processes; None where fewer than 4 CPUs are available."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 4:
        return None, None
    return set(cpus[:2]), set(cpus[2:4])


def pinned(cpus):
    if cpus is None:
        return None
    return lambda: os.sched_setaffinity(0, cpus)


def build():
    os.makedirs(OUT_DIR, exist_ok=True)
    build_log = os.path.join(OUT_DIR, "build.log")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                  "perfbench_harness", "mobitherm_serve"])
    with open(build_log, "a") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              timeout=850).returncode != 0:
                raise BenchError("build failed: " + " ".join(cmd) +
                                 " (log: " + build_log + ")")


def harness(args, budget, cpus=None):
    spawned = time.monotonic()
    proc = subprocess.run([HARNESS] + [str(a) for a in args],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=budget.left(),
                          preexec_fn=pinned(cpus))
    if proc.returncode != 0:
        raise BenchError("harness %s failed (%d): %s"
                         % (args[0], proc.returncode, proc.stderr.strip()))
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["spawned_mono_s"] = spawned
    return rep


class Server:
    """A fresh mobitherm_serve child on an ephemeral loopback port."""

    def __init__(self, budget, cpus):
        self.stderr = open(os.path.join(OUT_DIR, "serve.stderr"), "a")
        start = time.monotonic()
        self.proc = subprocess.Popen(
            [SERVE, "--listen", "0", "--shards", "1", "--workers", "2"],
            stdout=subprocess.PIPE, stderr=self.stderr,
            preexec_fn=pinned(cpus))
        try:
            announce = json.loads(self.proc.stdout.readline())
            self.port = announce["port"]
        except (ValueError, KeyError):
            self.kill()
            raise BenchError("mobitherm_serve did not announce a port")
        self.listen_s = time.monotonic() - start
        self.budget = budget

    @property
    def pid(self):
        return self.proc.pid

    def finish(self):
        """Waits for the exit the shutdown op requested; returns the code."""
        try:
            code = self.proc.wait(timeout=min(30.0, self.budget.left()))
        except (subprocess.TimeoutExpired, BenchError):
            self.kill()
            code = None
        self.proc.stdout.close()
        self.stderr.close()
        return code

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()


def server_run(kinds, seed, seconds, trace, budget, tag):
    """Runs harness clients (cold and/or warm) against one fresh server;
    the last one shuts it down. Returns their reports."""
    server_cpus, client_cpus = cpu_split()
    server = Server(budget, server_cpus)
    reports = []
    try:
        for i, (kind, secs) in enumerate(zip(kinds, seconds)):
            rep = harness([kind, "--port", server.port, "--pid", server.pid,
                           "--seed", seed, "--seconds", secs,
                           "--trace", int(trace),
                           "--shutdown", int(i == len(kinds) - 1),
                           "--out", OUT_DIR, "--tag", "%s.%s" % (tag, kind)],
                          budget, client_cpus)
            rep["listen_s"] = server.listen_s
            reports.append(rep)
    except BaseException:
        server.kill()
        raise
    code = server.finish()
    if code != 0:
        for rep in reports:
            rep["errors"].append("mobitherm_serve exited with %s" % code)
    return reports


def samples(reports, name):
    out = []
    for rep in reports:
        path = rep["samples"].get(name)
        if path:
            out.extend(load_samples(path))
    return out


def total(reports, name):
    return sum(rep["values"][name] for rep in reports)


def sample_counts(workload, reps):
    """How many samples lie behind each latency metric of a run."""
    if workload == "sweep":
        reps = reps[:1]
        files = {"p50_ms": "run_ms", "tail_ms": "run_ms",
                 "fan_p50_ms": "fan8_ms", "verdict_p50_ms": "verdict_ms"}
    else:
        files = {"p50_ms": "p50_ms", "tail_ms": "p50_ms",
                 "fan_p50_ms": "fan_ms", "verdict_p50_ms": "verdict_ms"}
    return {metric: sum(os.path.getsize(r["samples"][name]) // 8
                        for r in reps)
            for metric, name in files.items()}


# ------------------------------------------------------------------ workloads

def run_sweep(seed, seconds, trace, budget, tag):
    """The timed sweep harness, then set-up-only ones (--seconds 0) so
    setup_s has SWEEP_SETUPS cold samples. The timed report comes first."""
    reps = [harness(["sweep", "--seed", seed, "--seconds", seconds,
                     "--trace", int(trace), "--out", OUT_DIR, "--tag", tag],
                    budget)]
    for i in range(SWEEP_SETUPS - 1):
        reps.append(harness(["sweep", "--seed", seed, "--seconds", 0,
                             "--out", OUT_DIR,
                             "--tag", "%s.setup%d" % (tag, i)], budget))
    return reps


def sweep_metrics(reps):
    v = reps[0]["values"]
    runs = samples(reps[:1], "run_ms")
    return {
        "setup_s": median([r["values"]["ready_mono_s"] - r["spawned_mono_s"]
                           for r in reps]),
        "peak_rss_mb": v["vmhwm_kb"] / 1024.0,
        "sim_s_per_s": v["sim_s"] / v["busy_s"],
        "req_per_s": v["ops"] / v["busy_s"],
        "p50_ms": median(runs),
        "tail_ms": tail(runs, TAIL_QUANTILE),
        "fan_p50_ms": median(samples(reps[:1], "fan8_ms")),
        "verdict_p50_ms": median(samples(reps[:1], "verdict_ms")),
    }


def socket_metrics(workload, reps):
    wall = total(reps, "wall_s")
    if workload == "serve_warm":
        # Every server holds ample samples of its own (500,000 ops), and
        # one server that stalls would drag a pooled tail: report the
        # median server's figure.
        def latency(name, stat):
            return median([stat(samples([r], name)) for r in reps])
    else:
        # A serve_cold server holds about 60 plain submits: pool them.
        def latency(name, stat):
            return stat(samples(reps, name))
    return {
        "setup_s": median([r["listen_s"] + r["values"]["setup_s"]
                           for r in reps]),
        "peak_rss_mb": median([r["values"]["vmhwm_kb"] for r in reps]) / 1024,
        "sim_s_per_s": total(reps, "sim_s") / wall,
        "req_per_s": total(reps, "ops") / wall,
        "p50_ms": latency("p50_ms", median),
        "tail_ms": latency("p50_ms", lambda s: tail(s, TAIL_QUANTILE)),
        "fan_p50_ms": latency("fan_ms", median),
        "verdict_p50_ms": latency("verdict_ms", median),
    }


def run_end_to_end(workload, seed, seconds, budget):
    if workload == "sweep":
        reps = run_sweep(seed, seconds, False, budget, "sweep")
        return sweep_metrics(reps), reps
    reps = []
    if workload == "serve_cold":
        for i in range(SERVERS_PER_RUN):
            reps += server_run(["cold"], seed, [seconds / SERVERS_PER_RUN],
                               False, budget, "%s%d" % (workload, i))
    else:
        while len(reps) < 2 or total(reps, "wall_s") < seconds:
            reps += server_run(["warm"], seed, [seconds], False, budget,
                               "%s%d" % (workload, len(reps)))
    return socket_metrics(workload, reps), reps


# ------------------------------------------------------------------ tracing

def read_spans(path):
    with open(path) as f:
        names = json.loads(f.readline())
        spans = []
        for line in f:
            n, start, end, parent, request = line.split(",")
            spans.append((names[int(n)], float(start), float(end),
                          int(parent), int(request)))
    return spans


def union_length(intervals):
    length, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                length += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        length += cur_end - cur_start
    return length


def self_times(spans):
    """Per span name: total self time (duration minus the union of its
    children, clipped to it), span count; plus the share of the traced
    window no root span covers."""
    children = {}
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children.setdefault(s[3], []).append(i)
    table = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        kids = [(max(start, spans[k][1]), min(end, spans[k][2]))
                for k in children.get(i, [])]
        own = (end - start) - union_length([k for k in kids if k[1] > k[0]])
        entry = table.setdefault(name, [0.0, 0])
        entry[0] += own
        entry[1] += 1
    if not spans:
        return table, 1.0
    window = max(s[2] for s in spans) - min(s[1] for s in spans)
    covered = union_length([(s[1], s[2]) for s in spans if s[3] < 0])
    return table, max(0.0, 1.0 - covered / window) if window > 0 else 0.0


def ratio(num, den, default):
    return num / den if den and den > 0 and num >= 0 else default


def run_half(workload, seed, seconds, trace, budget):
    """One untraced or traced pass of the workload on its own fresh
    processes: a server's insert-only job table or a warmed process never
    carries over from one pass to the other. The socket workloads use one
    server, so the traced pass writes a single span log."""
    tag = "%s.%s" % (workload, "traced" if trace else "untraced")
    if workload == "sweep":
        reps = run_sweep(seed, seconds, trace, budget, tag)
        return sweep_metrics(reps), reps
    kind = "cold" if workload == "serve_cold" else "warm"
    reps = server_run([kind], seed, [seconds], trace, budget, tag)
    return socket_metrics(workload, reps), reps


def tracing_cost(untraced, traced):
    """Per metric, how much worse the traced pass reads than the untraced
    one, as a share of the untraced value (positive = tracing costs)."""
    return {k: (untraced[k] / traced[k] if k in HIGHER_IS_BETTER
                else traced[k] / untraced[k]) - 1.0
            for k in untraced if k not in ("setup_s", "peak_rss_mb")}


def run_traced(workload, seed, seconds, budget):
    untraced, untraced_reps = run_half(workload, seed, seconds, False, budget)
    traced, traced_reps = run_half(workload, seed, seconds, True, budget)
    cost = tracing_cost(untraced, traced)
    own = untraced_reps + traced_reps

    layers = harness(["layers", "--seed", seed, "--out", OUT_DIR,
                      "--tag", workload + ".layers"], budget)
    cold, warm = server_run(["cold", "warm"], seed, [3.0, 2.0], False,
                            budget, workload + ".probe")
    lv, cv, wv = layers["values"], cold["values"], warm["values"]
    metrics = {name: lv[name] for name, _ in PER_LAYER if name in lv}
    hl_us = (lv["server.handle_line_us.submit"] * wv["submit_ops"] +
             lv["server.handle_line_us.result"] *
             (wv["ops"] - wv["submit_ops"])) / wv["ops"]
    cpu_us_per_op = wv["server_cpu_s"] / wv["ops"] * 1e6
    metrics.update({
        "service.lanes_per_wide_job":
            ratio(cv["lockstep_lanes"], cv["wide_jobs"], 1.0),
        "service.server_cpu_util": cv["server_cpu_s"] / cv["wall_s"],
        "service.lanes_per_verdict":
            ratio(cv["compare_lane_runs"], cv["compares"], 0.0),
        "service.rounds_per_verdict":
            ratio(cv["compare_rounds"], cv["compares"], 0.0),
        "service.cache.evictions": cv["cache_evictions"],
        "service.cache.hit_ratio":
            ratio(wv["cache_hits"], wv["cache_hits"] + wv["cache_misses"],
                  0.0),
        "server.cpu_us_per_op": cpu_us_per_op,
        "net.socket_us": cpu_us_per_op - hl_us,
        "server.rss_bytes_per_submit":
            ratio(wv["rss_delta_kb"] * 1024.0, wv["submitted"], 0.0),
        "trace.overhead": cost["req_per_s" if workload == "serve_warm"
                               else "sim_s_per_s"],
    })

    table, unaccounted = self_times(
        read_spans(traced_reps[0]["values"]["spans"]))
    layer_table, _ = self_times(read_spans(layers["values"]["spans"]))
    metrics["trace.unaccounted"] = unaccounted
    # The replay's boundaries are siblings (the inner calls are opaque from
    # outside), so each outer layer's self time is its span minus the
    # boundaries it wraps.
    replay_self = {n: layer_table[n][0] for n in (
        "registry.canonical_key", "registry.make_engine", "engine.run",
        "sim.summarize", "service.serialize_result")}
    line = layer_table["server.handle_line"][0]
    api = layer_table["service.api"][0]
    inner = sum(replay_self.values())
    replay_self["server.handle_line"] = line - api
    replay_self["service.api"] = api - inner
    report = {
        "workload": workload,
        "span_self_s": {n: round(t, 6) for n, (t, _) in sorted(table.items())},
        "span_count": {n: c for n, (_, c) in sorted(table.items())},
        "unaccounted_share": unaccounted,
        "replay_self_s": {n: round(t, 6) for n, t in replay_self.items()},
        "untraced": untraced,
        "traced": traced,
        "tracing_overhead": cost,
    }
    return metrics, own + [layers, cold, warm], report


# ---------------------------------------------------------------- fingerprint

def fingerprint():
    def read(path, default="unknown"):
        try:
            with open(path) as f:
                return f.read().strip()
        except OSError:
            return default

    model = "unknown"
    for line in read("/proc/cpuinfo", "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    digest = hashlib.sha256()
    for base in ("src", "examples", "perfbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, base)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    built = json.loads(subprocess.run(
        [HARNESS, "fingerprint"], stdout=subprocess.PIPE, text=True,
        timeout=10).stdout)
    return {
        "cpu_model": model,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        # cgroup v2, else the v1 quota and period.
        "cgroup_cpu_max": read("/sys/fs/cgroup/cpu.max", None) or "%s %s" % (
            read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us"),
            read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")),
        "compiler": built["compiler"],
        "build_type": built["build_type"],
        "git_commit": commit,
        "source_sha256": digest.hexdigest()[:16],
    }


# ------------------------------------------------------------------ main

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["sweep", "serve_cold", "serve_warm"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        build()
        budget = Budget(RUN_BUDGET_S)
        if args.trace:
            metrics, reps, report = run_traced(args.workload, args.seed,
                                               args.seconds, budget)
            with open(os.path.join(OUT_DIR, args.workload + ".trace.json"),
                      "w") as f:
                json.dump(report, f, indent=1)
            print(json.dumps({"trace_report": report}))
            names = PER_LAYER
        else:
            metrics, reps = run_end_to_end(args.workload, args.seed,
                                           args.seconds, budget)
            print(json.dumps(
                {"samples": sample_counts(args.workload, reps)}))
            names = END_TO_END
        print(json.dumps({"fingerprint": fingerprint()}))
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("run failed: %s: %s" % (type(e).__name__, e))
        return 1

    errors = [e for r in reps for e in r["errors"]]
    for e in errors + [f for r in reps for f in r["failures"]]:
        log(e)
    missing = [n for n, _ in names if n not in metrics]
    if missing:
        log("metrics not measured: " + ", ".join(missing))
        return 1
    print(json.dumps({
        "correct": not errors,
        "attempted": int(sum(r["attempted"] for r in reps)),
        "failed": int(sum(r["failed"] for r in reps)),
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
