#!/usr/bin/env python3
"""Run the google-benchmark suite and track the perf trajectory over time.

Produces/compares BENCH_*.json files at the repo root so every PR from
ISSUE 2 onward records before/after numbers (time per iteration and — for
benches instrumented with the bench_util.h operator-new hook —
allocations per iteration).

Typical uses:

  # run the suite and write BENCH_<today>.json
  python3 scripts/bench_report.py

  # CI smoke: run quickly and fail if anything regressed vs. the newest
  # committed BENCH_*.json (time > tolerance x baseline, or allocs grew)
  python3 scripts/bench_report.py --check --min-time 0.01

  # diff two committed snapshots
  python3 scripts/bench_report.py --compare BENCH_A.json BENCH_B.json

  # convert a raw --benchmark_out JSON into the BENCH schema
  python3 scripts/bench_report.py --import-raw raw.json --label before

Only the python3 standard library is used.
"""

import argparse
import datetime
import glob
import json
import os
import re
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_BINARIES = [
    "micro_thermal",
    "micro_stability",
    "micro_service",
    "micro_fault",
    "micro_compare",
    "micro_pack",
    "load_serve",
]

# Custom benchmark counters copied verbatim into snapshot entries (the
# load_serve socket benchmark reports latency percentiles and saturation
# throughput this way).
COUNTER_KEYS = ("req_per_s", "p50_us", "p95_us", "p99_us", "hit_rate")

TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def normalize_raw(raw, label):
    """Convert raw google-benchmark JSON into the BENCH schema."""
    benchmarks = {}
    for b in raw.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        entry = {
            "real_time_ns": round(
                b["real_time"] * TIME_UNIT_NS[b.get("time_unit", "ns")], 3
            ),
        }
        if "allocs_per_iter" in b:
            entry["allocs_per_iter"] = round(b["allocs_per_iter"], 4)
        for key in COUNTER_KEYS:
            if key in b:
                entry[key] = round(b[key], 4)
        if "error_occurred" in b and b["error_occurred"]:
            entry["error"] = b.get("error_message", "benchmark error")
        benchmarks[b["name"]] = entry
    return {
        "schema": 1,
        "label": label,
        "generated_by": "scripts/bench_report.py",
        "benchmarks": benchmarks,
    }


def run_suite(build_dir, binaries, min_time, label):
    merged = {
        "schema": 1,
        "label": label,
        "generated_by": "scripts/bench_report.py",
        "benchmarks": {},
    }
    for name in binaries:
        path = os.path.join(build_dir, "bench", name)
        if not os.path.exists(path):
            path = os.path.join(build_dir, name)
        if not os.path.exists(path):
            print(f"bench_report: binary not found: {name}", file=sys.stderr)
            return None
        out_path = f"/tmp/bench_report_{name}.json"
        cmd = [
            path,
            f"--benchmark_min_time={min_time}",
            "--benchmark_format=console",
            f"--benchmark_out={out_path}",
            "--benchmark_out_format=json",
        ]
        print(f"bench_report: running {' '.join(cmd)}")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        sys.stdout.buffer.write(proc.stdout)
        if proc.returncode != 0:
            print(f"bench_report: {name} exited {proc.returncode}", file=sys.stderr)
            return None
        with open(out_path) as f:
            raw = json.load(f)
        merged["benchmarks"].update(normalize_raw(raw, label)["benchmarks"])
    return merged


def newest_committed_baseline(exclude=None):
    # Only plain dated snapshots (BENCH_YYYY-MM-DD.json) are baselines;
    # suffixed files like BENCH_..._before.json are one-off diff artifacts
    # and would otherwise win the lexicographic sort ('_' > '.').
    candidates = sorted(
        c for c in glob.glob(os.path.join(REPO_ROOT, "BENCH_*.json"))
        if re.fullmatch(r"BENCH_\d{4}-\d{2}-\d{2}\.json", os.path.basename(c))
    )
    if exclude is not None:
        candidates = [c for c in candidates if os.path.abspath(c) != os.path.abspath(exclude)]
    return candidates[-1] if candidates else None


def load(path):
    with open(path) as f:
        return json.load(f)


def compare(old, new, time_tolerance, alloc_tolerance):
    """Return (report_lines, regressions) comparing two BENCH dicts."""
    lines = []
    regressions = []
    old_b = old["benchmarks"]
    new_b = new["benchmarks"]
    lines.append(
        f"{'benchmark':40s} {'old ns':>12s} {'new ns':>12s} {'ratio':>7s}"
        f" {'old allocs':>11s} {'new allocs':>11s}"
    )
    for name in sorted(set(old_b) | set(new_b)):
        o = old_b.get(name)
        n = new_b.get(name)
        if o is None:
            lines.append(f"{name:40s} {'-':>12s} {n['real_time_ns']:12.1f}   (new)")
            continue
        if n is None:
            lines.append(f"{name:40s} {o['real_time_ns']:12.1f} {'-':>12s}   (removed)")
            continue
        if "error" in n:
            lines.append(f"{name:40s} ERROR: {n['error']}")
            regressions.append(f"{name}: benchmark errored: {n['error']}")
            continue
        ratio = n["real_time_ns"] / o["real_time_ns"] if o["real_time_ns"] else float("inf")
        oa = o.get("allocs_per_iter")
        na = n.get("allocs_per_iter")
        lines.append(
            f"{name:40s} {o['real_time_ns']:12.1f} {n['real_time_ns']:12.1f}"
            f" {ratio:6.2f}x"
            f" {oa if oa is not None else '-':>11} {na if na is not None else '-':>11}"
        )
        if ratio > time_tolerance:
            regressions.append(
                f"{name}: time regressed {ratio:.2f}x"
                f" ({o['real_time_ns']:.1f} -> {n['real_time_ns']:.1f} ns,"
                f" tolerance {time_tolerance}x)"
            )
        if oa is not None and na is not None and na > oa + alloc_tolerance:
            regressions.append(
                f"{name}: allocations regressed {oa} -> {na} per iteration"
            )
        # Throughput counters regress downward; apply the same tolerance
        # factor as time (shared CI hardware is noisy).
        ot, nt = o.get("req_per_s"), n.get("req_per_s")
        if ot and nt and nt < ot / time_tolerance:
            regressions.append(
                f"{name}: throughput regressed {ot:.0f} -> {nt:.0f} req/s"
                f" (tolerance {time_tolerance}x)"
            )
    return lines, regressions


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default=os.path.join(REPO_ROOT, "build"))
    parser.add_argument("--binaries", nargs="+", default=DEFAULT_BINARIES)
    parser.add_argument("--label", default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--min-time", default="0.05")
    parser.add_argument("--check", action="store_true",
                        help="compare a fresh run against the newest committed "
                             "BENCH_*.json; exit 1 on regression, write nothing")
    parser.add_argument("--baseline", default=None)
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    parser.add_argument("--import-raw", default=None,
                        help="convert a raw --benchmark_out JSON (no run)")
    parser.add_argument("--time-tolerance", type=float, default=2.5,
                        help="allowed slowdown factor in --check (default 2.5; "
                             "smoke runs on shared CI hardware are noisy)")
    parser.add_argument("--alloc-tolerance", type=float, default=0.5,
                        help="allowed allocs/iter increase in --check")
    args = parser.parse_args()

    label = args.label or datetime.date.today().isoformat()

    if args.compare:
        old, new = load(args.compare[0]), load(args.compare[1])
        lines, regressions = compare(old, new, args.time_tolerance,
                                     args.alloc_tolerance)
        print("\n".join(lines))
        if regressions:
            print("\nregressions:")
            for r in regressions:
                print(f"  {r}")
            return 1
        return 0

    if args.import_raw:
        report = normalize_raw(load(args.import_raw), label)
        out = args.out or os.path.join(REPO_ROOT, f"BENCH_{label}.json")
        with open(out, "w") as f:
            json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"bench_report: wrote {out} ({len(report['benchmarks'])} benchmarks)")
        return 0

    report = run_suite(args.build_dir, args.binaries, args.min_time, label)
    if report is None:
        return 1

    if args.check:
        baseline_path = args.baseline or newest_committed_baseline()
        if baseline_path is None:
            print("bench_report: no committed BENCH_*.json baseline; "
                  "run succeeded, nothing to compare")
            return 0
        print(f"\nbench_report: checking against {baseline_path}")
        lines, regressions = compare(load(baseline_path), report,
                                     args.time_tolerance, args.alloc_tolerance)
        print("\n".join(lines))
        if regressions:
            print("\nregressions:")
            for r in regressions:
                print(f"  {r}")
            return 1
        print("\nbench_report: no regressions")
        return 0

    out = args.out or os.path.join(REPO_ROOT, f"BENCH_{label}.json")
    with open(out, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"bench_report: wrote {out} ({len(report['benchmarks'])} benchmarks)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
