#!/usr/bin/env python3
"""Paired in-process A/B of the simulation tick between two source trees.

    python3 scripts/tick_ab.py --other TREE [--reps N]

Builds this tree's src/ and TREE's src/ as two shared objects (Release,
every mobitherm symbol renamed to its own namespace and hidden; see
scripts/tick_ab/), loads both into this process and runs perfbench's three
families -- Nexus Paper.io throttled, Odroid 3DMark+BML proposed and Nexus
synthetic/bursty_duty throttled -- for 10 simulated seconds each, on
seeds 1..N for both trees, alternating which tree runs first from one
repetition to the next. Each run goes through the service's job path
(resolve, build, run, summarize, serialize), so the payloads are the
bytes a submit returns.

Prints one JSON line: per family, the median microseconds per tick of
each tree and the median paired ratios other/this of the tick time and of
the whole run (build through payload), so a ratio above 1 means this tree
is faster; the same two ratios over all pairs; and whether the payload
digests of the two trees are equal. Exits 1 when they differ, 2 when a
build or a run fails.

Whole-process timings swing widely from run to run on a shared host;
pairing the two trees inside one process, run after run, cancels most of
that. `--other .` is an A/A check of the method itself.
"""

import argparse
import ctypes
import hashlib
import json
import os
import statistics
import subprocess
import sys

THIS_TREE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROJECT = os.path.join(THIS_TREE, "scripts", "tick_ab")
FAMILIES = ("nexus", "odroid", "synthetic")  # entry.cpp's family numbers
SIM_SECONDS = 10.0  # perfbench's run length
PAYLOAD_CAPACITY = 1 << 22
BUILD_JOBS = min(4, os.cpu_count() or 1)


def fail(message):
    print("tick_ab: " + message, file=sys.stderr)
    sys.exit(2)


def source_digest(tree):
    """Digest of the names and bytes of every file under tree/src."""
    digest = hashlib.sha256()
    src = os.path.join(tree, "src")
    for root, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(root, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def build(tree, namespace, build_dir):
    """Configures and builds one tree's shared object; returns its path.

    Each distinct src/ gets its own build directory: a tree copied in with
    old timestamps (git archive, tar) would otherwise look up to date
    against objects built from other sources.
    """
    out = os.path.join(build_dir, namespace + "-" + source_digest(tree))
    steps = [
        ["cmake", "-S", PROJECT, "-B", out, "-DCMAKE_BUILD_TYPE=Release",
         "-DMOBITHERM_TREE=" + tree, "-DTICK_AB_NS=" + namespace],
        ["cmake", "--build", out, "-j", str(BUILD_JOBS), "--target",
         "tick_ab"],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("building %s failed: %s" % (tree, " ".join(cmd)))
    return os.path.join(out, "libtick_ab.so")


class Side:
    """One tree's loaded shared object and what its runs produced."""

    def __init__(self, tree, namespace, path):
        self.tree = tree
        lib = ctypes.CDLL(path, mode=os.RTLD_NOW | os.RTLD_LOCAL)
        self.entry = getattr(lib, namespace + "_run")
        self.entry.restype = ctypes.c_int
        self.entry.argtypes = [
            ctypes.c_int, ctypes.c_uint64, ctypes.c_double,
            ctypes.POINTER(ctypes.c_double), ctypes.POINTER(ctypes.c_double),
            ctypes.POINTER(ctypes.c_longlong), ctypes.c_char_p,
            ctypes.c_longlong]
        self.buffer = ctypes.create_string_buffer(PAYLOAD_CAPACITY)
        self.digest = hashlib.sha256()

    def run(self, family, seed):
        """Returns (us per tick, whole-run seconds, payload bytes)."""
        run_s, whole_s = ctypes.c_double(), ctypes.c_double()
        ticks = ctypes.c_longlong()
        rc = self.entry(family, seed, SIM_SECONDS, ctypes.byref(run_s),
                        ctypes.byref(whole_s), ctypes.byref(ticks),
                        self.buffer, PAYLOAD_CAPACITY)
        if rc != 0 or ticks.value <= 0:
            fail("%s: %s seed %d failed (%d): %s" % (
                self.tree, FAMILIES[family], seed, rc,
                self.buffer.value.decode(errors="replace")))
        return (run_s.value / ticks.value * 1e6, whole_s.value,
                self.buffer.value)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--other", required=True,
                    help="source root of the tree to compare against")
    ap.add_argument("--reps", type=int, default=12,
                    help="paired runs per family (default 12)")
    ap.add_argument("--build-dir",
                    default=os.path.join(THIS_TREE, "build-tick-ab"),
                    help="where both shared objects are built")
    args = ap.parse_args()
    other_tree = os.path.abspath(args.other)
    if args.reps < 1:
        fail("--reps must be >= 1")
    if not os.path.isfile(os.path.join(other_tree, "src", "CMakeLists.txt")):
        fail("no mobitherm sources under " + other_tree)

    this = Side(THIS_TREE, "tick_ab_this",
                build(THIS_TREE, "tick_ab_this", args.build_dir))
    other = Side(other_tree, "tick_ab_other",
                 build(other_tree, "tick_ab_other", args.build_dir))

    # One untimed run per family and tree keeps first-touch page faults,
    # the registry's construction and cold caches out of the pairs.
    for side in (this, other):
        for family in range(len(FAMILIES)):
            side.run(family, 1)

    tick = {f: {"this": [], "other": [], "ratio": []} for f in FAMILIES}
    whole_ratio = {f: [] for f in FAMILIES}
    for rep in range(args.reps):
        seed = 1 + rep
        order = (this, other) if rep % 2 == 0 else (other, this)
        for family, name in enumerate(FAMILIES):
            got = {}
            for side in order:
                got[side] = side.run(family, seed)
                side.digest.update(got[side][2])
                side.digest.update(b"\n")
            tick[name]["this"].append(got[this][0])
            tick[name]["other"].append(got[other][0])
            tick[name]["ratio"].append(got[other][0] / got[this][0])
            whole_ratio[name].append(got[other][1] / got[this][1])

    families = {}
    for name in FAMILIES:
        families[name] = {
            "this_us_per_tick": statistics.median(tick[name]["this"]),
            "other_us_per_tick": statistics.median(tick[name]["other"]),
            "tick_ratio": statistics.median(tick[name]["ratio"]),
            "run_ratio": statistics.median(whole_ratio[name]),
        }
    digests_equal = this.digest.digest() == other.digest.digest()
    print(json.dumps({
        "this": THIS_TREE,
        "other": other_tree,
        "reps": args.reps,
        "seconds": SIM_SECONDS,
        "families": families,
        "tick_ratio": statistics.median(
            r for f in FAMILIES for r in tick[f]["ratio"]),
        "run_ratio": statistics.median(
            r for f in FAMILIES for r in whole_ratio[f]),
        "digests_equal": digests_equal,
        "this_digest": this.digest.hexdigest()[:16],
        "other_digest": other.digest.hexdigest()[:16],
    }))
    return 0 if digests_equal else 1


if __name__ == "__main__":
    sys.exit(main())
