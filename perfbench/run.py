#!/usr/bin/env python3
"""Repository benchmark: one workload, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The script builds perfbench/perfbench
(Release, from the checkout's sources) into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench, then runs the workload in its own process so
peak RSS is per workload. Every end-to-end metric is printed on every
workload: metrics of a layer the workload leaves idle come from a shorter
reference run of that layer's home workload (see perfbench/README.md).

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics (from a traced run,
plus the tracing overhead). The exit code is 1 when a correctness check
fails and 2 when the benchmark cannot run at all.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["gen-resident", "grow-ooc", "fleet-faults", "live-replay"]
PIPELINE = ("gen-resident", "grow-ooc")
# The workload whose main phase produces each end-to-end metric.
HOME = {
    "pipeline_records_per_s": "gen-resident",
    "fleet_chunks_per_s": "fleet-faults",
    "live_p50_ms": "live-replay",
    "live_max_rps": "live-replay",
}
# The headline metric per workload, and whether higher is better; the
# tracing overhead is the traced run's loss on it.
HEADLINE = {
    "gen-resident": ("pipeline_records_per_s", True),
    "grow-ooc": ("pipeline_records_per_s", True),
    "fleet-faults": ("fleet_chunks_per_s", True),
    "live-replay": ("live_p50_ms", False),
}
CHILD_TIMEOUT_S = 170
# Length of a reference run as a share of --seconds.
REFERENCE_SHARE = 0.5


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def fail(msg, code=2):
    log(msg)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"), "perfbench")


def build():
    """Configure (once) and build the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/; run from "
             "the root of a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    bdir = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "perfbench")


def provenance():
    """git describe when the checkout is a git repository, else a hash of
    the sources the binary is built from; plus host and build facts."""
    git = "unknown (not a git checkout)"
    if shutil.which("git"):
        r = subprocess.run(["git", "-C", ROOT, "describe", "--always",
                            "--dirty"], capture_output=True, text=True)
        if r.returncode == 0 and r.stdout.strip():
            git = r.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return {"git": git, "source_sha256": h.hexdigest()[:16],
            "nproc": os.cpu_count()}


def run_child(binary, workload, scale, seconds, seed, trace, out_dir,
              reference=False):
    """One workload in its own process; returns its parsed result object.
    A reference run sets up once: its setup_s is never reported."""
    tag = "%s-%s-%d-%d-%d" % (workload, scale, seed, int(trace), os.getpid())
    tmp = os.path.join(ROOT, ".bench_tmp", tag)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--scale", scale,
           "--trace", "1" if trace else "0", "--tmp", tmp,
           "--reference", "1" if reference else "0"]
    if trace:
        cmd += ["--spans", os.path.join(out_dir, "spans-%s.json" % tag)]
    t0 = time.monotonic()
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s %s timed out" % (workload, scale), 1)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = r.stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("%s %s exited %d without a result" % (workload, scale,
                                                   r.returncode), 1)
    res["process_wall_s"] = time.monotonic() - t0
    log("%s (%s, trace %d): %.1f s, correct=%s" % (
        workload, scale, int(trace), res["process_wall_s"], res["correct"]))
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # full = the benchmark; tiny = the self-test's seconds-long sizes.
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    spec = load_spec()
    binary = build()
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    ref_seconds = max(args.seconds * REFERENCE_SHARE, 0.5)
    trace = bool(args.trace)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    wanted_units = {m["name"]: m["unit"] for m in wanted}

    children = []
    problems = []

    def child(workload, scale, seconds, traced, reference=False):
        res = run_child(binary, workload, scale, seconds, args.seed, traced,
                        out_dir, reference)
        children.append(res)
        return res

    main_res = child(args.workload, args.scale, args.seconds, False)
    sources = [main_res]
    if trace:
        traced = child(args.workload, args.scale, args.seconds, True)
        sources = [traced]
        refs = [w for w in WORKLOADS if w != args.workload]
    else:
        refs = [w for w in WORKLOADS if w != args.workload and any(
            HOME.get(m) == w and m not in main_res["metrics"]
            for m in wanted_units)]
    for w in refs:
        sources.append(child(w, args.scale, ref_seconds, trace, True))

    # gen-resident and grow-ooc must agree on the report for the same seed
    # and users: run the sibling path once at the same size.
    if args.workload in PIPELINE:
        sibling = PIPELINE[1 - PIPELINE.index(args.workload)]
        other = child(sibling, args.scale, 0, False)
        ours = main_res["fingerprints"]["report"]
        theirs = other["fingerprints"]["report"]
        if ours != theirs:
            problems.append("FingerprintReport of %s (%s) != %s (%s)" % (
                args.workload, ours, sibling, theirs))

    attempted = sum(c["attempted"] for c in children) + (
        1 if args.workload in PIPELINE else 0)
    failed = sum(c["failed"] for c in children) + len(problems)
    for c in children:
        problems += ["%s: %s" % (c["workload"], f) for f in c["failures"]]

    metrics = {}
    for src in sources:
        for name, (value, unit) in src["metrics"].items():
            metrics.setdefault(name, (value, unit))
    if trace:
        name, higher = HEADLINE[args.workload]
        base = main_res["metrics"][name][0]
        with_tracing = sources[0]["metrics"][name][0]
        loss = base / with_tracing if higher else with_tracing / base
        loss -= 1
        metrics["tracing.overhead_pct"] = (100 * loss, "%")
        metrics["failed_op_share"] = (failed / max(attempted, 1), "fraction")

    out = {}
    for name, unit in wanted_units.items():
        if name not in metrics:
            problems.append("metric %s missing" % name)
        elif metrics[name][1] != unit:
            problems.append("metric %s has unit %s, expected %s" % (
                name, metrics[name][1], unit))
        else:
            out[name] = {"value": metrics[name][0], "unit": unit}

    correct = not problems and all(c["correct"] for c in children)
    details = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "scale": args.scale,
        "provenance": dict(provenance(), **children[0]["provenance"]),
        "problems": problems,
        "children": [{k: c[k] for k in ("workload", "scale", "correct",
                                         "fingerprints", "notes", "metrics",
                                         "process_wall_s")}
                     for c in children],
    }
    with open(os.path.join(out_dir, "result-%s-%d-%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump(details, f, indent=1)
    print("# provenance: " + json.dumps(details["provenance"]))
    for c in children:
        for note in c["notes"]:
            print("# note: " + note)
    for p in problems:
        print("# problem: " + p)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
