#!/usr/bin/env python3
"""Tiny-size self-test of the repository benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at the self-test sizes (seconds, not
minutes), untraced and traced, through perfbench/run.py, and checks that
each run is correct and prints every named end-to-end (untraced) or
per-layer (traced) metric with its declared unit. Exits 1 on any failure.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for w in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", w["name"], "--seed", "1", "--seconds", "1",
                   "--trace", str(trace), "--scale", "tiny"]
            r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                               text=True, timeout=600)
            label = "%s trace=%d" % (w["name"], trace)
            before = len(failures)
            try:
                res = json.loads(r.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                failures.append("%s: no result line (exit %d)" % (
                    label, r.returncode))
                continue
            if r.returncode != 0 or not res["correct"] or res["failed"]:
                failures.append("%s: exit %d, correct=%s, failed=%s" % (
                    label, r.returncode, res["correct"], res["failed"]))
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                failures.append("%s: result keys %s" % (label, sorted(res)))
            for m in spec[group]:
                got = res["metrics"].get(m["name"])
                if got is None:
                    failures.append("%s: metric %s missing" % (
                        label, m["name"]))
                elif got["unit"] != m["unit"]:
                    failures.append("%s: metric %s unit %s != %s" % (
                        label, m["name"], got["unit"], m["unit"]))
            print("%-28s %s" % (label, "ok" if len(failures) == before
                                 else "FAILED"), flush=True)
    for f in failures:
        print("FAIL " + f)
    print("selftest: %s" % ("FAILED" if failures else "passed"))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
