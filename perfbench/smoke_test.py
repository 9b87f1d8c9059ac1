#!/usr/bin/env python3
"""Smoke test of the repo benchmark: a tiny-size pass of every workload.

    python3 perfbench/smoke_test.py

Runs each workload of BENCHMARK.json with 20k keys for one second, once
untraced and once traced, and checks that the result line is the last line
of stdout, that the run is correct, and that it carries exactly the
end-to-end (untraced) or per-layer (traced) metrics of BENCHMARK.json, each
with its unit; end-to-end values must be positive. Then runs the benchmark's
self-test: the oracle must reject values planted with a stale stamp or
under the wrong key, and lib_balanced's store must count exactly like
make_kv(). Exits 1 on the first failure.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]


def fail(msg):
    print(f"smoke: FAIL: {msg}")
    sys.exit(1)


def run(args):
    p = subprocess.run(RUN + args, cwd=ROOT, capture_output=True, text=True)
    return p.returncode, p.stdout, p.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    want = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for w in bench["workloads"]:
        for trace in (0, 1):
            rc, out, err = run(["--workload", w["name"], "--seed", "7",
                                "--seconds", "1", "--trace", str(trace),
                                "--keys", "20000"])
            tag = f"{w['name']} trace={trace}"
            if rc != 0:
                fail(f"{tag}: exit {rc}\n{err[-2000:]}")
            r = json.loads(out.strip().splitlines()[-1])
            if sorted(r) != ["attempted", "correct", "failed", "metrics"]:
                fail(f"{tag}: result keys {sorted(r)}")
            if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
                fail(f"{tag}: correct={r['correct']} failed={r['failed']} "
                     f"attempted={r['attempted']}")
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            if got != want[trace]:
                missing = sorted(set(want[trace]) - set(got))
                extra = sorted(set(got) - set(want[trace]))
                units = sorted(k for k in got
                               if k in want[trace] and got[k] != want[trace][k])
                fail(f"{tag}: missing {missing} extra {extra} units {units}")
            if trace == 0:
                zero = [k for k, v in r["metrics"].items() if not v["value"] > 0]
                if zero:
                    fail(f"{tag}: non-positive {zero}")
            print(f"smoke: {tag}: {len(got)} metrics ok")
    rc, out, err = run(["--selftest"])
    print(out, end="")
    if rc != 0:
        fail(f"selftest exit {rc}\n{err[-2000:]}")
    print("smoke: ok")


if __name__ == "__main__":
    main()
