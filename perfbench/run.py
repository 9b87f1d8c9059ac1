#!/usr/bin/env python3
"""Build and run the repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds the
crpm libraries and the benchmark program from source into $CARGO_TARGET_DIR (default
.bench_build); later calls rebuild only what changed. The program's last
line of stdout is the result: one JSON object with "correct",
"attempted", "failed" and "metrics". Exits non-zero, without a result
line, when the sources are missing, the build fails or the run fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["kvd_get_heavy", "lib_balanced", "kvd_recover"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds crpm_perfbench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no crpm sources under {ROOT}/src")
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("cmake configure failed")
            return None
    cmd = ["cmake", "--build", build_dir, "--target", "crpm_perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        log("build failed")
        return None
    return os.path.join(build_dir, "crpm_perfbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--keys", type=int, help="key count (default 1M)")
    p.add_argument("--selftest", action="store_true",
                   help="check the oracle and the lib_balanced store")
    a = p.parse_args()
    if not a.selftest and a.workload is None:
        p.error("--workload is required")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    exe = build(build_dir)
    if exe is None:
        return 2

    name = "selftest" if a.selftest else a.workload
    work = os.path.join(build_dir, "work", name)
    shutil.rmtree(work, ignore_errors=True)
    cmd = [exe, "--work-dir", work]
    if a.selftest:
        cmd.append("--selftest")
    else:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--workload", a.workload, "--seed", str(a.seed),
                "--seconds", str(a.seconds), "--trace", str(a.trace),
                "--trace-out", os.path.join(traces, f"{a.workload}.json")]
        if a.keys is not None:
            cmd += ["--keys", str(a.keys)]
    sys.stdout.flush()
    try:
        rc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"{name} did not finish within {RUN_TIMEOUT_S}s")
        rc = 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
