#!/usr/bin/env python3
"""Builds the benchmark program qd_bench and runs one workload.

Run from the repository root:

    python3 qdbench/run.py --workload fig11-traj --seed 1 --seconds 30 --trace 0

Workloads: fig11-traj, fig11-exact, job-stream (see qdbench/WORKLOADS.md).
qd_bench, the library and the qd_served daemon are built from source
under .bench_build/ (CMake, Release) on first use and incrementally after
that; build output goes to standard error. Standard output ends with the
result object {"correct", "attempted", "failed", "metrics"}. qd_bench flags
that size a run (--width, --trials, --replay-jobs) pass through unchanged;
qdbench/smoke.py uses them for its toy sizes.

A run that outlasts twice --seconds plus RUN_ALLOWANCE_S (set-up, the last
fig11 pass, the job-stream drain and checks) is stopped and exits 3.
"""
import hashlib
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "qdbench"
RUN_ALLOWANCE_S = 110
# Inputs that define the measured program (recorded as a digest, since a
# benchmark checkout need not be a git repository).
DIGEST_PATHS = ["CMakeLists.txt", "src", "tools", "bench/jobs", "qdbench"]


def log(msg):
    print(f"qdbench: {msg}", file=sys.stderr, flush=True)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"repository sources not found in {ROOT}; cannot build")
        sys.exit(2)
    cmake = shutil.which("cmake")
    if cmake is None:
        log("cmake not found")
        sys.exit(2)
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = [cmake, "-S", str(HERE), "-B", str(BUILD), *generator,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            log("configure failed")
            sys.exit(2)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    compile_ = [cmake, "--build", str(BUILD), "-j", jobs, "--target",
                "qd_bench"]
    if subprocess.run(compile_, stdout=sys.stderr).returncode != 0:
        log("build failed")
        sys.exit(2)


def source_digest():
    h = hashlib.sha256()
    for rel in DIGEST_PATHS:
        base = ROOT / rel
        files = [base] if base.is_file() else sorted(
            p for p in base.rglob("*") if p.is_file())
        for p in files:
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_rev():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "none"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def run_timeout(argv):
    try:
        seconds = float(argv[argv.index("--seconds") + 1])
    except (ValueError, IndexError):
        seconds = 10  # qd_bench's default; it rejects bad values itself
    return 2 * max(seconds, 0) + RUN_ALLOWANCE_S


def main(argv):
    build()
    timeout = run_timeout(argv)
    env = dict(os.environ)
    # Fixed measurement conditions: counters only in traced runs, and the
    # verify gate at the strength the serving path itself requests.
    env.pop("QD_OBS", None)
    env.pop("QD_VERIFY", None)
    cmd = [str(BUILD / "qd_bench"), *argv, "--git-rev", git_rev(),
           "--source-digest", source_digest()]
    # Own process group, so a hung or interrupted run is stopped together
    # with its daemon.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)

    def interrupted(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, interrupted)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {timeout:g} s; stopped")
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 3
    except KeyboardInterrupt:
        os.killpg(proc.pid, signal.SIGTERM)
        proc.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
