#!/usr/bin/env python3
"""End-to-end benchmark of the fortd compiler, compile service and SPMD runtime.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cold_build --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first run configures and builds `fortd_perfbench` (the library from
src/ plus the benchmark program in perfbench/) under `.bench_build`, or under
$CARGO_TARGET_DIR when that is set; later runs rebuild incrementally. The
binary then runs one workload (see BENCHMARK.json and
perfbench/generator.hpp) and this script passes its output through: a
table, then one JSON line with `correct`, `attempted`, `failed` and
`metrics`. `--trace 1` reports the per-layer metrics instead of the
end-to-end ones and writes a Chrome trace-event file and a per-layer table
to `.bench_build/reports/`.

Every run gets a fresh temporary directory under `.bench_build/tmp/`
(edit_rebuild's cache directories), removed when the run
ends. The binary runs in its own process group and is killed if it has not
finished within RUN_TIMEOUT_S. Exit status: 0 = all checks passed,
1 = a check failed (named on standard error), 2 = preflight or build
failure, 3 = the run crashed, hung or printed no result.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold_build", "edit_rebuild", "serve_edit", "spmd_run")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
REQUIRED_SOURCES = ("src/CMakeLists.txt", "bench/programs.hpp")


def build_dir():
    configured = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return configured if os.path.isabs(configured) else os.path.join(ROOT, configured)


def build_commands(out):
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    return [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", out, "-j", jobs, "--target", "fortd_perfbench"],
    ]


def fail(code, message, out=None):
    print("perfbench: " + message, file=sys.stderr)
    if out is not None:
        print("perfbench: build with:", file=sys.stderr)
        for cmd in build_commands(out):
            print("    " + " ".join(cmd), file=sys.stderr)
    sys.exit(code)


def run_bounded(cmd, timeout, **kwargs):
    """Run cmd in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, None
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise


def preflight_and_build():
    out = build_dir()
    missing = [p for p in REQUIRED_SOURCES if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        fail(2, "not a full checkout (missing %s); the benchmark builds the "
                "library from the repository's sources" % ", ".join(missing), out)
    if shutil.which("cmake") is None:
        fail(2, "cmake is not on PATH", out)
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    commands = build_commands(out)
    if os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        commands = commands[1:]
    with open(log_path, "w") as log:
        for cmd in commands:
            code, _ = run_bounded(cmd, BUILD_TIMEOUT_S, stdout=log, stderr=subprocess.STDOUT)
            if code != 0:
                fail(2, "build step failed (%s): %s; log in %s" % (
                    "timed out" if code is None else "exit %d" % code, " ".join(cmd), log_path), out)
    binary = os.path.join(out, "fortd_perfbench")
    if not os.access(binary, os.X_OK):
        fail(2, "build products missing: %s" % binary, out)
    return out, binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the generator's tests and exit")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    out, binary = preflight_and_build()
    if args.self_test:
        code, _ = run_bounded([binary, "--self-test"], RUN_TIMEOUT_S)
        sys.exit(3 if code is None else code)

    tmp_root = os.path.join(out, "tmp")
    reports = os.path.join(out, "reports")
    os.makedirs(tmp_root, exist_ok=True)
    os.makedirs(reports, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed), dir=tmp_root)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch, "--report-dir", reports]
    try:
        code, stdout = run_bounded(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if code is None:
        fail(3, "%s did not finish within %d s (seed %d)" % (args.workload, RUN_TIMEOUT_S, args.seed))
    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        valid = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, IndexError):
        valid = False
    if code not in (0, 1) or not valid:
        sys.stderr.write(stdout)
        fail(3, "%s exited %d without a result (seed %d)" % (args.workload, code, args.seed))
    sys.stdout.write(stdout)
    sys.exit(code)


if __name__ == "__main__":
    main()
