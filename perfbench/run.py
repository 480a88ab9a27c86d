#!/usr/bin/env python3
"""Serving benchmark for THALI: build, model cache, one workload per run.

Run from the root of a THALI source tree:

    python3 perfbench/run.py --workload wire_c1_camera --seed 1 --seconds 14 --trace 0
    python3 perfbench/run.py --workload all

`all` runs the workloads BENCHMARK.json lists.

The first run in a tree builds the benchmark (perfbench/CMakeLists.txt, into
$CARGO_TARGET_DIR or .bench_build) and trains the standard model into
./thali_cache, which takes minutes. Every run prints a human-readable report
on stderr and its JSON result as the last line of stdout; records and span
files land in <build>/perfbench/out. The exit code is non-zero when an
output check fails or the run cannot complete.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ["wire_c1_camera", "offline_eval_b8"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_logged(cmd, log_path, timeout):
    with open(log_path, "ab") as f:
        return subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                              timeout=timeout).returncode


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    rc = run_logged(["cmake", "-S", "perfbench", "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"], log_path, 300)
    if rc != 0:
        return rc, log_path
    rc = run_logged(["cmake", "--build", build_dir, "--target",
                     "perfbench_runner", "perfbench_server", "-j",
                     str(os.cpu_count() or 1)], log_path, 1200)
    return rc, log_path


def source_digest():
    h = hashlib.sha256()
    roots = ["src", "bench", "perfbench", "CMakeLists.txt"]
    for root in roots:
        paths = [root] if os.path.isfile(root) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(root) for f in fs)
        for p in sorted(paths):
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             timeout=10)
        if out.returncode == 0:
            return out.stdout.decode().strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "none"


def run_group(cmd, timeout):
    """Runs cmd in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            process_group=0)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("[perfbench] run exceeded %d s and was stopped" % timeout)
        return 1, ""
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out.decode()


def check_result(result, trace):
    """The result names exactly the metrics BENCHMARK.json lists, with
    their units."""
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    want = {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        log("perfbench: metrics disagree with BENCHMARK.json: %s" % sorted(
            set(got.items()) ^ set(want.items())))
        return False
    return True


def run_workload(bins, args, workload, out_dir, provenance):
    cmd = [bins["runner"], "run", "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--server-bin", bins["server"],
           "--out-dir", out_dir, "--git-sha", provenance["git_sha"],
           "--source-digest", provenance["source_digest"]]
    rc, out = run_group(cmd, RUN_TIMEOUT_S)
    lines = out.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return rc, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="one of %s, or all" % ", ".join(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=14)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")
            and os.path.isdir("bench")):
        log("perfbench: run from the root of a THALI source tree "
            "(no CMakeLists.txt, src/ and bench/ here)")
        return 2
    if args.workload == "all":
        with open("BENCHMARK.json") as f:
            workloads = [w["name"] for w in json.load(f)["workloads"]]
    else:
        workloads = [args.workload]
    if any(w not in WORKLOADS for w in workloads):
        log("unknown workload " + args.workload)
        return 2

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    rc, build_log = build(build_dir)
    if rc != 0:
        log("perfbench: build failed; see " + build_log)
        return 1
    bins = {"runner": os.path.join(build_dir, "perfbench_runner"),
            "server": os.path.join(build_dir, "perfbench_server")}
    rc, _ = run_group([bins["runner"], "prepare"], 800)
    if rc != 0:
        log("perfbench: model cache preparation failed")
        return 1
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    provenance = {"git_sha": git_sha(), "source_digest": source_digest()}

    results = {}
    status = 0
    for w in workloads:
        rc, result = run_workload(bins, args, w, out_dir, provenance)
        if result is None:
            log("perfbench: %s produced no result (exit %d)" % (w, rc))
            return rc or 1
        results[w] = result
        if not check_result(result, args.trace):
            return 1
        if rc != 0 or not result.get("correct", False):
            status = rc or 3

    if len(workloads) == 1:
        print(json.dumps(results[workloads[0]]))
    else:
        log("\n%-18s %-32s %16s  %s" % ("workload", "metric", "value", "unit"))
        for w, r in results.items():
            for name, m in r["metrics"].items():
                log("%-18s %-32s %16.6g  %s" % (w, name, m["value"]
                                                if m["value"] is not None
                                                else float("nan"), m["unit"]))
            log("%-18s requests sent %d, ok %d, failed %d, correct %s" % (
                w, r["attempted"], r["attempted"] - r["failed"], r["failed"],
                r["correct"]))
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (w, k): v for w, r in results.items()
                        for k, v in r["metrics"].items()}}))
    return status


if __name__ == "__main__":
    sys.exit(main())
