#!/usr/bin/env python3
"""End-to-end benchmark of colarm_server.

One run:

    python3 perfbench/run.py --workload explore --seed 1 --seconds 15 --trace 0

builds libcolarm, the shipped colarm_server and the benchmark binary from
this checkout's sources (into $CARGO_TARGET_DIR, default .bench_build),
runs one workload (see perfbench/README.md) and prints one row per metric,
each stamped with its provenance, then as the last line the result object
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are BENCHMARK.json's end_to_end ones, with --trace 1 its per_layer ones.

Spread mode runs one workload N times on seeds seed, seed+1, ... and prints
each metric's median and quartiles; a metric whose quartile spread is wider
than its bound is reported as unresolved:

    python3 perfbench/run.py --workload cold-mine --seed 1 --seconds 15 --spread 5
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
# A seed kept out of tuning: a later gain claim must also hold on it.
HELD_OUT_SEED = 7919
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(out):
    """Configures (once) and builds the server and the benchmark binary."""
    cmake_dir = os.path.join(out, "cmake")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", cmake_dir, "-j", jobs, "--target",
                  "colarm_server", "colarm_perfbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise RuntimeError("build failed: " + " ".join(step))
    return cmake_dir


def source_digest():
    """sha256 over the sources the benchmark builds, in path order."""
    paths = [os.path.join(ROOT, "tools", "colarm_server.cc")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    digest = hashlib.sha256()
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def commit_id(sources):
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0 and os.path.isdir(os.path.join(ROOT, ".git")):
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "src-" + sources[:12]


def check_determinism(out, result, seconds, sources):
    """The digest of rules, response bytes, plans, record checks and cache
    counters must repeat for one seed; returns False when an earlier run of
    the same seed and sources disagrees."""
    folder = os.path.join(out, "determinism")
    os.makedirs(folder, exist_ok=True)
    key = f"{result['workload']}-{result['seed']}-{seconds}-{sources[:16]}"
    path = os.path.join(folder, key)
    if os.path.exists(path):
        with open(path) as f:
            earlier = f.read().strip()
        if earlier != result["digest"]:
            log(f"determinism: digest {result['digest']} differs from "
                f"{earlier} of an earlier run of the same seed")
            return False
        return True
    with open(path, "w") as f:
        f.write(result["digest"] + "\n")
    return True


def run_once(args):
    if not (os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")) and
            os.path.isfile(os.path.join(ROOT, "tools", "colarm_server.cc"))):
        log("the colarm sources (src/, tools/colarm_server.cc) are missing")
        return 2
    spec = load_spec()
    out = build_dir()
    try:
        cmake_dir = build(out)
    except RuntimeError as e:
        log(str(e))
        return 1
    work = os.path.join(out, "run", args.workload)
    os.makedirs(work, exist_ok=True)
    command = [os.path.join(cmake_dir, "colarm_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--server", os.path.join(cmake_dir, "colarm_server"),
               "--work", work]
    try:
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"benchmark binary failed with exit code {proc.returncode}")
        return 1
    result = json.loads(lines[-1])
    for problem in result["problems"]:
        log("check failed: " + problem)

    sources = source_digest()
    correct = result["correct"] and check_determinism(
        out, result, args.seconds, sources)
    provenance = {
        "commit": commit_id(sources),
        "sources": sources[:12],
        "nproc": len(os.sched_getaffinity(0)),
        "simd": result["simd"],
        "build_type": result["build_type"],
        "seed": args.seed,
        "server_flags": result["server_flags"],
        "host_probe_ms": result["host_probe_ms"],
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    measured = result["metrics"]
    e2e = spec["end_to_end"]
    layers = spec["per_layer"]
    rows = []
    for metric in e2e + (layers if args.trace else []):
        row = {"workload": args.workload, "metric": metric["name"],
               "value": measured[metric["name"]], "unit": metric["unit"]}
        if metric["name"] == "tail_ms":
            row["percentile"] = result["tail_percentile"]
        if metric["name"] in ("p50_ms", "tail_ms"):
            row["samples"] = result["timed_samples"]
        if metric["name"] == "p50_ms" and args.trace:
            row["server.overhead_ms"] = measured["server.overhead_ms"]
        row.update(provenance)
        rows.append(row)
    with open(os.path.join(out, "results.jsonl"), "a") as history:
        for row in rows:
            line = json.dumps(row)
            history.write(line + "\n")
            print(line)
    chosen = layers if args.trace else e2e
    print(json.dumps({
        "correct": bool(correct),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in chosen},
    }))
    return 0


def run_spread(args):
    """Runs the workload on args.spread seeds and summarizes each metric."""
    spec = load_spec()
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = {m["name"]: [] for m in metrics}
    host_probe = []
    for i in range(args.spread):
        seed = args.seed + i
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            log(f"seed {seed} failed")
            return 1
        result = json.loads(lines[-1])
        host_probe.append(json.loads(lines[0])["host_probe_ms"])
        log(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()))
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    print(f"{args.workload}: {args.spread} runs, seeds {args.seed}.."
          f"{args.seed + args.spread - 1}")
    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for m in metrics:
        v = values[m["name"]]
        median = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
        spread = (q3 - q1) / median if median else float("inf")
        bound = m.get("bound")
        if bound is None:
            verdict = "-"
        elif spread > bound:
            verdict = "unresolved (spread wider than bound)"
        elif spread > bound / 3:
            verdict = "within bound"
        else:
            verdict = "steady"
        print(f"{m['name']:32} {median:12.5g} {q1:12.5g} {q3:12.5g} "
              f"{spread:8.3f} {bound if bound is not None else '-':>6}  "
              f"{verdict}")
    print(f"host probe: {min(host_probe):.1f}..{max(host_probe):.1f} ms"
          " (how fast the host ran; drift here moves every timing)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help=f"request-list seed; keep {HELD_OUT_SEED} out "
                        "of tuning (held out for gain claims)")
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spread", type=int, default=0,
                        help="run N seeds and summarize (spread mode)")
    args = parser.parse_args()
    if args.spread > 0:
        return run_spread(args)
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
