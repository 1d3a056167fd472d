#!/usr/bin/env python3
"""Federation benchmark entry point.

    python3 fedbench/run.py --workload ring_inproc --seed 1 --seconds 20 --trace 0
    python3 fedbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Builds the privtopk libraries and the fedbench program from this checkout's
sources (CMake, Release) into $CARGO_TARGET_DIR or .bench_build, reads the
workload's fixed parameters from BENCHMARK.json, and runs the program.  Its
last stdout line is the JSON result; this script passes the program's
output and exit code through.  Build output goes to stderr.
With --workload all it runs every workload of BENCHMARK.json in turn and
prints each metric as "workload metric value unit"; it exits non-zero when
any run fails its checks.

Workload parameters live in each workload's "why" line of BENCHMARK.json as
key=value tokens: callers=N (closed loop), rate=R/s (open loop),
limit=Lms (latency limit), epoch_every=N (gateway_zipf).
"""

import argparse
import json
import os
import re
import subprocess
import sys

# Workloads the harness runs but BENCHMARK.json does not measure, with
# the parameters it would fix.  ring_grouped: with default options about
# 0.5% of grouped queries stall ~1 s on the retransmit deadline, which
# puts p99 in the sparse tail between body and stalls; its run-to-run
# spread (0.13-0.22 of the median) is too wide for the benchmark's bounds.
UNMEASURED = {"ring_grouped": "rate=600/s limit=100ms"}

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"fedbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configures and builds the program; the build is incremental."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", "fedbench", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(out, "fedbench")


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def workload_params(spec, name):
    """Parses the key=value tokens of the workload's BENCHMARK.json line."""
    why = next((w["why"] for w in spec.get("workloads", []) if w.get("name") == name),
               UNMEASURED.get(name))
    if why is None:
        fail(f"unknown workload {name}")
    tokens = dict(re.findall(r"\b(callers|rate|limit|epoch_every)=([0-9.]+)", why))
    if "limit" not in tokens:
        fail(f"workload {name} states no limit=<ms>")
    args = ["--limit-ms", tokens["limit"]]
    for key, flag in (("callers", "--callers"), ("rate", "--rate"),
                      ("epoch_every", "--epoch-every")):
        if key in tokens:
            args += [flag, tokens[key]]
    return args


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = load_spec()
    names = ([w["name"] for w in spec.get("workloads", [])]
             if args.workload == "all" else [args.workload])
    params = {name: workload_params(spec, name) for name in names}
    out = build_dir()
    binary = build(out)

    def run(name, capture):
        spans = os.path.join(out, f"spans-{name}.tsv")
        command = [binary, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--span-out", spans] + params[name]
        with subprocess.Popen(command, stdout=subprocess.PIPE if capture else None,
                              text=True) as proc:
            try:
                stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                fail(f"{name}: run exceeded {RUN_TIMEOUT_S} s")
        return proc.returncode, stdout

    if args.workload != "all":
        code, _ = run(args.workload, capture=False)
        sys.exit(code)

    worst = 0
    for name in names:
        code, stdout = run(name, capture=True)
        worst = worst or code
        lines = (stdout or "").strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{name} FAILED (exit {code}, no result)")
            worst = worst or 1
            continue
        status = "ok" if code == 0 and result["correct"] else f"FAILED (exit {code})"
        print(f"{name} {status} attempted={result['attempted']} failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
    sys.exit(worst)


if __name__ == "__main__":
    main()
