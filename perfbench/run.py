#!/usr/bin/env python3
"""Builds and runs the FlowGNN benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first run configures and builds
libflowgnn plus the `perfbench` binary under $CARGO_TARGET_DIR (default
.bench_build); later runs only re-check the build. The binary's report
goes to stdout; the last line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`, holding exactly the metrics
BENCHMARK.json declares for the mode: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. A per-layer metric of a
layer the workload does not exercise reads 0.

Exit codes: 0 ok; 1 build or run error (no result printed); 2 usage;
3 an output check failed (result printed with "correct": false).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("molhiv-screen", "hep-trigger", "reddit16-ghost")
RUN_TIMEOUT_S = 170

# Metrics computed purely from the cycle model: identical on every run
# with one seed (the determinism check below pins this).
MODELED = ("modeled_ms", "core.modeled_cycles.", "core.nt_util",
           "core.mp_util", "core.adapter_stall_cycles", "core.mp_imbalance",
           "ghost.modeled_cycles", "ghost.comm_cycles", "ghost.die_imbalance",
           "ghost.cut_fraction", "ghost.replication")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build(targets):
    """Configures (once) and builds the targets; False on failure."""
    tree = build_dir() / "perfbench"
    if not (tree / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(tree),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(tree, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", str(tree), "-j", str(os.cpu_count() or 2),
           "--target"] + list(targets)
    return subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def run_binary(workload, seed, seconds, trace, echo=True):
    """Runs the built binary; returns (exit code, parsed result or None)."""
    work = build_dir() / "work"
    work.mkdir(parents=True, exist_ok=True)
    exe = build_dir() / "perfbench" / "perfbench"
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", str(work)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("error: perfbench exceeded %d s" % RUN_TIMEOUT_S)
        return 1, None
    lines = proc.stdout.rstrip("\n").split("\n")
    if echo:
        print("\n".join(lines[:-1]), flush=True)
    if proc.returncode not in (0, 3):
        log("error: perfbench exited with %d" % proc.returncode)
        return 1, None
    try:
        return proc.returncode, json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        log("error: perfbench printed no result line")
        return 1, None


def shape(result, trace):
    """The binary's result restricted to BENCHMARK.json's metrics."""
    measured = result["metrics"]
    metrics = {}
    for m in declared_metrics(trace):
        got = measured.pop(m["name"], None)
        if got is None:
            if not trace:
                raise ValueError("end-to-end metric %s not measured"
                                 % m["name"])
            got = {"value": 0.0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            raise ValueError("metric %s: unit %s, declared %s"
                             % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    if measured:
        raise ValueError("undeclared metrics: %s" % ", ".join(sorted(measured)))
    return {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": metrics}


def selftest():
    """Unit tests of the statistics rules, then the determinism check:
    two invocations with one seed give identical modeled metrics."""
    if not build(["perfbench", "perfbench_selftest"]):
        return 1
    exe = build_dir() / "perfbench" / "perfbench_selftest"
    if subprocess.run([str(exe)]).returncode:
        return 1
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            got = []
            for _ in range(2):
                code, result = run_binary(workload, 7, 2, trace, echo=False)
                if code != 0:
                    log("FAIL %s trace=%d: exit %d" % (workload, trace, code))
                    return 1
                try:
                    shaped = shape(result, trace)
                except ValueError as e:
                    log("FAIL %s trace=%d: %s" % (workload, trace, e))
                    return 1
                got.append({k: v["value"] for k, v in shaped["metrics"].items()
                            if k.startswith(MODELED)})
            same = got[0] == got[1] and got[0]
            ok &= bool(same)
            log("%s %s trace=%d: %d modeled metrics identical across two "
                "invocations" % ("ok  " if same else "FAIL", workload, trace,
                                 len(got[0])))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload:
        ap.error("--workload is required")
    if not build(["perfbench"]):
        log("error: build failed")
        return 1
    code, result = run_binary(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    if result is None:
        return 1
    try:
        shaped = shape(result, bool(args.trace))
    except ValueError as e:
        log("error: %s" % e)
        return 1
    print(json.dumps(shaped), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
