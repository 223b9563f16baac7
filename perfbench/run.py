#!/usr/bin/env python3
"""Build and run the lwmpi benchmark.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
library and the lwbench binary under $CARGO_TARGET_DIR (default
.bench_build); later runs only check the build is current. Build output
goes to stderr, so the last line on stdout is the benchmark's JSON result.
The exit code is lwbench's: nonzero when any output check failed, when the
build failed, or when the emitted metric set does not match BENCHMARK.json.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve() / "perfbench"


def build(bdir):
    """Configure (once) and build; returns the lwbench path or None."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(bdir), "-j", jobs, "--target", "lwbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    exe = bdir / "lwbench"
    return exe if exe.exists() else None


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--force-wrong", action="store_true",
                    help="corrupt one observed result per group; the run must fail")
    args = ap.parse_args()

    bdir = build_dir()
    exe = build(bdir)
    if exe is None:
        print("run.py: build failed", file=sys.stderr)
        return 2
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", str(ROOT / "bench" / "traces"),
           "--artifact", str(bdir / f"result_{args.workload}_trace{args.trace}.json")]
    if args.force_wrong:
        cmd.append("--force-wrong")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: lwbench did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    out = proc.stdout.rstrip("\n")
    lines = out.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(out + "\n" if out else "")
        return proc.returncode or 4
    result = json.loads(lines[-1])
    emitted, declared = set(result["metrics"]), declared_metrics(args.trace)
    if emitted != declared:
        print("\n".join(lines[:-1]))
        print(f"run.py: metric set differs from BENCHMARK.json: missing "
              f"{sorted(declared - emitted)}, undeclared {sorted(emitted - declared)}",
              file=sys.stderr)
        return 5
    print(out)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
