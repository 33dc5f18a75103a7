#!/usr/bin/env python3
"""Build gencoll_bench from this checkout's sources and run it.

    python3 gencoll_bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 gencoll_bench/run.py [--seed N] [--seconds S] [--trace 0|1]   # every workload
    python3 gencoll_bench/run.py --smoke [--binary PATH]

The first call configures and builds a Release tree in .bench_build/gencoll_bench
(later calls only re-check it). One workload runs in one process; the last line
it prints is the result JSON. --smoke runs every workload briefly, traced and
untraced, and checks each result against the metric names and units that
BENCHMARK.json declares. --binary skips the build and runs that executable.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "gencoll_bench"


def build() -> pathlib.Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"run.py: no library sources at {ROOT / 'src'}; run from a full checkout")
    quiet = {"stdout": sys.stderr, "check": True}
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"], **quiet)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "gencoll_bench", "-j", jobs],
                   **quiet)
    return BUILD / "gencoll_bench"


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def last_json(stdout: str) -> dict:
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else {}


def smoke(binary: pathlib.Path) -> int:
    spec = benchmark_spec()
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            cmd = [str(binary), "--workload", workload, "--trace", trace, "--smoke"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
            where = f"{workload} --trace {trace}"
            try:
                result = last_json(proc.stdout)
            except json.JSONDecodeError:
                result = {}
            if proc.returncode != 0 or result.get("correct") is not True:
                problems.append(f"{where}: exit {proc.returncode}, correct="
                                f"{result.get('correct')}\n{proc.stderr[-2000:]}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            got = result.get("metrics", {})
            for metric in declared:
                entry = got.get(metric["name"])
                if entry is None:
                    problems.append(f"{where}: missing metric {metric['name']}")
                elif entry.get("unit") != metric["unit"]:
                    problems.append(f"{where}: {metric['name']} unit {entry.get('unit')!r}, "
                                    f"BENCHMARK.json says {metric['unit']!r}")
            extra = set(got) - {m["name"] for m in declared}
            if extra:
                problems.append(f"{where}: metrics not in BENCHMARK.json: {sorted(extra)}")
            print(f"smoke {where}: {result['attempted']} ops, {len(got)} metrics", flush=True)
    for problem in problems:
        print("FAIL", problem, file=sys.stderr)
    print("smoke ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default=str(benchmark_spec()["run_seconds"]))
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--binary", type=pathlib.Path)
    args = parser.parse_args()

    binary = args.binary or build()
    if args.smoke:
        return smoke(binary)
    workloads = ([args.workload] if args.workload
                 else [w["name"] for w in benchmark_spec()["workloads"]])
    status = 0
    for workload in workloads:
        cmd = [str(binary), "--workload", workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace]
        status = max(status, subprocess.run(cmd).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
