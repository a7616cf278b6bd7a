#!/usr/bin/env python3
"""Campaign benchmark entry point.

Builds perfbench/ (and, through it, the program's libraries and the worker
and node binaries) from the sources in this checkout, then runs one
workload:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Build output goes to standard error.

    python3 perfbench/run.py --smoke

runs every workload once at a tiny size, untraced and traced, and checks
metric names and units against BENCHMARK.json, the result schema and the
pinned smoke digests. The build directory is $CARGO_TARGET_DIR if set,
else .bench_build, relative to the checkout root.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULT_KEYS = ["correct", "attempted", "failed", "metrics"]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, builds incrementally; returns (binary, build root)."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no program sources (CMakeLists.txt, src/) under {ROOT}; "
             "run from a full checkout")
    build_root = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = build_root / "perfbench"
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / "bin" / "perfbench_campaign", build_root


def run(binary, build_root, args, capture=False):
    command = [str(binary), *args,
               "--pinned", str(BENCH_DIR / "pinned.json"),
               "--work-dir", str(build_root / "perfbench-work")]
    if capture:
        return subprocess.run(command, stdout=subprocess.PIPE, text=True)
    return subprocess.run(command)


def smoke(binary, build_root):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in ("0", "1"):
            label = f"{workload} --trace {trace}"
            before = len(problems)
            done = run(binary, build_root,
                       ["--workload", workload, "--seed", "2018", "--seconds", "1",
                        "--trace", trace, "--smoke"], capture=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                problems.append(f"{label}: exit {done.returncode}")
                continue
            result = json.loads(lines[-1])
            if list(result) != RESULT_KEYS:
                problems.append(f"{label}: result keys {list(result)}")
                continue
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} "
                                f"failed={result['failed']}")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if units != expected[trace]:
                problems.append(f"{label}: metrics {sorted(units.items())} != "
                                f"{sorted(expected[trace].items())}")
            print(f"smoke {label}: {'ok' if len(problems) == before else 'FAIL'}",
                  file=sys.stderr)
    for p in problems:
        print(f"perfbench smoke: FAIL {p}", file=sys.stderr)
    print(json.dumps({"smoke": "ok" if not problems else "failed",
                      "problems": problems}))
    return 0 if not problems else 1


def main():
    args = sys.argv[1:]
    binary, build_root = build()
    if args == ["--smoke"]:
        return smoke(binary, build_root)
    return run(binary, build_root, args).returncode


if __name__ == "__main__":
    sys.exit(main())
