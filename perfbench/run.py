#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The first call configures and compiles the library and the benchmark program
(Release) into $CARGO_TARGET_DIR, or .bench_build when that is unset; later
calls rebuild incrementally. Build output goes to standard error, so the last line
of standard output is the program's JSON result. --selftest runs the program's
own self-test at the reduced scale, then runs every workload briefly and
checks that each prints exactly the metrics BENCHMARK.json declares, by name
and unit, with correct outputs.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build():
    build_dir = os.path.abspath(
        os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                     "perfbench"))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j3"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return None
    return os.path.join(build_dir, "perfbench")


def last_json(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def selftest(binary):
    failures = []
    proc = subprocess.run([binary, "--selftest"])
    if proc.returncode != 0:
        failures.append("program self-test")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for w in spec["workloads"]:
            name = w["name"]
            proc = subprocess.run(
                [binary, "--workload", name, "--seed", "1", "--seconds",
                 "0.2", "--trace", str(trace), "--tiny"],
                stdout=subprocess.PIPE, text=True)
            try:
                result = last_json(proc.stdout)
            except ValueError:
                result = None
            if proc.returncode != 0 or result is None:
                failures.append("%s --trace %d: no result" % (name, trace))
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                failures.append("%s --trace %d: metrics %s, declared %s" %
                                (name, trace, got, want))
            if not (result["correct"] and result["failed"] == 0
                    and result["attempted"] >= 1):
                failures.append("%s --trace %d: outputs not correct" %
                                (name, trace))
    for f in failures:
        sys.stderr.write("selftest FAILED: %s\n" % f)
    print("selftest: %s" % ("ok" if not failures else "FAILED"))
    return 0 if not failures else 1


def main():
    binary = build()
    if binary is None:
        return 1
    if sys.argv[1:] == ["--selftest"]:
        return selftest(binary)
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
