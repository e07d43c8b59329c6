#!/usr/bin/env python3
"""Builds the benchmark against the library sources of this checkout, then
runs one workload.

    python3 perfbench/run.py --workload knn-static --seed 1 --seconds 20 --trace 0

Run it from the repository root. The build goes to $CARGO_TARGET_DIR when
that is set, else to .bench_build/; an up-to-date build costs a second.
Build output goes to standard error, so the last line of standard output is
the benchmark's JSON result. Exits non-zero, printing no result, when the
library sources are missing or the build or the run fails.

The result line is checked against BENCHMARK.json: a --trace 0 run must
report every end-to-end metric, in its unit, and nothing else. A --trace 1
run reports the per-layer metrics; a layer that the workload does not
exercise (a cold-tier frame cache on knn-static, say) did no work there and
reads 0, which this script fills in.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources under %s/src" % ROOT)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def manifest_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return bench["per_layer" if trace else "end_to_end"]


def complete(result, wanted, trace):
    """Returns the result with its metrics in manifest order, or exits."""
    got = result["metrics"]
    units = {m["name"]: m["unit"] for m in wanted}
    for name, m in got.items():
        if units.get(name) != m["unit"]:
            sys.exit("perfbench: metric %s (%s) is not in BENCHMARK.json" %
                     (name, m["unit"]))
    metrics = {}
    for name, unit in units.items():
        if name not in got and not trace:
            sys.exit("perfbench: the workload did not report %s" % name)
        metrics[name] = got.get(name, {"value": 0.0, "unit": unit})
    result["metrics"] = metrics
    return result


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    run = subprocess.run([binary] + sys.argv[1:], cwd=ROOT,
                         stdout=subprocess.PIPE, text=True)
    if run.returncode != 0:
        return run.returncode
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit("perfbench: no result line")
    trace = "--trace" in sys.argv and \
        sys.argv[sys.argv.index("--trace") + 1] == "1"
    result = complete(result, manifest_metrics(trace), trace)
    print("\n".join(lines[:-1] + [json.dumps(result)]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
