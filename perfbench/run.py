#!/usr/bin/env python3
"""Pipeline benchmark: campaign -> trace -> replay -> grid, end to end
and layer by layer.

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Builds perfbench/ (the library from src/ plus perfbench/runner.cpp) into
.bench_build/perfbench on first use, then runs each workload in a fresh
runner process. The runner measures; this script checks the exact values
it reports against perfbench/workloads.json and the committed goldens,
prints every metric by name and unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
runs the workload untraced and then traced (each in its own process),
prints the two sets of end-to-end figures side by side, and reports the
per-layer metrics. The exit code is 0 only when every check held.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUNNER = BUILD_DIR / "perfbench_runner"
RUNNER_TIMEOUT_S = 170

# Phase metrics every run prints next to the gated ones (unit per name).
PHASE_UNITS = {
    "events_per_s": "1/s",
    "record_s": "s",
    "grid_s": "s",
    "flows_per_s": "1/s",
    "replay_s": "s",
    "roc_s": "s",
    "wall_s": "s",
}


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build():
    """Configures (once) and builds the runner; False on failure."""
    if not (ROOT / "src" / "scenario" / "engine.hpp").is_file():
        log("perfbench: library sources (src/) not found next to perfbench/")
        return False
    if shutil.which("cmake") is None:
        log("perfbench: cmake not found")
        return False
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j",
                  str(min(os.cpu_count() or 1, 4)), "--target",
                  "perfbench_runner"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              check=False)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(step))
            return False
    return RUNNER.is_file()


def golden_value(relpath, key):
    """The value on the `key` line of a golden file (read only)."""
    with open(ROOT / relpath, encoding="utf-8") as f:
        for line in f:
            parts = line.split()
            if len(parts) == 2 and parts[0] == key:
                return parts[1]
    raise KeyError(f"{key} not in {relpath}")


def expectations(spec, seed):
    """Reference values for this workload at this seed: the committed
    golden and the recorded reference, for the default seed only."""
    if seed != int(spec["default_seed"], 0):
        return {}
    expect = dict(spec.get("reference", {}))
    golden = spec.get("golden")
    if golden:
        expect[golden["exact_key"]] = golden_value(golden["file"],
                                                   golden["key"])
    return expect


def run_runner(name, seed, seconds, trace, expect):
    """Runs one runner process; returns its parsed result or None."""
    work_dir = ROOT / ".bench_build" / "work" / f"{name}-{os.getpid()}"
    cmd = [str(RUNNER), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", str(work_dir)]
    for key, value in sorted(expect.items()):
        cmd += ["--expect", f"{key}={value}"]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUNNER_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {name} timed out after {RUNNER_TIMEOUT_S} s")
        return None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log(f"perfbench: {name} runner exited {done.returncode}")
        return None
    return json.loads(lines[-1])


def print_table(title, rows):
    print(title)
    for name, unit, *values in rows:
        cells = "  ".join(f"{v:>14.6g}" if isinstance(v, (int, float))
                          else f"{v:>14}" for v in values)
        print(f"  {name:<40} {unit:<8} {cells}")


def e2e_rows(bench, result):
    """(name, unit, median, samples, min, max) for every end-to-end and
    phase metric of one runner result."""
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    units.update(PHASE_UNITS)
    names = [m["name"] for m in bench["end_to_end"]]
    names += [n for n in result["values"] if n not in names]
    rows = []
    for name in names:
        if name not in result["values"]:
            rows.append((name, units.get(name, ""), "missing", 0, "", ""))
            continue
        samples = result["samples"].get(name, [result["values"][name]])
        rows.append((name, units.get(name, ""), result["values"][name],
                     len(samples), min(samples), max(samples)))
    attempted = max(result["attempted"], 1)
    rows.append(("failed_frac", "fraction", result["failed"] / attempted,
                 1, "", ""))
    return rows


def verdict(result):
    for error in result["errors"]:
        log(f"perfbench: {result['workload']}: {error}")
    return (result["attempted"] >= 1 and result["failed"] == 0
            and not result["errors"])


def run_workload(bench, spec, name, seed, seconds, trace):
    """Runs one workload; returns (correct, attempted, failed, metrics)
    or None when the runner did not produce a result."""
    expect = expectations(spec, seed)
    untraced = run_runner(name, seed, seconds, False, expect)
    if untraced is None:
        return None
    correct = verdict(untraced)
    print(f"== {name} (seed {seed}) ==")
    if not trace:
        print_table("end-to-end (untraced): median, samples, min, max",
                    e2e_rows(bench, untraced))
        metrics = {m["name"]: {"value": untraced["values"][m["name"]],
                               "unit": m["unit"]}
                   for m in bench["end_to_end"]
                   if m["name"] in untraced["values"]}
        return (correct, untraced["attempted"], untraced["failed"],
                metrics)

    traced = run_runner(name, seed, seconds, True, expect)
    if traced is None:
        return None
    correct = verdict(traced) and correct
    traced_rows = {row[0]: row[2] for row in e2e_rows(bench, traced)}
    rows = [(row[0], row[1], row[2], traced_rows.get(row[0], ""))
            for row in e2e_rows(bench, untraced)]
    print_table("end-to-end: untraced median | traced (wrapper overhead)",
                rows)
    layer_rows = [(m["name"], m["unit"], traced["layers"].get(m["name"], 0.0))
                  for m in bench["per_layer"]]
    print_table("per-layer (traced)", layer_rows)
    metrics = {m["name"]: {"value": traced["layers"].get(m["name"], 0.0),
                           "unit": m["unit"]}
               for m in bench["per_layer"]}
    return (correct, untraced["attempted"] + traced["attempted"],
            untraced["failed"] + traced["failed"], metrics)


def main():
    bench = load_json(ROOT / "BENCHMARK.json")
    specs = load_json(BENCH_DIR / "workloads.json")["workloads"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all"] + list(specs))
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=None,
                        help="workload seed (default: each workload's own)")
    parser.add_argument("--seconds", type=float,
                        default=float(bench["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not build():
        return 2
    names = list(specs) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        seed = (args.seed if args.seed is not None
                else int(specs[name]["default_seed"], 0))
        outcome = run_workload(bench, specs[name], name, seed, args.seconds,
                               args.trace == 1)
        if outcome is None:
            return 3
        ok, tried, bad, values = outcome
        correct = correct and ok
        attempted += tried
        failed += bad
        if len(names) == 1:
            metrics = values
        else:
            metrics.update({f"{name}.{k}": v for k, v in values.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
