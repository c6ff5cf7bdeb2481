#!/usr/bin/env python3
"""Timing gate: the end-to-end benchmark of two checkouts, alternated.

Usage: bench_ab.py BASE_DIR HEAD_DIR

Reads the workloads and the end-to-end metrics (`better`, `bound`) from
HEAD_DIR/BENCHMARK.json.  After one discarded warm-up run per side
(which also builds that side's Release tree), it runs PAIRS pairs of
`python3 <dir>/bench_e2e/run.py` per workload, one run per side,
swapping which side goes first in every pair.  It exits 1 when

  * a head run is not `correct` or reports `failed` > 0, or
  * a head median is worse than the base median by more than the
    metric's bound, read as a fraction of the base median in the
    metric's worse direction.

The table of medians goes to stdout and, under GitHub Actions, to
$GITHUB_STEP_SUMMARY.  Every raw result line is appended to RESULTS in
the working directory, tagged with its side, workload and pair.
"""

import json
import os
import statistics
import subprocess
import sys

PAIRS = 5
SECONDS = 10
WARMUP_SECONDS = 1
SEED = 1
RESULTS = "bench_ab_results.ndjson"


def run(directory, workload, seconds):
    """One bench_e2e run; returns its JSON result line."""
    cmd = [sys.executable, os.path.join(directory, "bench_e2e", "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", str(seconds)]
    out = subprocess.run(cmd, cwd=directory, capture_output=True, text=True)
    try:
        return json.loads(out.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(out.stderr)
        sys.exit(f"bench_ab: {directory} {workload}: no result line (exit {out.returncode})")


def is_worse(metric, base, head):
    if metric["better"] == "lower":
        return head > base * (1.0 + metric["bound"])
    return head < base * (1.0 - metric["bound"])


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sides = {"base": os.path.abspath(sys.argv[1]), "head": os.path.abspath(sys.argv[2])}
    with open(os.path.join(sides["head"], "BENCHMARK.json"), encoding="utf-8") as fh:
        config = json.load(fh)
    workloads = [w["name"] for w in config["workloads"]]
    metrics = config["end_to_end"]

    for directory in sides.values():
        run(directory, workloads[0], WARMUP_SECONDS)

    failures = []
    rows = []
    with open(RESULTS, "a", encoding="utf-8") as raw:
        for workload in workloads:
            values = {side: {m["name"]: [] for m in metrics} for side in sides}
            for pair in range(PAIRS):
                order = ("base", "head") if pair % 2 == 0 else ("head", "base")
                for side in order:
                    result = run(sides[side], workload, SECONDS)
                    raw.write(json.dumps({"side": side, "workload": workload, "pair": pair,
                                          "result": result}) + "\n")
                    if side == "head" and (result.get("correct") is not True or
                                           result.get("failed") != 0):
                        failures.append(f"{workload} pair {pair}: head run correct="
                                        f"{result.get('correct')} failed={result.get('failed')}")
                    for m in metrics:
                        value = result.get("metrics", {}).get(m["name"], {}).get("value")
                        if value is not None:
                            values[side][m["name"]].append(value)
            for m in metrics:
                if not values["base"][m["name"]] or not values["head"][m["name"]]:
                    failures.append(f"{workload} {m['name']}: missing from the result lines")
                    continue
                base = statistics.median(values["base"][m["name"]])
                head = statistics.median(values["head"][m["name"]])
                worse = is_worse(m, base, head)
                if worse:
                    failures.append(f"{workload} {m['name']}: head median {head:.4g} vs base "
                                    f"{base:.4g} is worse by more than {m['bound']:.0%}")
                change = (head - base) / base if base else 0.0
                rows.append(f"| {workload} | {m['name']} ({m['unit']}) | {base:.4g} | {head:.4g} "
                            f"| {change:+.1%} | {m['bound']:.0%} | {'WORSE' if worse else 'ok'} |")

    table = "\n".join([f"## bench_e2e A/B: medians of {PAIRS} alternating pairs, {SECONDS} s runs",
                       "", "| workload | metric | base | head | change | bound | verdict |",
                       "|---|---|---|---|---|---|---|", *rows, ""])
    print(table)
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a", encoding="utf-8") as fh:
            fh.write(table + "\n")
    for failure in failures:
        print("bench_ab: " + failure, file=sys.stderr)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
