#!/usr/bin/env python3
"""Output gate: the CLI outputs of two checkouts, byte for byte.

Usage: outputs_ab.py BASE_DIR HEAD_DIR

Builds `asilkit_cli` (Release; no tests, report programs or examples)
under BUILD in each checkout, then runs the fixed command list below:

  * `demo` writes the EcoTwin lateral and longitudinal models and the
    Fig. 3 and Fig. 3 shared-ECU models;
  * on each of the four, the analysis commands `validate`,
    `lint --format json`, `ccf`, `tolerance`, `tolerance --max-order 4`,
    `fmea`, `advise`, `trace`, `analyze` and `analyze --approximate` run
    (on `fig3-ccf` the last prints the builder's approximation fallback
    warning, which names a shared event), and
    `export --layer ftree --format dot` writes the raw fault tree, every
    event and gate in index order with its name;

and on the two EcoTwin demos:

  * `simulate --is --format json` estimates the model's probability,
    once on the calling thread and once with `--threads 4`, so the
    threaded fan-out is compared too;
  * `explore` runs BB, AC and RND over the demo's decision nodes, each
    writing its curve (`--csv`), front stream and final model;
  * on each of those six explore finals, `ccf`, `fmea`,
    `analyze --approximate`, `tolerance --max-order 4` and
    `simulate --is --format json` run: their expanded blocks are where
    the branch-usage list (shared resources and locations by id), the
    approximation's independence check, the per-event importance
    lookups and the minimal cut sets' factored products (the tolerance
    report's order-4 families and the importance-sampling proposal) do
    most of their work;
  * `search` runs with the defaults, `--max-nodes 2`,
    `--max-nodes 3 --approximate` and `--metric 2`, each with
    `--stream-front` and `-o`, on the demo model and on the final model
    of each of the three explores: the searches the bench_e2e eco_sweep
    workload runs, so every bound-context walk of that sweep has its
    streamed front, searched model and ledger compared.

Every command runs in its side's output directory (BUILD/outputs) with
relative file names, so no path differs between the sides.  Its stdout
is kept as `<step>.out` beside the files it writes, with its exit code
as the last line (`exit N`): some commands exit non-zero by design, such
as `ccf` (1 on findings) and `lint` (3 on warnings, 4 on errors).  A
command killed by a signal stops the script.  The script then
compares every file of the two output directories byte for byte.  It
exits 1 and names each file that differs or exists on one side only,
and exits 0 when all are identical.
"""

import filecmp
import os
import shutil
import subprocess
import sys

BUILD = "build-outputs-ab"

# The demos and their decision nodes, as scenarios::ecotwin_decision_nodes()
# and scenarios::longitudinal_decision_nodes() list them.
DEMOS = {
    "ecotwin": ["objs_eth", "objs_bb", "environment_model", "env_out", "world_model", "wm_eth",
                "wm_can", "lateral_control", "ctrl_out", "steer_plan", "steer_req"],
    "longitudinal": ["gap_state", "cacc_controller", "accel_req", "torque_brake_arbiter"],
}
# The demos the analysis commands run on, and per analysis step the
# command and its arguments after the model; "{step}" names a file the
# step writes.
ANALYSED_DEMOS = ["ecotwin", "longitudinal", "fig3", "fig3-ccf"]
ANALYSES = {
    "validate": ["validate"],
    "lint": ["lint", "--format", "json"],
    "ccf": ["ccf"],
    "tolerance": ["tolerance"],
    "tolerance4": ["tolerance", "--max-order", "4"],
    "fmea": ["fmea"],
    "advise": ["advise"],
    "trace": ["trace"],
    "analyze": ["analyze"],
    "analyze-approx": ["analyze", "--approximate"],
    "ftree": ["export", "--layer", "ftree", "--format", "dot", "-o", "{step}.dot"],
}
# Importance-sampled simulation, run on the EcoTwin demos and on each
# explore final; on the demos also on four threads.
SIMULATE_IS = ["simulate", "--is", "--format", "json"]
SIMULATE_IS_THREADED = [*SIMULATE_IS, "--threads", "4"]
# The steps that run on each explore final: some analysis steps, and
# the simulation.
FINAL_ANALYSES = {name: ANALYSES[name] for name in ["ccf", "fmea", "analyze-approx", "tolerance4"]}
FINAL_ANALYSES["simulate-is"] = SIMULATE_IS
STRATEGIES = ["BB", "AC", "RND"]
SEARCHES = {
    "default": [],
    "max2": ["--max-nodes", "2"],
    "max3-approx": ["--max-nodes", "3", "--approximate"],
    "metric2": ["--metric", "2"],
}


def commands():
    """(step name, CLI arguments) in run order; a step may read what an earlier one wrote."""
    steps = []
    for demo in ANALYSED_DEMOS:
        model = f"{demo}.json"
        steps.append((f"{demo}-demo", ["demo", demo, "-o", model]))
        for name, (command, *extra) in ANALYSES.items():
            step = f"{demo}-{name}"
            steps.append((step, [command, model, *(arg.format(step=step) for arg in extra)]))
    for demo, nodes in DEMOS.items():
        model = f"{demo}.json"
        for step, (command, *extra) in ((f"{demo}-simulate-is", SIMULATE_IS),
                                        (f"{demo}-simulate-is-threads4", SIMULATE_IS_THREADED)):
            steps.append((step, [command, model, *extra]))
        for strategy in STRATEGIES:
            step = f"{demo}-explore-{strategy}"
            steps.append((step, ["explore", model, "--nodes", ",".join(nodes),
                                 "--strategy", strategy, "--csv", f"{step}.csv",
                                 "--stream-front", f"{step}.ndjson", "-o", f"{step}.json"]))
            for name, (command, *extra) in FINAL_ANALYSES.items():
                steps.append((f"{step}-{name}", [command, f"{step}.json", *extra]))
        for source in (model, *(f"{demo}-explore-{strategy}.json" for strategy in STRATEGIES)):
            stem = source[:-len(".json")]
            for name, extra in SEARCHES.items():
                step = f"{stem}-search-{name}"
                steps.append((step, ["search", source, *extra,
                                     "--stream-front", f"{step}.ndjson", "-o", f"{step}.json"]))
    return steps


def build(directory):
    """Configures and builds asilkit_cli in directory/BUILD; returns the binary."""
    build_dir = os.path.join(directory, BUILD)
    configure = ["cmake", "-S", directory, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release",
                 "-DASILKIT_BUILD_TESTS=OFF", "-DASILKIT_BUILD_BENCHMARKS=OFF",
                 "-DASILKIT_BUILD_EXAMPLES=OFF"]
    compile_cli = ["cmake", "--build", build_dir, "--target", "asilkit_cli",
                   "-j", str(os.cpu_count() or 1)]
    for cmd in (configure, compile_cli):
        done = subprocess.run(cmd, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout + done.stderr)
            sys.exit(f"outputs_ab: building {directory} failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "tools", "asilkit_cli")


def run_all(cli, out_dir):
    """Runs every command with out_dir as the working directory."""
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    for step, args in commands():
        done = subprocess.run([cli, *args], cwd=out_dir, capture_output=True, text=True)
        if done.returncode < 0:
            sys.exit(f"outputs_ab: {cli} {' '.join(args)} was killed by signal "
                     f"{-done.returncode}: {done.stderr.strip()}")
        with open(os.path.join(out_dir, f"{step}.out"), "w", encoding="utf-8") as fh:
            fh.write(done.stdout)
            if done.stdout and not done.stdout.endswith("\n"):
                fh.write("\n")
            fh.write(f"exit {done.returncode}\n")


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sides = {"base": os.path.abspath(sys.argv[1]), "head": os.path.abspath(sys.argv[2])}
    out_dirs = {}
    for side, directory in sides.items():
        out_dirs[side] = os.path.join(directory, BUILD, "outputs")
        run_all(build(directory), out_dirs[side])

    names = sorted(set(os.listdir(out_dirs["base"])) | set(os.listdir(out_dirs["head"])))
    differing = []
    for name in names:
        paths = [os.path.join(out_dirs[side], name) for side in sides]
        if not all(os.path.exists(p) for p in paths):
            differing.append(f"{name} (on one side only)")
        elif not filecmp.cmp(*paths, shallow=False):
            differing.append(name)
    for name in differing:
        print(f"outputs_ab: differs: {name}", file=sys.stderr)
    print(f"outputs_ab: {len(names) - len(differing)} of {len(names)} files identical "
          f"({out_dirs['base']} vs {out_dirs['head']})")
    sys.exit(1 if differing else 0)


if __name__ == "__main__":
    main()
