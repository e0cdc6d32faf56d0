#!/usr/bin/env python3
"""Builds the solver and the benchmark from source, then runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig12|synthetic|serve \\
        --seed N --seconds S --trace 0|1

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
metrics of the traced pass. The last line of stdout is the JSON result;
build output and human-readable detail go to stderr.

Repeat mode runs one workload N times on consecutive seeds and prints,
for each end-to-end metric, the median, the quartiles and the run-to-run
spread (interquartile range over median) next to the metric's bound in
BENCHMARK.json:

    python3 perfbench/run.py --workload fig12 --repeat 10 [--first-seed 1]

Artifacts go to $CARGO_TARGET_DIR (default `.bench_build`).
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(root):
    """Builds the `dprle` binary and the benchmark; returns the target dir."""
    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR", os.path.join(root, ".bench_build"))
    )
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    commands = [
        # The repository's own workspace: the `serve` workload drives the
        # real binary.
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(root, "Cargo.toml"),
         "-p", "dprle-cli", "--bin", "dprle"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in commands:
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            log("perfbench: build failed:", " ".join(cmd))
            sys.exit(2)
    return target


def metric_table(root, trace):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec, spec["per_layer" if trace else "end_to_end"]


def run_once(root, target, workload, seed, seconds, trace):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--dprle", os.path.join(target, "release", "dprle"),
        "--work-dir", os.path.join(target, "perfbench"),
    ]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout.splitlines()


def checked_result(root, lines, trace):
    """The JSON result line, after checking its metrics match BENCHMARK.json."""
    result = json.loads(lines[-1])
    _, table = metric_table(root, trace)
    want = {m["name"]: m["unit"] for m in table}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want != got:
        log("perfbench: metrics differ from BENCHMARK.json:",
            sorted(set(want.items()) ^ set(got.items())))
        sys.exit(1)
    return result


def repeat(root, target, args):
    spec, table = metric_table(root, False)
    seconds = args.seconds or spec["run_seconds"]
    values = {m["name"]: [] for m in table}
    shares = set()
    for seed in range(args.first_seed, args.first_seed + args.repeat):
        code, lines = run_once(root, target, args.workload, seed, seconds, 0)
        if code != 0 or not lines:
            log(f"perfbench: seed {seed} exited with {code}")
            sys.exit(1)
        result = checked_result(root, lines, False)
        if not result["correct"]:
            log(f"perfbench: seed {seed}: wrong outputs")
            sys.exit(1)
        shares.add((result["failed"], result["attempted"]))
        for name, v in result["metrics"].items():
            values[name].append(v["value"])
        log(f"seed {seed}: " + json.dumps({k: round(v["value"], 4) for k, v in result["metrics"].items()}))
    ratios = {f / a for f, a in shares}
    print(f"workload {args.workload}: {args.repeat} runs of {seconds} s, "
          f"failed/attempted {sorted(shares)} -> {'one share' if len(ratios) == 1 else 'SHARES DIFFER'}")
    print(f"{'metric':<14} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  spread/bound")
    for m in table:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med
        print(f"{m['name']:<14} {m['unit']:<6} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} "
              f"{spread:>8.4f} {m['bound']:>6}  {spread / m['bound']:.2f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--repeat", type=int, help="runs for repeat mode")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    root = os.getcwd()
    # The serve workload deliberately crashes a server on the hostile
    # request; no core files.
    resource.setrlimit(resource.RLIMIT_CORE, (0, resource.getrlimit(resource.RLIMIT_CORE)[1]))
    target = build(root)
    if args.repeat:
        repeat(root, target, args)
        return
    if args.seed is None or args.seconds is None or args.trace is None:
        parser.error("--seed, --seconds and --trace are required outside repeat mode")
    code, lines = run_once(root, target, args.workload, args.seed, args.seconds, args.trace)
    if code != 0 or not lines:
        log(f"perfbench: benchmark exited with {code}")
        sys.exit(code or 1)
    for line in lines[:-1]:
        print(line)
    checked_result(root, lines, args.trace)
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
