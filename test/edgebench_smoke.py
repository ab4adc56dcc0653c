#!/usr/bin/env python3
"""Exact gate on the benchmark's deterministic columns.

Runs edgebench/main.exe on every workload of BENCHMARK.json at the size
`edgebench/run.py --smoke` uses (seed 42, 1 s, scale 0.05, untraced) and
compares each workload's deterministic fields exactly against a
checked-in golden file:

    correct, attempted, failed, alloc_words_per_op, goodput_mbit,
    ops_per_s, op_p50_us, op_p99_us

setup_s and sim_speed are wall-clock metrics and heap_peak_mb moves with
GC settings, so none of the three is compared. A change that moves a
compared field on purpose regenerates the golden and says why:

    dune build ./edgebench/main.exe && python3 test/edgebench_smoke.py --write

`dune runtest` runs the check with explicit paths (see test/dune).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ARGS = ["--seed", "42", "--seconds", "1", "--scale", "0.05", "--trace", "0"]
FIELDS = ["correct", "attempted", "failed"]
METRICS = ["alloc_words_per_op", "goodput_mbit", "ops_per_s", "op_p50_us",
           "op_p99_us"]
REGENERATE = ("dune build ./edgebench/main.exe && "
              "python3 test/edgebench_smoke.py --write")


def run(exe, workload):
    """The deterministic columns of one workload's result line."""
    p = subprocess.run([exe, "--workload", workload] + ARGS,
                       capture_output=True, text=True, timeout=170)
    try:
        result = json.loads(p.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        sys.exit(f"edgebench smoke: {workload}: no result line "
                 f"(exit {p.returncode})\n{p.stdout}{p.stderr}")
    row = {f: result[f] for f in FIELDS}
    row.update({m: result["metrics"][m]["value"] for m in METRICS})
    return row


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--exe", default=os.path.join(
        ROOT, "_build", "default", "edgebench", "main.exe"))
    ap.add_argument("--bench", default=os.path.join(ROOT, "BENCHMARK.json"))
    ap.add_argument("--golden", default=os.path.join(
        HERE, "golden", "edgebench.smoke.seed42.json"))
    ap.add_argument("--write", action="store_true",
                    help="regenerate the golden instead of checking it")
    args = ap.parse_args()
    with open(args.bench) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    got = {w: run(args.exe, w) for w in workloads}
    if args.write:
        with open(args.golden, "w") as f:
            json.dump({"args": " ".join(ARGS), "workloads": got}, f, indent=2)
            f.write("\n")
        print(f"wrote {args.golden}")
        return
    with open(args.golden) as f:
        want = json.load(f)["workloads"]
    bad = []
    for w in workloads:
        for k, v in got[w].items():
            old = want.get(w, {}).get(k)
            if old != v:
                bad.append(f"  {w} {k}: golden {old}, now {v}")
    if bad:
        print("edgebench smoke: deterministic columns differ from "
              f"{os.path.basename(args.golden)}:")
        print("\n".join(bad))
        print(f"If the change is meant to move them, regenerate with\n"
              f"  {REGENERATE}\nand say why in CHANGES.md.")
        sys.exit(1)
    print(f"edgebench smoke: {len(workloads)} workloads match the golden")


if __name__ == "__main__":
    main()
