#!/usr/bin/env python3
"""Edge-stack benchmark runner.

Builds edgebench/main.exe from source with dune, then runs it.

One run (the form a harness uses; the result is the last stdout line):

    python3 edgebench/run.py --workload W --seed S --seconds N --trace 0|1

Sets of runs, every workload in its own fresh process, one at a time:

    python3 edgebench/run.py [--workload W] [--seed S] [--seconds N]
                             [--trace 0|1] [--runs N] [--json FILE]
                             [--baseline FILE]

prints each metric's median and quartiles over the N runs. A wall-clock
metric is marked "unresolved" when (Q3-Q1)/median exceeds its bound in
BENCHMARK.json; the exit code is 1 when a deterministic metric differs
between runs of the same seed, or a run fails. --baseline compares the
medians against an earlier --json file: REGRESSED beyond a bound, and,
when both ran the same seed and seconds, CHANGED on any difference in a
deterministic metric.

    python3 edgebench/run.py --smoke [--exe PATH]

runs every workload shrunk 20x, traced and untraced, and checks that each
prints every metric of BENCHMARK.json with its unit and passes its
correctness checks.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
EXE = os.path.join(ROOT, "_build", "default", "edgebench", "main.exe")
RUN_TIMEOUT_S = 170

# Metrics read off the host's wall clock. Every other metric is a count
# or a virtual-time figure and must repeat exactly for the same seed.
WALL = {
    "setup_s",
    "sim_speed",
    "dsim.wall_ns_per_event",
    "dsim.tracing_overhead_pct",
    "cheri.check_ns",
    "cheri.borrow_ns",
    "nic.host_ns_per_pkt",
    "netstack.host_ns_per_pkt",
    "netstack.loop_once_ns",
    "netstack.ff_write_ns",
    "intravisor.trampoline_ns",
    "intravisor.umtx_ns",
    "intravisor.host_ns_per_crossing",
    "core.harness_share_pct",
}


def fail(msg):
    print("edgebench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    cmd = ["dune", "build", "--root", ROOT, "--cache=disabled",
           "--display=quiet", "./edgebench/main.exe"]
    try:
        code = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode
    except FileNotFoundError:
        fail("dune not found")
    if code != 0:
        fail("build failed")
    return EXE


def run_once(exe, workload, seed, seconds, trace, scale=None):
    """Run one workload in a fresh process; return (result, exit code)."""
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if scale is not None:
        cmd += ["--scale", str(scale)]
    p = subprocess.run(cmd, capture_output=True, text=True,
                       timeout=RUN_TIMEOUT_S)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if p.returncode != 0 or result is None:
        sys.stderr.write(p.stdout + p.stderr)
    return result, p.returncode


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(bench, workload, runs, trace):
    """Print one table row per metric; return (summary, ok)."""
    key = "per_layer" if trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in bench[key]}
    ok = True
    summary = {}
    print(f"{workload}  ({len(runs)} runs)")
    for m in bench[key]:
        name = m["name"]
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / abs(med) if med else 0.0
        if name in WALL:
            bound = bounds[name]
            status = ("unresolved" if bound is not None and spread > bound
                      else "")
        elif len(set(values)) == 1:
            status = "exact"
        else:
            status = "DIFFERS"
            ok = False
        print(f"  {name:34s} {med:14.6g} {m['unit']:7s} "
              f"q1 {q1:12.6g} q3 {q3:12.6g} spread {100 * spread:6.2f}% "
              f"{status}")
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "unit": m["unit"], "values": values}
    return summary, ok


def compare(bench, trace, current, baseline, same_inputs):
    """Print each median's change against an earlier --json file.

    REGRESSED: worse than the baseline by more than the metric's bound.
    When both sides ran the same seed and seconds, a deterministic metric
    must also repeat exactly, so any difference at all is CHANGED: the
    model or the measurement moved, and the change should say which."""
    key = "per_layer" if trace else "end_to_end"
    print("vs baseline (median change; + is better):")
    for w, metrics in current.items():
        old = baseline.get("workloads", {}).get(w)
        if not old:
            continue
        for m in bench[key]:
            name = m["name"]
            if name not in old:
                continue
            a, b = old[name]["median"], metrics[name]["median"]
            sign = 1 if m["better"] == "higher" else -1
            gain = sign * (b - a) / abs(a) + 0.0 if a else 0.0  # no "-0.00%"
            bound = m.get("bound")
            flags = []
            if same_inputs and name not in WALL and a != b:
                flags.append("CHANGED")
            if bound is not None and gain < -bound:
                flags.append("REGRESSED")
            print(f"  {w:12s} {name:34s} {100 * gain:+8.2f}% "
                  + " ".join(flags))


def smoke(bench, exe):
    ok = True
    for w in (w["name"] for w in bench["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, code = run_once(exe, w, 42, 1, trace, scale=0.05)
            problems = []
            if result is None:
                problems.append(f"no result line (exit {code})")
            else:
                if code != 0 or not result["correct"]:
                    problems.append("correctness checks failed")
                if result["failed"] != 0:
                    problems.append(f"{result['failed']} operations failed")
                want = {m["name"]: m["unit"] for m in bench[key]}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if want != got:
                    problems.append(f"metrics {sorted(got.items())} "
                                    f"!= {sorted(want.items())}")
            print(f"smoke {w} --trace {trace}: "
                  + ("ok" if not problems else "FAIL: " + "; ".join(problems)))
            ok = ok and not problems
    return ok


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--json")
    ap.add_argument("--baseline")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--exe", help="prebuilt main.exe (skips the build)")
    args = ap.parse_args()

    try:
        with open(BENCHMARK) as f:
            bench = json.load(f)
    except OSError as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    seconds = args.seconds or bench["run_seconds"]
    exe = os.path.abspath(args.exe) if args.exe else build()

    if args.smoke:
        sys.exit(0 if smoke(bench, exe) else 1)

    if args.workload and args.runs == 1 and not (args.json or args.baseline):
        # The single-run form: become the benchmark process, so stdout is
        # exactly its output and a harness signal reaches it directly.
        os.execv(exe, [exe, "--workload", args.workload,
                       "--seed", str(args.seed), "--seconds", str(seconds),
                       "--trace", str(args.trace)])

    workloads = ([args.workload] if args.workload
                 else [w["name"] for w in bench["workloads"]])
    ok = True
    summaries = {}
    for w in workloads:
        runs = []
        for i in range(args.runs):
            print(f"run {i + 1}/{args.runs} {w} seed {args.seed} "
                  f"trace {args.trace}", file=sys.stderr, flush=True)
            result, code = run_once(exe, w, args.seed, seconds, args.trace)
            if result is None or code != 0 or not result["correct"]:
                ok = False
            if result is not None:
                runs.append(result)
        if runs:
            summaries[w], same = summarize(bench, w, runs, args.trace)
            ok = ok and same
    if args.baseline:
        with open(args.baseline) as f:
            baseline = json.load(f)
        same_inputs = (baseline.get("seed"), baseline.get("seconds")) == (
            args.seed, seconds)
        compare(bench, args.trace, summaries, baseline, same_inputs)
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"seed": args.seed, "runs": args.runs,
                       "seconds": seconds, "trace": args.trace,
                       "nproc": os.cpu_count(), "workloads": summaries},
                      f, indent=1, sort_keys=True)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
