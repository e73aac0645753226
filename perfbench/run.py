"""Benchmark of the nambu CLI and library: one command per run.

    python3 perfbench/run.py --workload query|type1|type2 --seed N --seconds S --trace 0|1

Run from the repository root. Each run uses four kinds of process, one after
the other: the generator (gen.py) writes the seeded inputs, set-up-only
runners measure set-up time, the runner (runner.py) runs the jobs in one
process against src/nambu, and the checker (check.py) checks every output.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and the end-to-end metrics (--trace 0) or the per-layer
metrics (--trace 1). Run files go to perfbench/runs/. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("query", "type1", "type2")
# set-up is measured in this many fresh processes (the runner is one of them)
SETUP_SAMPLES = 7
TIME_LIMIT_S = 170

END_TO_END = {"wall_s": "s", "cpu_s": "s", "job_p50_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def _per_layer():
    calls_self = ["calls", "self_s"]
    spec = [
        ("polyalg.solve_linear", calls_self + ["cells", "nonzeros", "inconsistent"]),
        ("polyalg.RatMatrix.rref", calls_self),
        ("polyalg.Poly.mul", calls_self + ["term_pairs"]),
        ("polyalg.Poly.substitute", calls_self),
        ("polyalg.eigen_data", calls_self),
        ("formal.resonance_report", calls_self),
        ("exterior.wedge", calls_self),
        ("exterior.interior", calls_self),
        ("exterior.pullback_form", calls_self),
        ("exterior.pushforward_tensor", calls_self),
        ("exterior.FormalMap.compose", calls_self),
        ("exterior.FormalMap.inverse", calls_self),
        ("exterior.lie_derivative", calls_self),
        ("exterior.lie_bracket", calls_self),
        ("verify.is_conambu", calls_self),
        ("linclass.classify_linear", calls_self),
        ("linclass.classify_linear_tensor", calls_self),
        ("formal.graded_divide", calls_self + ["inconsistent"]),
        ("formal.formal_linearize_type1", ["self_s"]),
        ("formal.remove_multiplier", ["self_s"]),
        ("formal.prelinearize_type2", calls_self),
        ("formal.prelinearize_attempt", ["calls", "failed"]),
        ("formal.poincare_linearize", ["self_s"]),
        ("cli.parse_input", ["self_s"]),
        ("cli.emit", ["self_s", "bytes"]),
    ]
    units = {"self_s": "s", "bytes": "bytes"}
    return {f"{func}.{stat}": units.get(stat, "count") for func, stats in spec for stat in stats}


PER_LAYER = _per_layer()


class StepFailed(Exception):
    pass


def step(label, argv, deadline):
    """Run one child process to completion; its stdout text."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise StepFailed(f"{label}: no time left")
    try:
        proc = subprocess.run([sys.executable] + argv, cwd=ROOT, capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise StepFailed(f"{label}: did not finish in time")
    if proc.returncode != 0:
        raise StepFailed(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return proc.stdout


def tally(jobs, verdict, res):
    """(correct, attempted, failed, unexpected errors) of a checked run.

    A job on a fixed input that shows a known fault of the program (its
    expect record names the fault) counts as failed in every round, whether
    it errs out or its output is wrong. Any other job that errs out or whose
    output is wrong makes the run incorrect, as do outputs that change
    between rounds.
    """
    known_faults = {job["id"] for job in jobs if "known_fault" in job["expect"]}
    failed_ids = {err["id"] for err in verdict["failures"]}
    failed_ids |= {err["id"] for err in verdict["errors"] if err["id"] in known_faults}
    unexpected = [err for err in verdict["failures"] + verdict["errors"]
                  if err["id"] not in known_faults]
    rounds = len(res["codes"])
    correct = not unexpected and res["repeats_differ"] == 0
    return correct, rounds * len(jobs), rounds * len(failed_ids), unexpected


def main():
    ap = argparse.ArgumentParser(description="nambu benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "nambu", "cli.py")):
        print("perfbench: src/nambu is missing; there is no program to measure", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    run_dir = os.path.join(HERE, "runs", f"{args.workload}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    jobs = os.path.join(run_dir, "jobs.json")
    results = os.path.join(run_dir, "results.json")
    runner = os.path.join(HERE, "runner.py")
    try:
        step("generator", [os.path.join(HERE, "gen.py"), "--workload", args.workload,
                           "--seed", str(args.seed), "--out", jobs], deadline)
        setup_samples = [
            json.loads(step("set-up", [runner, "--jobs", jobs, "--setup-only"], deadline))["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)]
        step("runner", [runner, "--jobs", jobs, "--out", results, "--seconds", str(args.seconds),
                        "--trace", str(args.trace)], deadline)
        verdict = json.loads(step("checker", [os.path.join(HERE, "check.py"), "--jobs", jobs,
                                              "--results", results], deadline))
    except StepFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    with open(jobs, encoding="utf-8") as fh:
        job_list = json.load(fh)["jobs"]
    with open(results, encoding="utf-8") as fh:
        res = json.load(fh)
    with open(os.path.join(run_dir, "check.json"), "w", encoding="utf-8") as fh:
        json.dump(verdict, fh, indent=1)
    correct, attempted, failed, unexpected = tally(job_list, verdict, res)
    for err in unexpected[:20]:
        print(f"perfbench: job {err['id']}: {err['error']}", file=sys.stderr)
    if res["repeats_differ"]:
        print(f"perfbench: {res['repeats_differ']} outputs changed between rounds", file=sys.stderr)

    if args.trace:
        print(f"trace overhead: {res['trace_overhead_s']:.3f} s "
              f"(traced {res['rounds'][1]['wall_s']:.3f} s, untraced {res['rounds'][0]['wall_s']:.3f} s)")
        metrics = {}
        for name, unit in PER_LAYER.items():
            func, _, stat = name.rpartition(".")
            metrics[name] = {"value": res["stats"][func][stat], "unit": unit}
    else:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in res["rounds"]),
            "cpu_s": statistics.median(r["cpu_s"] for r in res["rounds"]),
            "job_p50_s": res["job_p50_s"],
            "peak_rss_mb": res["peak_rss_mb"],
            "setup_s": statistics.median(setup_samples + [res["setup_s"]]),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
