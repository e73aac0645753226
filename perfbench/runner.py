"""Runs one workload's jobs against nambu in this process and times them.

    python3 perfbench/runner.py --jobs JOBS.json --out RESULTS.json --seconds S --trace 0|1
    python3 perfbench/runner.py --jobs JOBS.json --setup-only

Set-up is the import of nambu plus the fixed warm-up jobs. Untraced, the
runner then repeats whole rounds of the job list as long as the next round
should end within S seconds (at least one round). Traced, it runs one
untraced round and then one traced round, so the per-layer counts are those
of exactly one round. Only nambu and the standard library are imported
here, so the generator's and the checker's libraries never reach this
process's memory or set-up time.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Program:
    """The nambu entry points a job can call."""

    def __init__(self):
        import nambu
        import nambu.cli
        import nambu.formal
        import nambu.polyalg
        self.package = nambu
        self.cli = nambu.cli
        self.formal = nambu.formal
        self.polyalg = nambu.polyalg

    def run_job(self, job):
        """(exit code, stdout text); code -1 marks an exception out of the program."""
        if job["kind"] == "remove_multiplier":
            return self._remove_multiplier(job)
        saved = sys.stdin, sys.stdout, sys.stderr
        sys.stdin, sys.stdout, sys.stderr = io.StringIO(job["stdin"]), io.StringIO(), io.StringIO()
        try:
            code = self.cli.run(job["argv"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            code = -1
            sys.stdout.write(traceback.format_exc())
        finally:
            out = sys.stdout.getvalue()
            sys.stdin, sys.stdout, sys.stderr = saved
        return code, out

    def _remove_multiplier(self, job):
        n = job["nvars"]
        try:
            f = self.polyalg.parse_poly(job["f"], n)
            res = self.formal.remove_multiplier(f, job["signs"], job["N"], nvars=n)
        except Exception:
            return -1, traceback.format_exc()
        return 0, json.dumps({
            "map": {"nvars": n, "components": [c.to_str() for c in res.change.comps],
                    "trunc": res.change.trunc},
            "scaling": None if res.scaling is None else str(res.scaling),
            "obstruction": res.obstruction})


def setup(warmup):
    """Import nambu and run the warm-up jobs; returns (program, seconds)."""
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    program = Program()
    for job in warmup:
        program.run_job(job)
    return program, time.perf_counter() - t0


def run_round(program, jobs, tracer=None):
    run_job = program.run_job
    if tracer is not None:
        run_job = tracer.wrap("bench.job", run_job)
    results, job_s = [], []
    cpu0, t0 = cpu_seconds(), time.perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.job = job["id"]
        start = time.perf_counter()
        results.append(run_job(job))
        job_s.append(time.perf_counter() - start)
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "cpu_s": cpu_seconds() - cpu0, "job_s": job_s}, results


def main():
    ap = argparse.ArgumentParser(description="time one workload's jobs against nambu")
    ap.add_argument("--jobs", required=True)
    ap.add_argument("--out")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    with open(args.jobs, encoding="utf-8") as fh:
        data = json.load(fh)

    program, setup_s = setup(data["warmup"])
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return
    jobs = data["jobs"]
    rounds, codes, outputs = [], [], None
    repeats_differ = 0
    layer_stats, overhead = None, None

    def record(timing, results):
        nonlocal outputs, repeats_differ
        rounds.append(timing)
        if outputs is None:
            outputs = results
        else:
            repeats_differ += sum(1 for a, b in zip(outputs, results) if tuple(a) != tuple(b))
        codes.append([code for code, _ in results])

    if args.trace:
        import tracing
        record(*run_round(program, jobs))
        tracer = tracing.Tracer()
        tracer.install(program.package)
        try:
            traced, results = run_round(program, jobs, tracer)
        finally:
            tracer.uninstall()
        record(traced, results)
        overhead = rounds[1]["wall_s"] - rounds[0]["wall_s"]
        layer_stats = tracer.stats
        tracer.write(os.path.splitext(args.out)[0] + "-spans",
                     {"untraced_wall_s": rounds[0]["wall_s"],
                      "traced_wall_s": rounds[1]["wall_s"], "overhead_s": overhead})
    else:
        start = time.perf_counter()
        while True:
            record(*run_round(program, jobs))
            # start another round only if it should end within S seconds
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(rounds) > args.seconds:
                break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"setup_s": setup_s, "rounds": rounds, "codes": codes,
                   "outputs": outputs, "repeats_differ": repeats_differ,
                   "peak_rss_mb": peak_rss_mb, "stats": layer_stats,
                   "trace_overhead_s": overhead,
                   "job_p50_s": statistics.median(t for r in rounds for t in r["job_s"])}, fh)


if __name__ == "__main__":
    main()
