"""One pass of one workload, in a fresh process.

    python perfbench/worker.py --workload W --seed N --trace 0|1 \
        --out RESULT.json [--setup-only] [--limit N]

Run from the root of a checkout.  The worker imports modlattice from the
checkout's src/, loads the catalogue and builds the seeded jobs (the
set-up), prints "ready", then runs the jobs in a closed loop (each starts
when the previous one returns), checks every output against its oracle
and writes the result as JSON.  With --trace 1 the tracer is installed
right after the import, so the set-up is traced too.
"""
import argparse
import json
import os
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import jobs as workloads  # noqa: E402
import tracer as tracing  # noqa: E402

VERB_TIMEOUT_S = 120


def import_library():
    sys.path.insert(0, SRC)
    import modlattice
    if not os.path.abspath(modlattice.__file__).startswith(SRC + os.sep):
        raise SystemExit("modlattice was imported from %s, not from %s"
                         % (modlattice.__file__, SRC))
    return modlattice


def peak_rss_kb():
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


class Context:
    """What the function that lists a workload's jobs gets: the library,
    the catalogue, the seed, and (for CLI jobs) a way to run one verb in a
    fresh process."""

    def __init__(self, ml, catalog, seed, trace_dir):
        self.ml, self.catalog, self.seed = ml, catalog, seed
        self.trace_dir = trace_dir
        self.verb_traces = []
        self.env = dict(os.environ, PYTHONPATH=SRC)

    def run_verb(self, argv):
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "modlattice"] + argv
        else:
            path = os.path.join(self.trace_dir,
                                "verb-%03d.json" % len(self.verb_traces))
            self.verb_traces.append(path)
            cmd = [sys.executable, os.path.join(HERE, "verb.py"), path] + argv
            self.env["PERFBENCH_SPAWN"] = repr(time.time())
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                              text=True, timeout=VERB_TIMEOUT_S)
        return proc.returncode, proc.stdout


def main():
    par = argparse.ArgumentParser()
    par.add_argument("--workload", required=True,
                     choices=sorted(workloads.WORKLOADS))
    par.add_argument("--seed", type=int, required=True)
    par.add_argument("--trace", type=int, choices=(0, 1), default=0)
    par.add_argument("--out", required=True)
    par.add_argument("--setup-only", action="store_true")
    par.add_argument("--limit", type=int, default=None,
                     help="run only the first LIMIT jobs (smoke scale)")
    args = par.parse_args()
    trace_dir = None
    if args.trace:
        trace_dir = os.path.dirname(os.path.abspath(args.out))

    # -- set-up ------------------------------------------------------------
    ml = import_library()
    tracer = None
    if args.trace and args.workload != "certify":
        tracer = tracing.Tracer().install()
        tracer.job = "setup"
    ctx = Context(ml, ml.load_catalog(), args.seed, trace_dir)
    jobs = workloads.WORKLOADS[args.workload](ctx)[:args.limit]
    print("ready", flush=True)
    if args.setup_only:
        return

    # -- the timed closed loop ----------------------------------------------
    outputs, latencies = [], []
    cpu0 = tracing.cpu_seconds()
    t0 = time.perf_counter()
    for i, job in enumerate(jobs):
        if tracer:
            tracer.job = i
        start = time.perf_counter()
        try:
            outputs.append((True, job.run()))
        except Exception as exc:    # a job that raises is a failed job
            outputs.append((False, "%s: %s" % (type(exc).__name__, exc)))
        latencies.append(time.perf_counter() - start)
    wall = time.perf_counter() - t0
    cpu = tracing.cpu_seconds() - cpu0
    peak_kb = peak_rss_kb()

    # -- oracles, outside the timed region and the trace ---------------------
    if tracer:
        tracer.paused = True
    failures = []
    for job, (ok, out) in zip(jobs, outputs):
        try:
            bad = job.check(out) if ok else out
        except Exception as exc:    # an output the oracle cannot read
            bad = "unreadable output: %s: %s" % (type(exc).__name__, exc)
        if bad:
            failures.append("%s: %s" % (job.name, bad))

    result = {"wall_s": wall, "cpu_s": cpu, "peak_rss_kb": peak_kb,
              "latencies": latencies, "attempted": len(jobs),
              "failed": len(failures), "failures": failures}
    if args.trace:
        if tracer:
            tracer.dump(os.path.join(trace_dir, "spans.jsonl"))
            result["layers"] = tracing.summarize([tracer.spans])
        else:
            traces = []
            for path in ctx.verb_traces:
                if os.path.exists(path):    # absent if the verb crashed
                    with open(path) as fh:
                        traces.append(json.load(fh))
            result["layers"] = tracing.summarize(
                [t["spans"] for t in traces], [t["startup_s"] for t in traces])
    with open(args.out, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
