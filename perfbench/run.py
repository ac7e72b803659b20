"""The modlattice benchmark.

    python3 perfbench/run.py --workload certify|sweep|layers --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its src/.
Each pass of a workload runs in a fresh worker process (perfbench/worker.py),
so per-process caches and ru_maxrss start empty.  Passes repeat until
--seconds of passes have been measured; a pass always runs to its end.

--trace 0 prints the end-to-end metrics.  Set-up is measured in several
fresh processes (SETUP_PROBES of them, half before and half after the
passes, plus every pass) and reported as the median.  On certify it also
prints the per-verb latencies verb_p50_s and verb_tail_s; they are not in
BENCHMARK.json, which holds only metrics that every workload has.  --trace 1 runs one untraced and one traced pass and
prints the per-layer metrics of the traced pass plus trace.overhead_s, the
traced minus the untraced wall time.

Every worker gets PASS_TIMEOUT_S from its spawn, and the whole run
RUN_BUDGET_S: a worker that would outlive either is killed with its process
group, and no further pass starts when the longest pass so far, and the
set-up probes after it, would not fit into what is left of the run.

Human-readable lines come first: every metric with its unit, and
fail_ratio with its two counts.  The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"} whose metrics are the
end_to_end (or per_layer) list of BENCHMARK.json.  The traced run prints
more layer times than that list holds: a layer a workload never calls
reads 0 there, on every run.  The exit code is 0
when the benchmark ran, whatever the verdicts; it is 1, with no result,
when a worker failed or ran out of time, and 2 when there is no library
to run.
"""
import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

from jobs import WORKLOADS  # noqa: E402

SETUP_PROBES = 8
PASS_TIMEOUT_S = 150
RUN_BUDGET_S = 170
TAIL_BEYOND = 10
# units of the metrics that are printed but not listed in BENCHMARK.json
VERB_UNITS = {"verb_p50_s": "s", "verb_tail_s": "s"}


def unit_of(name):
    """The unit of a per-layer metric that BENCHMARK.json does not list,
    from the suffix tracer.summarize gives its names."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "count"


class WorkerError(Exception):
    pass


def run_worker(workload, seed, trace, out, run_end, setup_only=False):
    """Start a worker, time its set-up (spawn to "ready"), wait for it.

    The worker is killed, with its pool workers, PASS_TIMEOUT_S after its
    spawn or at run_end, whichever comes first.  Returns (set-up seconds,
    result dict or None for a set-up probe).
    """
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--trace", str(trace),
           "--out", out] + (["--setup-only"] if setup_only else [])
    timeout = min(PASS_TIMEOUT_S, run_end - time.time())
    if timeout <= 0:
        raise WorkerError("no time left for a %s worker" % workload)
    t0 = time.perf_counter()
    # its own process group, so that a kill also reaches its pool workers
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    killed = threading.Event()

    def kill():
        killed.set()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    watchdog = threading.Timer(timeout, kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    if killed.is_set():
        raise WorkerError("a %s worker ran past its %.0f s limit"
                          % (workload, timeout))
    if line.strip() != "ready" or code != 0:
        raise WorkerError("the %s worker failed (exit code %s)"
                          % (workload, code))
    if setup_only:
        return setup, None
    with open(out) as fh:
        return setup, json.load(fh)


def tail(values):
    """The highest order statistic with TAIL_BEYOND values above it:
    (value, its 1-based rank, sample count)."""
    ordered = sorted(values)
    rank = max(1, len(ordered) - TAIL_BEYOND)
    return ordered[rank - 1], rank, len(ordered)


def end_to_end(args, run_end, workdir):
    out = os.path.join(workdir, "pass.json")

    def probes(count):
        return [run_worker(args.workload, args.seed, 0, out, run_end,
                           True)[0] for _ in range(count)]
    # half of the probes before the passes and half after them, so that the
    # median is not taken from one short spell of the shared machine
    start = time.time()
    setups = probes(SETUP_PROBES // 2)
    probe_s = time.time() - start       # what the probes after take, too
    passes = []
    measured = longest = 0.0
    while not passes or measured < args.seconds:
        if passes and time.time() + longest + probe_s > run_end:
            break
        start = time.time()
        setup, res = run_worker(args.workload, args.seed, 0, out, run_end)
        longest = max(longest, time.time() - start)
        setups.append(setup)
        passes.append(res)
        measured += res["wall_s"]
    setups += probes(SETUP_PROBES - SETUP_PROBES // 2)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "peak_rss_mb": max(p["peak_rss_kb"] for p in passes) / 1024.0,
    }
    notes = {
        "setup_s": "median of %d fresh processes" % len(setups),
        "wall_s": "median of %d pass(es), closed loop, one client"
                  % len(passes),
    }
    if args.workload == "certify":
        latencies = [x for p in passes for x in p["latencies"]]
        value, rank, count = tail(latencies)
        metrics["verb_p50_s"] = statistics.median(latencies)
        metrics["verb_tail_s"] = value
        notes["verb_p50_s"] = "median of %d verbs" % count
        notes["verb_tail_s"] = ("p%.1f: rank %d of %d, %d verbs beyond it"
                                % (100.0 * rank / count, rank, count,
                                   count - rank))
    return metrics, notes, passes


def per_layer(args, run_end, workdir):
    plain = run_worker(args.workload, args.seed, 0,
                       os.path.join(workdir, "plain.json"), run_end)[1]
    traced = run_worker(args.workload, args.seed, 1,
                        os.path.join(workdir, "traced.json"), run_end)[1]
    metrics = dict(traced["layers"])
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    notes = {"trace.overhead_s": "traced %.3f s - untraced %.3f s"
             % (traced["wall_s"], plain["wall_s"])}
    return metrics, notes, [plain, traced]


def main():
    par = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    par.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    par.add_argument("--seed", type=int, required=True)
    par.add_argument("--seconds", type=float, required=True)
    par.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = par.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "modlattice",
                                       "__init__.py")):
        print("error: no library at %s/src/modlattice; run from the root of "
              "a checkout" % ROOT, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    reported = spec["per_layer" if args.trace else "end_to_end"]
    units = {**VERB_UNITS, **{m["name"]: m["unit"] for m in reported}}
    run_end = time.time() + RUN_BUDGET_S
    # a traced run keeps its spans; an untraced one leaves nothing behind
    workdir = os.path.join(OUT_DIR, "trace-%s-%d" % (args.workload, args.seed)
                           if args.trace else str(os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, notes, passes = measure(args, run_end, workdir)
    except WorkerError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        if not args.trace:
            shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print("workload %s, seed %d, trace %d" % (args.workload, args.seed,
                                              args.trace))
    for name, value in metrics.items():
        note = "  (%s)" % notes[name] if name in notes else ""
        print("%-34s %14.6f %s%s" % (name, value,
                                     units.get(name) or unit_of(name), note))
    print("%-34s %14.6f ratio  (%d failed of %d attempted)"
          % ("fail_ratio", failed / attempted, failed, attempted))
    if args.trace:
        print("spans written to %s" % os.path.relpath(workdir, ROOT))
    for p in passes:
        for line in p["failures"]:
            print("FAILED %s" % line)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in reported}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
