"""Smoke-scale self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Run from the root of a checkout.  It checks that
  1. the oracles reject a corrupted count (an in-process sweep, a
     harmonic theta that reads zero or is scaled, and a CLI verb),
  2. the tracer reaches names imported across modules
     (modular.theta_series, designs.min_layer, isometry.enumerate_vectors,
     the package namespace and cli.HANDLERS),
  3. the exact counters repeat exactly between two traced runs of the
     same seed, on the first jobs of every workload.
Exits 0 when all hold, 1 otherwise.
"""
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import jobs as workloads  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402

EXACT = ("enumeration.sweeps", "enumeration.repeat_sweeps",
         "enumeration.vectors", "isometry.nodes", "designs.tensor_entries",
         "qseries.mul_calls", "lattice.load_catalog_calls")
SMOKE_JOBS = 6


class SelfCheckError(Exception):
    pass


def require(ok, message):
    if not ok:
        raise SelfCheckError(message)


def check_oracles(ml, catalog):
    ctx = worker.Context(ml, catalog, 1, None)
    job = [j for j in workloads.sweep(ctx)
           if j.name.startswith("skewed D4")][0]
    qs = job.run()
    require(job.check(qs) is None, "the oracle rejects a correct sweep")
    coeffs = dict(qs.coeffs)
    coeffs[24] += 1                         # one more vector of norm 2
    require(job.check(ml.QSeries(coeffs, qs.precision)),
            "the oracle accepts a corrupted theta count")

    job = [j for j in workloads.layers(ctx)
           if j.name.startswith("harmonic theta E8 q^10")][0]
    qs = job.run()
    require(job.check(qs) is None, "the oracle rejects a correct harmonic "
            "theta")
    require(job.check(ml.QSeries({}, qs.precision)),
            "the oracle accepts a harmonic theta that reads zero")
    require(job.check(ml.QSeries({e: 2 * c for e, c in qs.coeffs.items()},
                                 qs.precision)),
            "the oracle accepts a harmonic theta scaled by 2")

    verb = [j for j in workloads.certify(ctx)
            if j.name == "min --lattice K12"][0]
    code, out = verb.run()
    require(verb.check((code, out)) is None,
            "the oracle rejects a correct verb")
    payload = json.loads(out)
    payload["kissing"] += 2
    require(verb.check((code, json.dumps(payload))),
            "the oracle accepts a corrupted kissing number")
    print("ok  oracles reject corrupted counts")


def check_tracer_reach(ml, catalog):
    tracer = tracing.Tracer().install()
    from modlattice import cli, designs, isometry, modular
    for mod, name in ((modular, "theta_series"), (designs, "min_layer"),
                      (isometry, "enumerate_vectors"), (ml, "theta_series")):
        require(hasattr(getattr(mod, name), "__wrapped__"),
                "%s.%s is not wrapped" % (mod.__name__, name))
    modular.extremal_form(1, 8, 4)
    designs.perfection_rank(catalog.lattice("D4"))
    isometry.find_isometry(catalog.lattice("A2"), ml.Lattice([[2, 3], [3, 6]]))
    with contextlib.redirect_stdout(io.StringIO()):
        cli.parse_and_dispatch(["min", "--lattice", "A2", "--json"])
    names = {(tracer.spans[s[3]][0] if s[3] >= 0 else None, s[0])
             for s in tracer.spans}
    for pair in (("modular.theta_base", "enumeration.theta_series"),
                 ("designs.perfection_rank", "enumeration.min_layer"),
                 ("isometry.find_isometry", "enumeration.enumerate_vectors"),
                 ("cli.parse_and_dispatch", "cli.cmd_min"),
                 ("modular.modform_basis", "qseries.QSeries.__mul__")):
        require(pair in names,
                "no span %s called from %s" % (pair[1], pair[0]))
    print("ok  tracer reaches cross-module names (%d spans)"
          % len(tracer.spans))


def traced_counters(workload, seed, out):
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                    "--workload", workload, "--seed", str(seed),
                    "--trace", "1", "--limit", str(SMOKE_JOBS), "--out", out],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    with open(out) as fh:
        res = json.load(fh)
    require(res["failed"] == 0, "; ".join(res["failures"]))
    return {k: res["layers"][k] for k in EXACT}


def check_counters_repeat():
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench_") as tmp:
        for workload in workloads.WORKLOADS:
            out = os.path.join(tmp, "result.json")
            first = traced_counters(workload, 5, out)
            second = traced_counters(workload, 5, out)
            require(first == second,
                    "%s: %s != %s" % (workload, first, second))
            print("ok  %-8s exact counters repeat: %s" % (workload, first))


def main():
    ml = worker.import_library()
    catalog = ml.load_catalog()
    try:
        check_oracles(ml, catalog)
        check_counters_repeat()
        check_tracer_reach(ml, catalog)     # last: it wraps this process
    except SelfCheckError as exc:
        print("FAILED %s" % exc)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
