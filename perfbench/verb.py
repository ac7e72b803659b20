"""Run one CLI verb with the tracer installed.

    PERFBENCH_SPAWN=<epoch s> python perfbench/verb.py SPANS.json VERB ...

Behaves like `python -m modlattice VERB ...` (same exit code and output)
but wraps every layer first, and at exit writes the spans and the
start-up time (from the spawn time the parent passed to the dispatch of
the verb handler) to SPANS.json.
"""
import json
import os
import sys
import time

EPOCH0, PERF0 = time.time(), time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from tracer import Tracer  # noqa: E402


def main():
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer().install()
    tracer.job = " ".join(argv[:3])
    from modlattice import cli
    try:
        code = cli.parse_and_dispatch(argv)
    finally:
        handler = next((s for s in tracer.spans
                        if s[0].startswith("cli.cmd_")), None)
        startup = None
        if handler is not None:
            startup = (EPOCH0 + (handler[1] - PERF0)
                       - float(os.environ["PERFBENCH_SPAWN"]))
        with open(path, "w") as fh:
            json.dump({"startup_s": startup, "spans": tracer.spans}, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
