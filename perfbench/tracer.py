"""Spans around every call into the public functions of each layer.

Tracer.install() rebinds, from outside the package, every public function
that a layer module defines: in the defining module, in every other layer
module that imported the name, in the package namespace and in
cli.HANDLERS.  It also wraps QSeries.__mul__.  Each call appends one span
[name, start, end, parent, job, extra] to an in-memory list; dump() writes
the list out at exit.  Without install() nothing is wrapped.

summarize() turns spans into the per-layer metrics: self time is a span's
duration minus the durations of its direct children.
"""
import functools
import importlib
import json
import resource
import statistics
import time
import types

LAYERS = ("cli", "lattice", "linalg", "enumeration", "qseries", "modular",
          "isometry", "designs", "shadow")


def cpu_seconds():
    """User+sys CPU of this process and of all its reaped children."""
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def _arg(args, kwargs, pos, name, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _enum_before(args, kwargs):
    threads = _arg(args, kwargs, 6, "threads", 1)
    return {"threads": threads,
            "cpu0": cpu_seconds() if threads > 1 else None}


def _enum_after(args, kwargs, out, extra):
    lat, bound = args[0], _arg(args, kwargs, 1, "bound")
    shift = _arg(args, kwargs, 2, "shift")
    collect = bool(_arg(args, kwargs, 3, "collect", False))
    extra["key"] = repr((lat.gram, str(bound), shift, collect))
    extra["vectors"] = sum(out.counts.values())
    extra["collect"] = collect
    if collect:
        extra["collected"] = sum(len(v) for v in out.layers.values())
    cpu0 = extra.pop("cpu0")
    if cpu0 is not None:
        extra["cpu"] = cpu_seconds() - cpu0


def _no_extra(args, kwargs):
    return {}


def _detail_after(field):
    def after(args, kwargs, out, extra):
        extra[field] = out.details.get(field, 0)
    return after


def _isometry_after(args, kwargs, out, extra):
    extra["nodes"] = out[2]


# per span name: (hook before the call, hook after it); both fill span.extra
HOOKS = {
    "enumeration.enumerate_vectors": (_enum_before, _enum_after),
    "isometry.find_isometry": (_no_extra, _isometry_after),
    "designs.moment_tensor_test": (_no_extra, _detail_after("entries")),
    "designs.power_sum_design_test": (_no_extra, _detail_after("checked")),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None
        self.paused = False

    def wrap(self, name, fn):
        before, after = HOOKS.get(name, (None, None))
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            extra = before(args, kwargs) if before else None
            span = [name, clock(), None, stack[-1] if stack else -1,
                    self.job, extra]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after:
                after(args, kwargs, out, extra)
            return out

        return traced

    def install(self, package="modlattice"):
        mods = [importlib.import_module("%s.%s" % (package, name))
                for name in LAYERS]
        wrapped = {}
        for name, mod in zip(LAYERS, mods):
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_")
                        and isinstance(obj, types.FunctionType)
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self.wrap("%s.%s" % (name, attr), obj)
        for mod in mods + [importlib.import_module(package)]:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
        handlers = mods[LAYERS.index("cli")].HANDLERS
        for verb, fn in handlers.items():
            handlers[verb] = wrapped.get(fn, fn)
        qseries = mods[LAYERS.index("qseries")].QSeries
        qseries.__mul__ = self.wrap("qseries.QSeries.__mul__", qseries.__mul__)
        return self

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _sum(spans, name):
    return sum(s[2] - s[1] for s in spans if s[0] == name)


def summarize(groups, startups=()):
    """Per-layer metrics from span lists, one list per traced process.

    startups holds, for each CLI verb process, the seconds from its spawn
    to the dispatch of the verb handler.
    """
    startups = [s for s in startups if s is not None]
    self_s = {layer: 0.0 for layer in LAYERS}
    enum = [s for spans in groups for s in spans
            if s[0] == "enumeration.enumerate_vectors"]
    flat = [s for spans in groups for s in spans]
    repeats = 0
    for spans in groups:
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        for s, c in zip(spans, child):
            self_s[s[0].split(".")[0]] += (s[2] - s[1]) - c
        seen = set()
        for s in spans:
            if s[0] == "enumeration.enumerate_vectors" and "key" in s[5]:
                repeats += s[5]["key"] in seen
                seen.add(s[5]["key"])
    enum_s = sum(s[2] - s[1] for s in enum)
    vectors = sum(s[5].get("vectors", 0) for s in enum)
    parallel = [s for s in enum if s[5]["threads"] > 1]
    busy = sum(s[5]["threads"] * (s[2] - s[1]) for s in parallel)
    iso = [s for s in flat if s[0] == "isometry.find_isometry"]
    nodes = sum(s[5].get("nodes", 0) for s in iso)
    iso_s = _sum(flat, "isometry.find_isometry")
    tensor = [s for s in flat if s[0] == "designs.moment_tensor_test"]
    power = [s for s in flat if s[0] == "designs.power_sum_design_test"]
    count = lambda name: sum(1 for s in flat if s[0] == name)
    return {
        "enumeration.sweeps": len(enum),
        "enumeration.repeat_sweeps": repeats,
        "enumeration.self_s": self_s["enumeration"],
        "enumeration.vectors": vectors,
        "enumeration.vectors_per_s": vectors / enum_s if enum_s else 0.0,
        "enumeration.parallel_sweeps": len(parallel),
        "enumeration.core_util": (
            sum(s[5].get("cpu", 0) for s in parallel) / busy
            if busy else 0.0),
        "enumeration.collected": sum(s[5].get("collected", 0) for s in enum),
        "enumeration.collect_s": sum(s[2] - s[1] for s in enum
                                     if s[5].get("collect")),
        "cli.startup_s": statistics.median(startups) if startups else 0.0,
        "cli.self_s": self_s["cli"],
        "lattice.self_s": self_s["lattice"],
        "lattice.load_catalog_calls": count("lattice.load_catalog"),
        "lattice.load_catalog_s": _sum(flat, "lattice.load_catalog"),
        "lattice.partial_dual_s": _sum(flat, "lattice.partial_dual"),
        "lattice.dual_s": _sum(flat, "lattice.dual"),
        "linalg.self_s": self_s["linalg"],
        "linalg.lll_calls": count("linalg.gram_lll"),
        "linalg.lll_s": _sum(flat, "linalg.gram_lll"),
        "linalg.inverse_s": _sum(flat, "linalg.inverse"),
        "linalg.rank_s": _sum(flat, "linalg.rank"),
        "linalg.solve_s": _sum(flat, "linalg.solve"),
        "designs.self_s": self_s["designs"],
        "designs.tensor_calls": len(tensor),
        "designs.tensor_entries": sum(s[5].get("entries", 0) for s in tensor),
        "designs.tensor_s": sum(s[2] - s[1] for s in tensor),
        "designs.power_sum_checked": sum(s[5].get("checked", 0)
                                         for s in power),
        "designs.power_sum_s": sum(s[2] - s[1] for s in power),
        "isometry.calls": len(iso),
        "isometry.nodes": nodes,
        "isometry.nodes_per_s": nodes / iso_s if iso_s else 0.0,
        "isometry.self_s": self_s["isometry"],
        "qseries.self_s": self_s["qseries"],
        "qseries.mul_calls": count("qseries.QSeries.__mul__"),
        "qseries.mul_s": _sum(flat, "qseries.QSeries.__mul__"),
        "qseries.delta_s": _sum(flat, "qseries.delta_level"),
        "modular.self_s": self_s["modular"],
        "modular.extremal_form_calls": count("modular.extremal_form"),
        "modular.extremal_form_s": _sum(flat, "modular.extremal_form"),
        "shadow.self_s": self_s["shadow"],
    }
