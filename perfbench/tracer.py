"""Boundary spans around the layers of ``turan_reg``, installed from outside.

Modules import by name (``from .graphs import odd_girth``), so a function
is wrapped in the namespace of every module that looks it up, not only in
the module that defines it.  Each wrapper records calls, total time and
self time (its duration minus the time of the spans it caused).  Spans
are folded into per-name totals in memory; nothing is written until the
benchmark prints its result.

A name that a later version of the program no longer has is recorded as
missing, and every metric built on it is left out of the report.
"""

from __future__ import annotations

import importlib
import resource
import time

# (module that looks the name up, attribute, span name)
BOUNDARIES = (
    ("search", "exr_exact", "search.call"),
    ("search", "max_copies_free", "search.call"),
    ("search", "enumerate_graphs", "enumeration.enumerate"),
    ("search", "enumerate_regular", "enumeration.enumerate"),
    ("enumeration", "_refine", "canon.refine"),
    ("enumeration", "_search", "canon.search"),
    ("search", "canonical_form", "canon.witness"),
    ("constructions", "build", "constructions.build"),
    ("parallel", "parallel_scan", "parallel.scan"),
)
GRAPH_FUNCTIONS = (
    "count_cycles",
    "contains_subgraph",
    "complement",
    "induced_subgraph",
    "odd_girth",
    "is_triangle_free",
    "triangle_count",
)
# Graph functions are wrapped wherever these modules bind them.  graphs
# itself is included: enumeration imports ``complement`` from it lazily,
# and the twin reduction inside odd_girth/is_triangle_free calls
# induced_subgraph through it.
GRAPH_CALLERS = ("search", "enumeration", "constructions", "graphs")
PRUNE_REASONS = ("degree", "edges", "deficiency", "forbidden", "canonical")


def _children_cpu():
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


class Tracer:
    def __init__(self, clock):
        self.clock = clock  # times the spans: SpeedSampler.clock leaves samples out
        self.spans = {}  # span name -> [calls, total_s, self_s]
        self.installed = set()
        self.missing = []
        self.parallel_main_cpu = 0.0
        self.parallel_worker_cpu = 0.0
        self._stack = [0.0]  # child time accumulated by each open span

    def span(self, name, fn):
        rec = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = self.clock

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child

        return traced

    def _enumeration(self, name, fn):
        # the search visitor runs inside the enumeration span; give it a
        # span of its own so its time is charged to search
        inner = self.span(name, fn)

        def traced(*args, **kwargs):
            if kwargs.get("visitor") is not None:
                kwargs["visitor"] = self.span("search.visitor", kwargs["visitor"])
            return inner(*args, **kwargs)

        return traced

    def _parallel(self, name, fn):
        inner = self.span(name, fn)

        def traced(*args, **kwargs):
            cpu0, child0 = time.process_time(), _children_cpu()
            try:
                return inner(*args, **kwargs)
            finally:
                self.parallel_main_cpu += time.process_time() - cpu0
                self.parallel_worker_cpu += _children_cpu() - child0

        return traced

    def _wrap(self, module, attr, name):
        fn = getattr(module, attr)
        if name.startswith("enumeration."):
            wrapped = self._enumeration(name, fn)
        elif name.startswith("parallel."):
            wrapped = self._parallel(name, fn)
        else:
            wrapped = self.span(name, fn)
        setattr(module, attr, wrapped)
        self.installed.add(name)

    def install(self):
        modules = {}
        for module_name in {m for m, _, _ in BOUNDARIES} | set(GRAPH_CALLERS):
            try:
                modules[module_name] = importlib.import_module(f"turan_reg.{module_name}")
            except ImportError:
                modules[module_name] = None
        for module_name, attr, name in BOUNDARIES:
            if callable(getattr(modules[module_name], attr, None)):
                self._wrap(modules[module_name], attr, name)
            else:
                self.missing.append(f"{module_name}.{attr}")
        for attr in GRAPH_FUNCTIONS:
            if not callable(getattr(modules["graphs"], attr, None)):
                self.missing.append(f"graphs.{attr}")
                continue
            for caller in GRAPH_CALLERS:
                if callable(getattr(modules[caller], attr, None)):
                    self._wrap(modules[caller], attr, f"graphs.{attr}")

    def layer_metrics(self, gen_stats, build_failures, jobs, factor, worker_sample_cpu):
        """Per-layer metrics of one traced call sequence.

        ``gen_stats`` is the search's public GenStats (None for builders),
        ``build_failures`` the (property, infeasible) failure counts of a
        builder run, ``jobs`` the worker count of the search.  Times are
        multiplied by the speed ``factor``; ``worker_sample_cpu`` is the
        CPU the workers spent on speed samples, left out of their CPU.
        """
        out = {}

        def put(name, value, unit):
            out[name] = {"value": value * factor if unit == "s" else value, "unit": unit}

        def record(span):
            if span not in self.installed:
                return None
            return self.spans.get(span, (0, 0.0, 0.0))

        if record("search.call"):
            visitor_self = self.spans.get("search.visitor", (0, 0.0, 0.0))[2]
            put("search.self_s", record("search.call")[2] + visitor_self, "s")
        if record("enumeration.enumerate"):
            calls, _, self_s = record("enumeration.enumerate")
            put("search.enumerate_calls", calls, "count")
            put("enumeration.self_s", self_s, "s")

        nodes = gen_stats.nodes if gen_stats else 0
        pruned = dict(gen_stats.pruned) if gen_stats else {}
        put("enumeration.nodes", nodes, "count")
        put("enumeration.classes", gen_stats.classes if gen_stats else 0, "count")
        for reason in PRUNE_REASONS:
            put(f"enumeration.pruned.{reason}", pruned.get(reason, 0), "count")
        tried = nodes + sum(pruned.values())
        put("enumeration.kept_ratio", nodes / tried if tried else 0.0, "ratio")
        tested = nodes + pruned.get("canonical", 0)
        put("enumeration.canonical_accept_ratio", nodes / tested if tested else 0.0, "ratio")

        for span in ("canon.refine", "canon.search", "canon.witness") + tuple(
            f"graphs.{fn}" for fn in GRAPH_FUNCTIONS
        ):
            rec = record(span)
            if rec:
                put(f"{span}.calls", rec[0], "count")
                put(f"{span}.self_s", rec[2], "s")

        if record("constructions.build"):
            calls, _, self_s = record("constructions.build")
            put("constructions.self_s", self_s, "s")
            put("constructions.builds", calls, "count")
        prop, infeasible = build_failures or (0, 0)
        put("constructions.failed.property", prop, "count")
        put("constructions.failed.infeasible", infeasible, "count")

        if record("parallel.scan"):
            scan_s = record("parallel.scan")[1]
            put("parallel.scan_s", scan_s, "s")
            put("parallel.main_cpu_s", self.parallel_main_cpu, "s")
            worker_cpu = self.parallel_worker_cpu - worker_sample_cpu
            put("parallel.worker_cpu_s", worker_cpu, "s")
            busy = worker_cpu / (jobs * scan_s) if scan_s else 0.0
            put("parallel.worker_busy_ratio", busy, "ratio")
        return out
