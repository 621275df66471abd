"""Command-line surface: constructions, enumeration, searches, suites.

Verification suites are data: ``suites.json`` lists checks as
(operation, arguments, expected value, provenance tag) and the runner
executes them through a fixed dispatch table, printing one line per
check and exiting nonzero when any check fails.  Provenance tags mark
each expected value as a quoted source value (PAPER), an immediate
consequence (TRIVIAL), or a value pinned by an independent computation
in this package (DERIVED).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import sys
import time
from importlib import resources
from itertools import combinations
from math import comb

from . import constructions
from .enumeration import CapError, EnumerationError, GenFilter, check_run, enumerate_graphs
from .formulas import (
    FamilySpec,
    FormulaError,
    c5_star_forest_count,
    ex_c5_closed_form,
    exr_closed_form,
    gls_critical_range,
    goodman_defect,
    triangle_window,
)
from .graphs import (
    GraphError,
    complement,
    complete_bipartite,
    count_cliques,
    count_cycles,
    cycle_graph,
    extend_graph,
    format_edge_list,
    from_edges,
    graph6_decode,
    graph6_encode,
    star_graph,
    triangle_count,
)
from .search import (
    DEFAULT_WITNESS_CAP,
    HSpec,
    SearchError,
    _canonical_g6,
    critical_maxima,
    exr_exact,
    max_copies_free,
    max_k_total,
    max_kt,
    min_triangles_regular,
    probe_cycle_question,
    probe_gls_critical,
    probe_odd_girth_question,
    probe_triangle_floor,
)

DEFAULT_SEED = 20210831


class SuiteError(ValueError):
    """An unknown suite id."""


class OutError(ValueError):
    """An --out or --report path that cannot be opened for writing."""


# ---------------------------------------------------------------------------
# table reproduction


def emit_table(r, n_lo, n_hi, fmt="csv", jobs=1):
    """Critical-regime clique-maximum table; cells outside the window stay blank."""
    if n_lo > n_hi:
        raise SearchError(f"empty order range {n_lo}..{n_hi}")
    ranges = {n: gls_critical_range(n, r) for n in range(n_lo, n_hi + 1)}
    m_lo = min(low + 1 for low, _ in ranges.values())
    m_hi = max(high for _, high in ranges.values())
    cells = {
        (n, m): res.objective
        for n in ranges
        for m, res in critical_maxima(n, r, jobs=jobs).items()
        if res.feasible
    }
    published = r == 4 and n_lo >= 6 and n_hi <= 8
    if fmt == "json":
        return json.dumps(
            {
                "r": r,
                "columns": list(range(m_lo, m_hi + 1)),
                "cells": {f"{n},{m}": v for (n, m), v in sorted(cells.items())},
                "provenance": "PAPER" if published else "DERIVED",
            },
            indent=2,
        )
    lines = ["n\\m," + ",".join(str(m) for m in range(m_lo, m_hi + 1))]
    for n in range(n_lo, n_hi + 1):
        row = [str(n)]
        for m in range(m_lo, m_hi + 1):
            row.append(str(cells[(n, m)]) if (n, m) in cells else "")
        lines.append(",".join(row))
    if not published:
        lines.append("# provenance: DERIVED (outside the published r=4 window)")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# suite check operations


def _field(res, args):
    """The SearchResult field a search check reads: args["field"], else the objective."""
    return getattr(res, args.get("field", "objective"))


def _op_exr(args, ctx):
    return _field(exr_exact(args["n"], HSpec.parse(args["forbid"]), jobs=ctx["jobs"]), args)


def _op_exr_parity(args, ctx):
    """How many odd orders 5 <= n <= n_max have an odd closed-form value."""
    triangle = FamilySpec("triangle")
    return sum(exr_closed_form(n, triangle).value % 2 for n in range(5, args["n_max"] + 1, 2))


def _op_min_triangles(args, ctx):
    return _field(min_triangles_regular(args["n"], args["k"], jobs=ctx["jobs"]), args)


def _op_supersat_unique(args, ctx):
    res = min_triangles_regular(9, 4, jobs=ctx["jobs"])
    target = _canonical_g6(constructions.apex_construction(9, 4).graph)
    return res.objective == 2 and res.classes == 1 and res.witnesses[0] == target


def _op_apex_window(args, ctx):
    n = args["n"]
    g = constructions.apex_construction(n, triangle_window(n).start).graph
    t = triangle_count(g)
    return n * n / 75 <= t <= n * n / 40


def _op_split_apex_equality(args, ctx):
    # the builder compares the triangle count with conjectured_triangle_min
    # and refuses a mismatch, so its certificate holds the answer
    cert = constructions.apex_construction(args["n"], args["k"]).certificate
    return next(c["ok"] for c in cert["checks"] if c["property"] == "triangles")


def _op_max_kt(args, ctx):
    return _field(max_kt(args["n"], args["m"], args["r"], args["t"], jobs=ctx["jobs"]), args)


def _op_max_k_total(args, ctx):
    return _field(max_k_total(args["n"], args["m"], args["r"], jobs=ctx["jobs"]), args)


def _op_k_total_profile(args, ctx):
    res = max_k_total(args["n"], args["m"], args["r"], jobs=ctx["jobs"])
    g = graph6_decode(res.witnesses[0])
    return [count_cliques(g, t) for t in (3, 4, 5)]


def _op_complement_triangles(args, ctx):
    res = max_kt(args["n"], args["m"], args["r"], 3, jobs=ctx["jobs"])
    return sorted(triangle_count(complement(graph6_decode(w))) for w in res.witnesses)


def _op_table_cells(args, ctx):
    maxima = critical_maxima(args["n"], args["r"], jobs=ctx["jobs"])
    return {str(m): res.objective for m, res in maxima.items()}


def _op_goodman_exhaustive(args, ctx):
    worst = 0
    for n in range(1, args["n_max"] + 1):
        def visit(_, rows, s):
            nonlocal worst
            worst = max(worst, abs(goodman_defect(extend_graph(rows, s))))
        enumerate_graphs(GenFilter(n=n), leaf=visit, jobs=ctx["jobs"])
    return worst


def _op_goodman_random(args, ctx):
    rng = random.Random(ctx["seed"])
    worst = 0
    for _ in range(args["samples"]):
        n = rng.randint(1, args["n_max"])
        p = rng.random()
        edges = [e for e in combinations(range(n), 2) if rng.random() < p]
        worst = max(worst, abs(goodman_defect(from_edges(n, edges))))
    return worst


def _op_c5_forest_oracle(args, ctx):
    return sum(
        c5_star_forest_count(n, parts)
        != count_cycles(constructions.star_forest_complement(n, parts).graph, 5)
        for n in range(2, args["n_max"] + 1)
        for parts in constructions.star_partitions(n)
    )


def _op_ex_c5_closed(args, ctx):
    return ex_c5_closed_form(args["r"])


def _op_ex_c5_vs_partitions(args, ctx):
    return sum(
        max(c5_star_forest_count(r + 2, parts) for parts in constructions.star_partitions(r + 2))
        != ex_c5_closed_form(r)
        for r in range(args["r_lo"], args["r_hi"] + 1)
    )


def _op_c5_search(args, ctx):
    # the expected witness: the complement of stars with leaf counts args["parts"]
    target = constructions.star_forest_complement(args["n"], args["parts"]).graph
    res = max_copies_free(args["n"], cycle_graph(5), args["r"], jobs=ctx["jobs"])
    witness_ok = res.witnesses[:1] == (_canonical_g6(target),)
    return {"value": res.objective, "classes": res.classes, "witness_ok": witness_ok}


def _op_star_count_prop(args, ctx):
    n, r, s = args["n"], args["r"], args["s"]
    res = max_copies_free(n, star_graph(s), r, jobs=ctx["jobs"])
    value_regular = n * comb(r, s)
    witnesses_regular = all(
        graph6_decode(w).is_regular(r) for w in res.witnesses
    )
    return res.objective == value_regular and witnesses_regular


def _op_biclique_prop(args, ctx):
    n, r, a, b = args["n"], args["r"], args["a"], args["b"]
    res = max_copies_free(n, complete_bipartite(a, b), r, jobs=ctx["jobs"])
    return _canonical_g6(complete_bipartite(r, r)) in res.witnesses and n == 2 * r


def _op_construction_sweep(args, ctx):
    """Run a builder across its parameter grid and say what became of
    every point.

    Returns ``{"ran", "failures", "skipped"}``: the points that built and
    passed their certificate, those whose certified property failed, and
    per reason the points the builder refused before certifying (a
    schedule it cannot realize, a precondition of its parameters).  The
    reason is the error text before its first colon.
    """
    name, grid_args = args["name"], {a: v for a, v in args.items() if a != "name"}
    ran = failures = 0
    skipped = {}
    for params in constructions.grid(name, grid_args):
        try:
            constructions.build(name, **params)
            ran += 1
        except constructions.ConstructionError as exc:
            if exc.prop is not None:
                failures += 1
            else:
                reason = str(exc).partition(":")[0]
                skipped[reason] = skipped.get(reason, 0) + 1
    return {"ran": ran, "failures": failures, "skipped": skipped}


CHECK_OPS = {
    "exr": _op_exr,
    "exr_parity": _op_exr_parity,
    "min_triangles": _op_min_triangles,
    "supersat_unique": _op_supersat_unique,
    "apex_window": _op_apex_window,
    "split_apex_equality": _op_split_apex_equality,
    "max_kt": _op_max_kt,
    "max_k_total": _op_max_k_total,
    "k_total_profile": _op_k_total_profile,
    "complement_triangles": _op_complement_triangles,
    "table_cells": _op_table_cells,
    "goodman_exhaustive": _op_goodman_exhaustive,
    "goodman_random": _op_goodman_random,
    "c5_forest_oracle": _op_c5_forest_oracle,
    "ex_c5_closed": _op_ex_c5_closed,
    "ex_c5_vs_partitions": _op_ex_c5_vs_partitions,
    "c5_search": _op_c5_search,
    "star_count_prop": _op_star_count_prop,
    "biclique_prop": _op_biclique_prop,
    "construction_sweep": _op_construction_sweep,
}


def load_suites():
    with resources.files("turan_reg").joinpath("suites.json").open() as fh:
        return json.load(fh)


def run_check(check, ctx):
    """Run one registry check: its value, whether that is the expected one, seconds."""
    t0 = time.perf_counter()
    actual = CHECK_OPS[check["op"]](check.get("args", {}), ctx)
    return actual, actual == check["expect"], time.perf_counter() - t0


def run_suite(suite_id, jobs=1, seed=DEFAULT_SEED):
    suites = load_suites()
    if suite_id not in suites:
        raise SuiteError(f"unknown suite {suite_id!r}; choose from {sorted(suites)}")
    ctx = {"jobs": jobs, "seed": seed}
    suite = suites[suite_id]
    report = {"suite": suite_id, "seed": seed, "checks": [], "passed": True}
    print(f"suite {suite_id}: {suite['description']} (seed={seed})")
    for check in suite["checks"]:
        actual, ok, dt = run_check(check, ctx)
        report["checks"].append(
            {
                "id": check["id"],
                "tag": check["tag"],
                "expect": check["expect"],
                "actual": actual,
                "ok": ok,
                "seconds": round(dt, 3),
            }
        )
        report["passed"] = report["passed"] and ok
        status = "PASS" if ok else "FAIL"
        print(f"  [{check['tag']}] {check['id']}: expect={check['expect']!r} "
              f"actual={actual!r} {status} ({dt:.2f}s)")
    print(f"suite {suite_id}: {'PASS' if report['passed'] else 'FAIL'} "
          f"({len(report['checks'])} checks)")
    return report


# ---------------------------------------------------------------------------
# argument parsing


# every parameter some builder takes, each a construct option of its name
CONSTRUCT_PARAMS = sorted({a for names in constructions.PARAMS.values() for a in names})


def int_list(text):
    """Comma-separated integers; argparse names the function when they are not."""
    return [int(a) for a in text.split(",")]


# probe name -> its function, the options it needs and those it may
# take: its subcommand takes exactly these, passed on as keywords of the
# same name, and an option left out keeps the probe's own default
PROBES = {
    "gls-critical": (probe_gls_critical, ("n", "r"), ("t",)),
    "triangle-floor": (probe_triangle_floor, (), ("n_max",)),
    "odd-girth-question": (probe_odd_girth_question, ("n", "pattern"), ()),
    "cycle-question": (probe_cycle_question, ("m", "r", "n"), ()),
}


class _Subcommand(argparse.ArgumentParser):
    """A subcommand's parser: it refuses an unknown option under its own
    usage, where argparse would hand it back to the top parser."""

    def parse_known_args(self, args=None, namespace=None):
        ns, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: " + " ".join(extras))
        return ns, extras


def build_parser():
    top = argparse.ArgumentParser(
        prog="turan-reg",
        description="regular Turan numbers: exact search, constructions, checks",
    )
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Subcommand)
    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument("--jobs", type=int, default=1, help="worker processes")

    p = sub.add_parser("construct", help="build a named construction")
    p.add_argument("name", choices=sorted(constructions.BUILDERS))
    for param in CONSTRUCT_PARAMS:  # integers, but for the star leaf counts
        listed = param == "parts"
        p.add_argument(f"--{param}", type=int_list if listed else int,
                       help="comma-separated star leaf counts" if listed else None)
    p.add_argument("--format", choices=("g6", "edges"), default="g6")
    p.add_argument("--certify", action="store_true", help="print certificate JSON")
    p.add_argument("--out", type=str, default="-")

    p = sub.add_parser("enumerate", parents=[jobs], help="stream one graph6 line per class")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-degree", type=int)
    p.add_argument("--edges", type=int)
    p.add_argument("--regular-k", type=int)
    p.add_argument("--connected", action="store_true")
    p.add_argument("--desc", action="store_true", help="dual augmentation order")
    p.add_argument("--force", action="store_true", help="override the n cap")
    p.add_argument("--out", type=str, default="-")

    # the options every search command takes
    search = argparse.ArgumentParser(add_help=False, parents=[jobs])
    search.add_argument("--n", type=int, required=True)
    search.add_argument("--witness-cap", type=int, default=DEFAULT_WITNESS_CAP)

    def add_search(name, text):
        return sub.add_parser(name, parents=[search], help=text)

    p = add_search("exr", "exact regular Turan number by search")
    p.add_argument("--forbid", type=str, required=True, help="K3, C7, C3..C9, K1,4, g6:...")
    p.add_argument("--all-witnesses", action="store_true")

    p = add_search("census-triangles", "minimum triangles over k-regular graphs")
    p.add_argument("--k", type=int, required=True)

    p = add_search("max-cliques", "maximize clique counts given (n, m, max degree)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--max-degree", type=int, required=True)
    size = p.add_mutually_exclusive_group(required=True)
    size.add_argument("--t", type=int, help="clique size")
    size.add_argument("--total", action="store_true", help="maximize the total clique count")

    p = add_search("max-copies", "maximize pattern copies under a degree cap")
    p.add_argument("--pattern", type=str, required=True)
    p.add_argument("--max-degree", type=int, required=True)

    p = sub.add_parser("probe", help="conjecture probes (report only)")
    probes = p.add_subparsers(dest="name", required=True)
    for name, (_, needed, optional) in PROBES.items():
        # no abbreviations: --n must not be read as --n-max
        q = probes.add_parser(name, parents=[jobs], allow_abbrev=False)
        for opt in needed + optional:
            flag, kind = "--" + opt.replace("_", "-"), str if opt == "pattern" else int
            q.add_argument(flag, type=kind, required=opt in needed)

    p = sub.add_parser("suite", parents=[jobs], help="run a verification suite")
    p.add_argument("id", type=str)
    p.add_argument("--report", type=str, help="write JSON report here")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="random seed")

    p = sub.add_parser("table", parents=[jobs], help="reproduce the critical-regime table")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n-from", type=int, required=True)
    p.add_argument("--n-to", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", type=str, default="-")

    return top


def _open_out(out):
    if out == "-":
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(out, "w")
    except OSError as exc:
        raise OutError(f"cannot write {out}: {exc.strerror}") from None


def _write(text, out):
    with _open_out(out) as fh:
        fh.write(text)


def _cmd_construct(ns):
    params = {a: getattr(ns, a) for a in CONSTRUCT_PARAMS if getattr(ns, a) is not None}
    start = time.perf_counter()
    result = constructions.build(ns.name, **params)
    seconds = time.perf_counter() - start
    if ns.format == "g6":
        text = graph6_encode(result.graph) + "\n"
    else:
        text = format_edge_list(result.graph)
    if ns.certify:
        text += json.dumps(result.certificate, indent=2) + "\n"
    _write(text, ns.out)
    print(f"seconds={seconds:.2f}", file=sys.stderr)
    return 0


def _cmd_enumerate(ns):
    filt = GenFilter(
        n=ns.n,
        max_degree=ns.max_degree,
        edge_count=ns.edges,
        regular_k=ns.regular_k,
        connected=ns.connected,
    )
    try:
        # refused arguments leave --out as it was
        check_run(filt, ns.jobs, ns.force)
        with _open_out(ns.out) as fh:
            def write(_, rows, s):
                fh.write(graph6_encode(extend_graph(rows, s)) + "\n")

            stats = enumerate_graphs(filt, leaf=write, desc=ns.desc, force=ns.force, jobs=ns.jobs)
    except CapError as exc:
        raise CapError(f"{exc}; pass --force") from None
    if stats.infeasible:
        print("infeasible filter: empty stream", file=sys.stderr)
    print(
        f"classes={stats.classes} nodes={stats.nodes} seconds={stats.seconds:.2f}",
        file=sys.stderr,
    )
    return 0


def _print_result(res, payload=None):
    """Print ``payload``, else the search result, as JSON; exit 1 when it is infeasible."""
    print(json.dumps(payload or res.to_json(), indent=2))
    return 0 if res.feasible else 1


def _cmd_exr(ns):
    hspec = HSpec.parse(ns.forbid)
    res = exr_exact(
        ns.n, hspec,
        all_witnesses=ns.all_witnesses, witness_cap=ns.witness_cap, jobs=ns.jobs,
    )
    payload = res.to_json()
    if hspec.family is not None and ns.n >= 3:
        cf = exr_closed_form(ns.n, hspec.family)
        payload["closed_form"] = {"value": cf.value, "exact": cf.exact}
    return _print_result(res, payload)


def _cmd_census_triangles(ns):
    res = min_triangles_regular(ns.n, ns.k, witness_cap=ns.witness_cap, jobs=ns.jobs)
    return _print_result(res)


def _cmd_max_cliques(ns):
    if ns.total:
        res = max_k_total(ns.n, ns.m, ns.max_degree, witness_cap=ns.witness_cap, jobs=ns.jobs)
    else:
        res = max_kt(ns.n, ns.m, ns.max_degree, ns.t, witness_cap=ns.witness_cap, jobs=ns.jobs)
    return _print_result(res)


def _cmd_max_copies(ns):
    members = HSpec.parse(ns.pattern).members
    if len(members) > 1:
        raise SearchError(f"max-copies counts one pattern; {ns.pattern} has {len(members)} members")
    res = max_copies_free(ns.n, members[0], ns.max_degree, witness_cap=ns.witness_cap, jobs=ns.jobs)
    return _print_result(res)


def _cmd_probe(ns):
    probe, needed, optional = PROBES[ns.name]
    kwargs = {opt: getattr(ns, opt) for opt in needed + optional if getattr(ns, opt) is not None}
    if "pattern" in kwargs:
        kwargs["hspec"] = HSpec.parse(kwargs.pop("pattern"))
    print(json.dumps(probe(jobs=ns.jobs, **kwargs), indent=2))
    return 0


def _cmd_suite(ns):
    report = run_suite(ns.id, jobs=ns.jobs, seed=ns.seed)
    if ns.report:
        _write(json.dumps(report, indent=2), ns.report)
    return 0 if report["passed"] else 1


def _cmd_table(ns):
    _write(emit_table(ns.r, ns.n_from, ns.n_to, fmt=ns.format, jobs=ns.jobs), ns.out)
    return 0


COMMANDS = {
    "construct": _cmd_construct,
    "enumerate": _cmd_enumerate,
    "exr": _cmd_exr,
    "census-triangles": _cmd_census_triangles,
    "max-cliques": _cmd_max_cliques,
    "max-copies": _cmd_max_copies,
    "probe": _cmd_probe,
    "suite": _cmd_suite,
    "table": _cmd_table,
}


# the package's own errors; main reports them as usage errors (exit 2)
NAMED_ERRORS = (
    constructions.ConstructionError, EnumerationError, FormulaError, GraphError, OutError,
    SearchError, SuiteError,
)


def main(argv=None):
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return COMMANDS[ns.command](ns)
    except NAMED_ERRORS as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
