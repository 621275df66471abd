"""Exact extremal searches over isomorph-free enumeration.

Every search walks one representative per isomorphism class under the
declared filter, scores it, and reports the extremal value together
with canonically encoded witnesses, the exact number of extremal
classes, and the generation statistics.  Nothing here is heuristic: a
reported value is the true optimum over the class list.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .canon import canonical_form
from .enumeration import HARD_CAP, GenFilter, GenStats, enumerate_graphs
from .formulas import FamilySpec, conjectured_triangle_min, gls_critical_range, triangle_window
from .graphs import (
    CliqueTotal,
    Graph,
    PatternCounter,
    bits,
    complement,
    complete_bipartite,
    complete_graph,
    connected_components,
    contains_subgraph,
    count_cycles,
    cycle_graph,
    extend_graph,
    graph6_decode,
    graph6_encode,
    graph6_header,
    odd_girth,
)

DEFAULT_WITNESS_CAP = 16


class SearchError(ValueError):
    pass


# a size below 1, or a member without an edge
_DEGENERATE = (
    "a clique needs at least 2 vertices, a star at least 1 leaf, "
    "a biclique at least 1 vertex in each part, a g6 pattern at least 1 edge"
)


def _sizes(*sizes):
    if min(sizes) < 1:
        raise SearchError(_DEGENERATE)
    return sizes


def _cycle_length(m):
    if m < 3:
        raise SearchError("a cycle needs at least 3 vertices")
    return m


@dataclass(frozen=True)
class HSpec:
    """A forbidden pattern: its normalized name and its member graphs.

    A graph is pattern-free when it contains no member.  ``family`` is
    the odd-cycle family of the triangle and of the odd-cycle patterns,
    for the closed form; it is None for every other pattern.

    No search runs past ``HARD_CAP`` vertices, so a member larger than
    that never occurs in a searched graph: a family builds its members up
    to the cap only, and a single pattern past it is refused before it is
    built.  This bound must move with the cap if searches may ever run
    past it.
    """

    name: str
    members: tuple
    family: FamilySpec | None = None

    def __post_init__(self):
        if not all(h.edge_count for h in self.members):
            raise SearchError(_DEGENERATE)

    @classmethod
    def parse(cls, text):
        """Parse "K3", "C7", "C3..C9", "K5", "K1,4", "K2,3" or "g6:<string>"."""

        def number(part):
            try:
                return int(part)
            except ValueError:
                raise SearchError(f"cannot parse pattern {text!r}") from None

        def within_cap(order):
            if order > HARD_CAP:
                raise SearchError(
                    f"pattern {s} has {order} vertices, past the enumeration cap {HARD_CAP}"
                )

        s = text.strip()
        if s.startswith("g6:"):
            within_cap(graph6_header(s[3:])[0])
            h = graph6_decode(s[3:])
            return cls(f"g6:{graph6_encode(h)}", (h,))
        s = s.upper()  # "k4" and "c3..c9" name "K4" and "C3..C9"; a g6 string keeps its case
        if s == "K3":  # the triangle is parsed as C3, for the closed form
            s = "C3"
        if s.startswith("K") and "," in s:
            a, _, b = s[1:].partition(",")
            a, b = _sizes(number(a), number(b))
            within_cap(a + b)
            return cls(f"K{a},{b}", (complete_bipartite(a, b),))
        if s.startswith("K"):
            (t,) = _sizes(number(s[1:]))
            within_cap(t)
            return cls(f"K{t}", (complete_graph(t),))
        if ".." in s and s.startswith("C"):
            lo, _, hi = s.partition("..")
            if lo.strip() != "C3":
                raise SearchError("cycle families start at C3")
            top = _cycle_length(number(hi.strip().lstrip("C")))
            if top % 2 == 0:
                raise SearchError("cycle families end at an odd cycle")
            family = FamilySpec("odd-cycle-family", (top + 1) // 2)
            members = map(cycle_graph, range(3, min(top, HARD_CAP) + 1, 2))
            return cls(f"C3..C{top}", tuple(members), family)
        if s.startswith("C"):
            m = _cycle_length(number(s[1:]))
            within_cap(m)
            family = None
            if m % 2:
                family = FamilySpec("triangle") if m == 3 else FamilySpec("odd-cycle", (m + 1) // 2)
            return cls("K3" if m == 3 else f"C{m}", (cycle_graph(m),), family)
        raise SearchError(f"cannot parse pattern {text!r}")


@dataclass
class SearchResult:
    objective: int | None
    witnesses: tuple
    classes: int | None
    stats: GenStats
    exact: bool = True
    extra: dict = field(default_factory=dict)

    @property
    def feasible(self):
        """Whether any class met the filter, and so gave an objective."""
        return self.objective is not None

    def to_json(self):
        return {
            "objective": self.objective,
            "witnesses": list(self.witnesses),
            "classes": self.classes,
            "exact": self.exact,
            "feasible": self.feasible,
            "stats": {
                "classes": self.stats.classes,
                "nodes": self.stats.nodes,
                "pruned": dict(sorted(self.stats.pruned.items())),
                "seconds": round(self.stats.seconds, 3),
                "cpu_seconds": round(self.stats.cpu_seconds, 3),
                "infeasible": self.stats.infeasible,
            },
            **({"extra": self.extra} if self.extra else {}),
        }


def _canonical_g6(g):
    return graph6_encode(canonical_form(g))


# ---------------------------------------------------------------------------
# searches


class ExtremeAccumulator:
    """Track max (sign=+1) or min (sign=-1) of a score with witnesses.

    ``update`` is a leaf call of the enumeration (see ``enumerate_graphs``):
    it gets each class's score with its parent's rows and attachment set,
    and builds the graph only to keep it as a witness."""

    def __init__(self, sign, cap):
        if cap < 0:
            raise SearchError("witness cap must be >= 0")
        self.sign = sign
        self.cap = cap
        self.best = None
        self.count = 0
        self.witnesses = []

    def update(self, score, rows, s):
        if self.best is None or self.sign * (score - self.best) > 0:
            self.best = score
            self.count = 0
            self.witnesses = []
        elif score != self.best:
            return
        self.count += 1
        if len(self.witnesses) < self.cap:
            self.witnesses.append(_canonical_g6(extend_graph(rows, s)))


def _scan_extreme(sign, cap, scan):
    """The extreme score over the classes that ``scan(update)`` hands to
    the leaf call ``update``, at most ``cap`` witnesses and the exact
    count of extremal classes; infeasible when it hands over none.
    ``scan`` returns its GenStats."""
    acc = ExtremeAccumulator(sign, cap)
    stats = scan(acc.update)
    if acc.best is None:
        return SearchResult(None, (), 0, stats)
    return SearchResult(acc.best, tuple(acc.witnesses), acc.count, stats)


def exr_exact(n, hspec, all_witnesses=False, witness_cap=DEFAULT_WITNESS_CAP, jobs=1):
    """Largest degree of a regular pattern-free graph on n vertices.

    Iterates the degree downward, skipping infeasible filters (nk odd),
    and stops at the first degree admitting a pattern-free class.  By
    default the enumeration short-circuits at the first witness;
    ``all_witnesses`` keeps scanning so the extremal class count is exact.

    A degree k <= (n - 1)/2 is scanned on the direct side, where the
    patterns prune the tree.  A denser k lists the (n - 1 - k)-regular
    classes and tests each one's complement at the leaf, so there
    ``stats.classes`` counts every k-regular class, pattern-free or not;
    ``classes`` of the result counts the pattern-free extremal ones.
    """
    if n < 1:
        raise SearchError("order must be >= 1")
    total = GenStats()
    for k in range(n - 1, -1, -1):
        filt = GenFilter(n=n, regular_k=k, forbidden=hspec.members)
        if filt.infeasible():  # no k-regular graph; scanning it would mark the stats infeasible
            continue

        def scan(update):  # every class scores k; stops at the first unless counting
            leaf = lambda _, rows, s: update(k, rows, s) or not all_witnesses
            kc = n - 1 - k
            if kc >= k:
                return enumerate_graphs(filt, jobs=jobs, leaf=leaf)

            def co_leaf(_, rows, s):
                # the complement's parent is the complement of the parent
                co, cs = complement(Graph(len(rows), rows)).rows, ((1 << len(rows)) - 1) ^ s
                g = extend_graph(co, cs)
                if any(contains_subgraph(g, h) for h in hspec.members):
                    return False
                return leaf(_, co, cs)

            return enumerate_graphs(GenFilter(n=n, regular_k=kc), jobs=jobs, leaf=co_leaf)

        res = _scan_extreme(+1, witness_cap, scan)
        total.merge(res.stats)
        if res.feasible:
            res.stats = total
            res.classes = res.classes if all_witnesses else None
            res.extra["pattern"] = hspec.name
            return res
    raise SearchError("unreachable: k=0 always admits the empty graph")


def max_kt(n, m, r, t, witness_cap=DEFAULT_WITNESS_CAP, jobs=1):
    """Maximum number of t-cliques among graphs with given order, size
    and maximum degree; exact extremal class count."""
    filt = GenFilter(n=n, max_degree=r, edge_count=m)
    scorer = PatternCounter(complete_graph(t))
    return _scan_extreme(+1, witness_cap, lambda update: enumerate_graphs(
        filt, jobs=jobs, scorer=scorer, leaf=update))


def critical_maxima(n, r, t=3, witness_cap=DEFAULT_WITNESS_CAP, jobs=1):
    """``max_kt(n, m, r, t)`` at each size m of the critical window
    low < m <= high, ``(low, high) = gls_critical_range(n, r)``, keyed by
    m in ascending order."""
    low, high = gls_critical_range(n, r)
    return {m: max_kt(n, m, r, t, witness_cap, jobs) for m in range(low + 1, high + 1)}


def max_k_total(n, m, r, witness_cap=DEFAULT_WITNESS_CAP, jobs=1):
    """Maximum clique count over all sizes t >= 3.

    With order and size both fixed the edge term k_2 = m is shared by
    every candidate, so the objective reported (and quoted by the worked
    examples) is the clique count above the edge level; the maximizing
    classes are identical either way.
    """
    filt = GenFilter(n=n, max_degree=r, edge_count=m)
    result = _scan_extreme(+1, witness_cap, lambda update: enumerate_graphs(
        filt, jobs=jobs, scorer=CliqueTotal(), leaf=update))
    if result.objective is not None:
        result.objective -= m
    return result


def min_triangles_regular(n, k, witness_cap=DEFAULT_WITNESS_CAP, jobs=1):
    """Minimum triangle count over k-regular graphs on n vertices."""
    filt = GenFilter(n=n, regular_k=k)
    scorer = PatternCounter(complete_graph(3))
    result = _scan_extreme(-1, witness_cap, lambda update: enumerate_graphs(
        filt, jobs=jobs, scorer=scorer, leaf=update))
    if result.stats.infeasible:
        result.extra["reason"] = "no k-regular graph: nk is odd"
    return result


def max_copies_free(n, pattern, forbidden_star_r, witness_cap=DEFAULT_WITNESS_CAP, jobs=1):
    """Maximum number of pattern copies among graphs with max degree at
    most r (avoiding the star K_{1,r+1})."""
    counter = PatternCounter(pattern)
    filt = GenFilter(n=n, max_degree=forbidden_star_r)
    result = _scan_extreme(+1, witness_cap, lambda update: enumerate_graphs(
        filt, jobs=jobs, scorer=counter, leaf=update))
    result.extra["pattern_kind"] = counter.kind
    return result


# ---------------------------------------------------------------------------
# conjecture probes: report-only, never assert


def _kr1_component_split(g, r):
    """Count components isomorphic to K_{r+1} and return the leftover."""
    kr1 = 0
    rest = 0
    for mask in connected_components(g):
        # r + 1 vertices of degree r, all inside the component
        if mask.bit_count() == r + 1 and all(g.rows[v].bit_count() == r for v in bits(mask)):
            kr1 += 1
        else:
            rest |= mask
    return kr1, rest


def probe_gls_critical(n, r, t=3, witness_cap=8, jobs=1):
    """Check critical-regime extremal witnesses for (a-1)K_{r+1}+H shape."""
    low, high = gls_critical_range(n, r)
    a = n // (r + 1)
    rows = []
    for m, res in critical_maxima(n, r, t, witness_cap, jobs).items():
        wit_rows = []
        for w in res.witnesses:
            g = graph6_decode(w)
            kr1, rest_mask = _kr1_component_split(g, r)
            wit_rows.append(
                {
                    "witness": w,
                    "kr1_components": kr1,
                    "decomposes": kr1 >= a - 1,
                    "rest_order": rest_mask.bit_count(),
                }
            )
        rows.append(
            {
                "n": n,
                "m": m,
                "t": t,
                "max_kt": res.objective,
                "classes": res.classes,
                "witnesses": wit_rows,
            }
        )
    return {
        "probe": "gls-critical",
        "params": {"n": n, "r": r, "t": t, "critical_range": [low, high]},
        "rows": rows,
        "note": "report only; decomposability of witnesses is observed, not asserted",
    }


def probe_triangle_floor(n_max=11, witness_cap=4, jobs=1):
    """Conjectured triangle minimum vs exhaustive minimum in the window."""
    # 9 is the first order whose triangle window holds a degree
    if n_max < 9:
        raise SearchError(f"n_max must be >= 9, the first order with a window degree (got {n_max})")
    rows = []
    for n in range(9, n_max + 1, 2):
        for k in triangle_window(n):
            bound = conjectured_triangle_min(n, k)
            res = min_triangles_regular(n, k, witness_cap=witness_cap, jobs=jobs)
            rows.append(
                {
                    "n": n,
                    "k": k,
                    "q": (n - 1) // 2 - k,
                    "bound": bound,
                    "true_min": res.objective,
                    "consistent": res.objective is not None
                    and res.objective >= bound,
                    "equality": res.objective == bound,
                    "classes_at_min": res.classes,
                }
            )
    return {
        "probe": "triangle-floor",
        "params": {"n_max": n_max},
        "rows": rows,
        "note": "report only; the bound is conjectural and never asserted",
    }


def probe_odd_girth_question(n, hspec, jobs=1):
    """Data point for the odd-girth refinement question."""
    g_odd = min((g for g in map(odd_girth, hspec.members) if g is not None), default=None)
    res = exr_exact(n, hspec, all_witnesses=False, jobs=jobs)
    row = {
        "n": n,
        "pattern": hspec.name,
        "odd_girth": g_odd,
        "exr": res.objective,
        "reference_2_floor": 2 * (n // (g_odd + 2)) if g_odd else None,
    }
    return {
        "probe": "odd-girth-question",
        "rows": [row],
        "note": "single data point; the asymptotic formula is an open question",
    }


def probe_cycle_question(m, r, n, witness_cap=4, jobs=1):
    """Normalized cycle-count maxima vs the balanced candidates."""
    res = max_copies_free(n, cycle_graph(m), r, witness_cap=witness_cap, jobs=jobs)
    candidates = {}
    if 2 * r <= n:
        candidates["K_rr"] = count_cycles(complete_bipartite(r, r), m)
    if r + 1 <= n:
        candidates["K_r+1"] = count_cycles(complete_graph(r + 1), m)
    return {
        "probe": "cycle-question",
        "params": {"m": m, "r": r, "n": n},
        "rows": [
            {
                "max_copies": res.objective,
                "classes": res.classes,
                "witnesses": list(res.witnesses),
                "candidate_counts": candidates,
            }
        ],
        "note": "report only",
    }

