"""Exact extremal searches over isomorph-free enumeration.

Every search walks one representative per isomorphism class under the
declared filter, scores it, and reports the extremal value together
with canonically encoded witnesses, the exact number of extremal
classes, and the generation statistics.  Nothing here is heuristic: a
reported value is the true optimum over the class list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from .canon import automorphism_group_order, canonical_form
from .enumeration import GenFilter, GenStats, enumerate_graphs, enumerate_regular
from .formulas import FamilySpec, conjectured_triangle_min, forced_triangle_window, gls_critical_range
from .graphs import (
    Graph,
    bits,
    cliques_within,
    complete_bipartite,
    complete_graph,
    connected_components,
    count_cliques,
    count_complete_bipartite,
    count_cycles,
    count_stars,
    count_subgraph_embeddings,
    cycle_graph,
    graph6_decode,
    graph6_encode,
    is_connected,
    odd_girth,
    pair_sum,
    path_counts,
    total_cliques,
)

DEFAULT_WITNESS_CAP = 16


class SearchError(ValueError):
    pass


@dataclass(frozen=True)
class HSpec:
    """A forbidden pattern: a named family or an explicit graph.

    Exactly one of ``family``/``graph``/``clique``/``star``/``biclique``
    is set; ``clique`` is the order of a complete graph, ``star`` the leaf
    count of a K_{1,s} and ``biclique`` the part sizes (a, b) of a K_{a,b}.
    """

    family: FamilySpec | None = None
    graph: Graph | None = None
    clique: int | None = None
    star: int | None = None
    biclique: tuple[int, int] | None = None

    def __post_init__(self):
        set_count = sum(
            x is not None for x in (self.family, self.graph, self.clique, self.star, self.biclique)
        )
        if set_count != 1:
            raise SearchError("exactly one pattern kind must be given")
        if self.graph is not None and self.graph.edge_count < 1:
            raise SearchError("explicit pattern needs at least one edge")
        if (
            self.clique is not None and self.clique < 2
            or self.star is not None and self.star < 1
            or self.biclique is not None and min(self.biclique) < 1
        ):
            raise SearchError(
                "a clique needs at least 2 vertices, a star at least 1 leaf, "
                "a biclique at least 1 vertex in each part"
            )

    def members(self):
        if self.family is not None:
            return tuple(cycle_graph(m) for m in self.family.cycle_lengths)
        if self.clique is not None:
            return (complete_graph(self.clique),)
        if self.star is not None:
            return (complete_bipartite(1, self.star),)
        if self.biclique is not None:
            return (complete_bipartite(*self.biclique),)
        return (self.graph,)

    def describe(self):
        if self.family is not None:
            if self.family.kind == "triangle":
                return "K3"
            if self.family.kind == "odd-cycle":
                return f"C{2 * self.family.ell - 1}"
            return f"C3..C{2 * self.family.ell - 1}"
        if self.clique is not None:
            return f"K{self.clique}"
        if self.star is not None:
            return f"K1,{self.star}"
        if self.biclique is not None:
            return "K{},{}".format(*self.biclique)
        return f"g6:{graph6_encode(self.graph)}"

    @classmethod
    def parse(cls, text):
        """Parse "K3", "C7", "C3..C9", "K1,4", "K2,3" or "g6:<string>"."""

        def number(part):
            try:
                return int(part)
            except ValueError:
                raise SearchError(f"cannot parse pattern {text!r}") from None

        s = text.strip()
        if s.startswith("g6:"):
            return cls(graph=graph6_decode(s[3:]))
        if s.upper() == "K3":
            return cls(family=FamilySpec("triangle"))
        if s.startswith("K") and "," in s:
            a, _, b = s[1:].partition(",")
            a, b = number(a), number(b)
            return cls(star=b) if a == 1 else cls(biclique=(a, b))
        if s.startswith("K"):
            return cls(clique=number(s[1:]))
        if ".." in s and s.startswith("C"):
            lo, _, hi = s.partition("..")
            if lo.strip() != "C3":
                raise SearchError("cycle families start at C3")
            top = number(hi.strip().lstrip("C"))
            if top % 2 == 0:
                raise SearchError("cycle families end at an odd cycle")
            return cls(family=FamilySpec("odd-cycle-family", (top + 1) // 2))
        if s.startswith("C"):
            m = number(s[1:])
            if m == 3:
                return cls(family=FamilySpec("triangle"))
            if m % 2 == 0:
                return cls(graph=cycle_graph(m))
            return cls(family=FamilySpec("odd-cycle", (m + 1) // 2))
        raise SearchError(f"cannot parse pattern {text!r}")


@dataclass
class SearchResult:
    objective: int | None
    witnesses: tuple
    classes: int | None
    stats: GenStats
    exact: bool = True
    feasible: bool = True
    extra: dict = field(default_factory=dict)

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
                "infeasible": self.stats.infeasible,
            },
            **({"extra": self.extra} if self.extra else {}),
        }


def _canonical_g6(g):
    return graph6_encode(canonical_form(g))


# ---------------------------------------------------------------------------
# objective accumulators


class ExtremeAccumulator:
    """Track max (sign=+1) or min (sign=-1) of a score with witnesses."""

    def __init__(self, score_fn, sign=1, cap=DEFAULT_WITNESS_CAP):
        self.score_fn = score_fn
        self.sign = sign
        self.cap = cap
        self.best = None
        self.count = 0
        self.witnesses = []

    def update(self, g):
        s = self.score_fn(g)
        if self.best is None or self.sign * (s - self.best) > 0:
            self.best = s
            self.count = 1
            self.witnesses = [_canonical_g6(g)]
        elif s == self.best:
            self.count += 1
            if len(self.witnesses) < self.cap:
                self.witnesses.append(_canonical_g6(g))

def _scan_extreme(filt, score_fn, sign, cap, jobs):
    acc = ExtremeAccumulator(score_fn, sign, cap)
    stats = enumerate_graphs(filt, visitor=acc.update, jobs=jobs)
    return _result_from_acc(acc, stats)


def _result_from_acc(acc, stats):
    if acc.best is None:
        return SearchResult(None, (), 0, stats, feasible=False)
    return SearchResult(acc.best, tuple(acc.witnesses), acc.count, stats)


# ---------------------------------------------------------------------------
# searches


def exr_exact(n, hspec, all_witnesses=False, witness_cap=DEFAULT_WITNESS_CAP, jobs=1):
    """Largest degree of a regular pattern-free graph on n vertices.

    Iterates the degree downward (skipping odd products nk) and stops at
    the first degree admitting a pattern-free class.  By default the
    enumeration short-circuits at the first witness; ``all_witnesses``
    keeps scanning so the extremal class count is exact.
    """
    if n < 1:
        raise SearchError("order must be >= 1")
    members = hspec.members()
    total = GenStats()
    for k in range(n - 1, -1, -1):
        if (n * k) % 2 != 0:
            continue
        found = []
        count = [0]

        def visit(g):
            count[0] += 1
            if len(found) < witness_cap:
                found.append(_canonical_g6(g))
            return not all_witnesses  # stop at first witness unless counting

        total.merge(enumerate_regular(n, k, visitor=visit, forbidden=members, jobs=jobs))
        if count[0] or k == 0:
            return SearchResult(
                k,
                tuple(found),
                count[0] if all_witnesses else None,
                total,
                extra={"pattern": hspec.describe()},
            )
    raise SearchError("unreachable: k=0 always admits the empty graph")


def _score_k_total_above_edges(g):
    # fixed edge count makes the k2 term constant; report the part above it
    return total_cliques(g) - count_cliques(g, 2)


def max_kt(n, m, r, t, witness_cap=DEFAULT_WITNESS_CAP, jobs=1):
    """Maximum number of t-cliques among graphs with given order, size
    and maximum degree; exact extremal class count."""
    filt = GenFilter(n=n, max_degree=r, edge_count=m)
    return _scan_extreme(filt, PatternCounter(complete_graph(t)), +1, witness_cap, jobs)


def max_k_total(n, m, r, witness_cap=DEFAULT_WITNESS_CAP, jobs=1):
    """Maximum clique count over all sizes t >= 3.

    With order and size both fixed the edge term k_2 = m is shared by
    every candidate, so the objective reported (and quoted by the worked
    examples) is the clique count above the edge level; the maximizing
    classes are identical either way.
    """
    filt = GenFilter(n=n, max_degree=r, edge_count=m)
    return _scan_extreme(filt, _score_k_total_above_edges, +1, witness_cap, jobs)


def min_triangles_regular(n, k, witness_cap=DEFAULT_WITNESS_CAP, jobs=1):
    """Minimum triangle count over k-regular graphs on n vertices."""
    acc = ExtremeAccumulator(PatternCounter(complete_graph(3)), -1, witness_cap)
    stats = enumerate_regular(n, k, visitor=acc.update, jobs=jobs)
    result = _result_from_acc(acc, stats)
    if stats.infeasible:
        result.extra["reason"] = "no k-regular graph: nk is odd"
    elif acc.best is None:
        result.extra["reason"] = "no k-regular graph on n vertices"
    return result


def _classify_pattern(h):
    degs = sorted(r.bit_count() for r in h.rows)
    m = h.edge_count
    if m == comb(h.n, 2):
        return ("clique", h.n)
    if h.n >= 3 and m == h.n and degs[0] == degs[-1] == 2 and is_connected(h):
        return ("cycle", h.n)
    if h.n >= 2 and degs[-1] == h.n - 1 and degs[-2] == 1:
        return ("star", h.n - 1)
    # K_{A,B} with B = N(0): the rows outside B are B, those in B the rest
    b = h.rows[0]
    rest = ((1 << h.n) - 1) ^ b
    if b and all(r == (rest if b >> v & 1 else b) for v, r in enumerate(h.rows)):
        a = rest.bit_count()
        return ("biclique", (min(a, h.n - a), max(a, h.n - a)))
    return ("generic", None)


class PatternCounter:
    """Copy counter for a pattern graph, dispatching to the census ops.

    Cliques and 4- and 5-cycles score a graph g from its parent g - v,
    where v = n - 1 is the vertex that canonical augmentation added last,
    by the exact identity C(g) = C(g - v) + (copies through v).  With
    s = N(v), the t-cliques through v are the (t - 1)-cliques inside s
    (``cliques_within``), and the m-cycles through v are the sum over
    a < b in s of P_{m-2}(a, b), the a-b paths of m - 2 edges in g - v
    (``pair_sum`` of ``path_counts``).  A one-entry cache keyed by the
    rows of g - v holds its count and, for cycles, its path matrix; on a
    miss both are recomputed, the count by ``count_cliques`` or
    ``count_cycles``.  So any graph is scored exactly whatever came
    before it: the order only sets how often the cache hits, and
    enumeration emits the children of one parent one after another, also
    at ``jobs > 1``, where the visitor runs in the main process.

    Cycles of 6 or more vertices go to ``count_cycles``, and patterns of
    no named kind to the embedding count over the order of the
    automorphism group.
    """

    def __init__(self, pattern):
        self.pattern = pattern
        self.kind, self.param = _classify_pattern(pattern)
        self._parent = None  # rows of the last parent g - v
        self._count = 0  # its copies
        self._paths = None  # its path matrix, for cycles
        if self.kind == "generic":
            self.aut = automorphism_group_order(pattern)

    def __call__(self, g):
        kind, p = self.kind, self.param
        if kind == "clique" or (kind == "cycle" and p in (4, 5)):
            return self._from_parent(g)
        if kind == "cycle":
            return count_cycles(g, p)
        if kind == "star":
            return count_stars(g, p)
        if kind == "biclique":
            return count_complete_bipartite(g, p[0], p[1])
        embeddings = count_subgraph_embeddings(g, self.pattern)
        assert embeddings % self.aut == 0
        return embeddings // self.aut

    def _from_parent(self, g):
        if not g.n:
            return 0
        p = self.param
        low = (1 << (g.n - 1)) - 1
        parent = tuple([r & low for r in g.rows[:-1]])
        if parent != self._parent:
            if self.kind == "clique":
                self._count = count_cliques(Graph(g.n - 1, parent), p)
            else:
                self._count = count_cycles(Graph(g.n - 1, parent), p)
                self._paths = path_counts(parent, p - 2)
            self._parent = parent
        s = g.rows[-1]
        if self.kind == "clique":
            return self._count + cliques_within(parent, s, p - 1)
        return self._count + pair_sum(self._paths, s)


def max_copies_free(n, pattern, forbidden_star_r, witness_cap=DEFAULT_WITNESS_CAP, jobs=1):
    """Maximum number of pattern copies among graphs with max degree at
    most r (avoiding the star K_{1,r+1})."""
    filt = GenFilter(n=n, max_degree=forbidden_star_r)
    counter = PatternCounter(pattern)
    result = _scan_extreme(filt, counter, +1, witness_cap, jobs)
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
    for m in range(low + 1, high + 1):
        res = max_kt(n, m, r, t, witness_cap=witness_cap, jobs=jobs)
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


def probe_triangle_floor(n_max, witness_cap=4, jobs=1):
    """Conjectured triangle minimum vs exhaustive minimum in the window."""
    rows = []
    for n in range(7, n_max + 1, 2):
        for k in range(2, n, 2):
            if not forced_triangle_window(n, k):
                continue
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
    members = hspec.members()
    g_odd = min((g for g in map(odd_girth, members) if g is not None), default=None)
    res = exr_exact(n, hspec, all_witnesses=False, jobs=jobs)
    row = {
        "n": n,
        "pattern": hspec.describe(),
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

