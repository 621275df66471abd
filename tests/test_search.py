import time
from collections import Counter
from functools import partial

import pytest

from helpers import (
    all_labeled_graphs,
    climb_count,
    automorphism_group_order,
    count_complete_bipartite,
    count_p4,
    count_stars,
    disjoint_union,
    graph_leaf,
    naive_embedding_count,
    path_graph,
    random_graph,
    seeded_rng,
    two_coloring,
)

from turan_reg.canon import canonical_form
from turan_reg.constructions import apex_construction, circulant_small_odd
from turan_reg.enumeration import GenFilter, enumerate_graphs
from turan_reg.formulas import FamilySpec
from turan_reg.graphs import (
    Graph,
    GraphError,
    PatternCounter,
    _classify_pattern,
    _embeddings,
    _extend,
    complement,
    complete_bipartite,
    complete_graph,
    connected_components,
    count_cliques,
    count_cycles,
    cycle_graph,
    from_edges,
    graph6_decode,
    graph6_encode,
    star_graph,
    triangle_count,
)
from turan_reg.search import (
    HSpec,
    SearchError,
    _canonical_g6,
    _kr1_component_split,
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

K3 = HSpec.parse("K3")


def test_hspec_parse():
    assert HSpec.parse("K3").family.kind == "triangle"
    assert HSpec.parse("C3").family.kind == "triangle"
    assert HSpec.parse("C7").family == FamilySpec("odd-cycle", 4)
    assert HSpec.parse("C3..C7").family == FamilySpec("odd-cycle-family", 4)
    for plain in ("K5", "K1,4", "K2,3", "C4", "g6:D?{"):
        assert HSpec.parse(plain).family is None
    assert HSpec.parse("g6:D?{").members[0].n == 5
    for bad in ("C3..C8", "C5..C7", "zzz"):
        with pytest.raises((SearchError, ValueError)):
            HSpec.parse(bad)


def test_hspec_members_and_name():
    """Each pattern's member graphs, and its name: the normalized text."""
    cases = {
        " K3 ": ("K3", (complete_graph(3),)),
        "C3": ("K3", (cycle_graph(3),)),
        "C3..C5": ("C3..C5", (cycle_graph(3), cycle_graph(5))),
        "C07": ("C7", (cycle_graph(7),)),
        "C4": ("C4", (cycle_graph(4),)),
        "K4": ("K4", (complete_graph(4),)),
        "K2,3": ("K2,3", (complete_bipartite(2, 3),)),
        "K1,3": ("K1,3", (star_graph(3),)),
        "g6:D?{": ("g6:D?{", (graph6_decode("D?{"),)),
    }
    for text, (name, members) in cases.items():
        h = HSpec.parse(text)
        assert (h.name, h.members) == (name, members), text
    with pytest.raises(SearchError, match="a g6 pattern at least 1 edge"):
        HSpec("empty", (from_edges(3, []),))


def test_hspec_sizes_bounded_by_cap():
    """No member past the enumeration cap is built: a family keeps its name
    and closed form with members C3..C11, a single pattern is refused."""
    h = HSpec.parse("C3..C2001")
    assert (h.name, h.family) == ("C3..C2001", FamilySpec("odd-cycle-family", 1001))
    assert h.members == tuple(map(cycle_graph, (3, 5, 7, 9, 11)))
    assert HSpec.parse("K11").members == (complete_graph(11),)
    big_g6 = "g6:" + graph6_encode(complete_graph(12))
    for text in ("K20000", "K12", "K6,6", "C12", "C20001", big_g6):
        t0 = time.perf_counter()
        with pytest.raises(SearchError, match="past the enumeration cap 11"):
            HSpec.parse(text)
        assert time.perf_counter() - t0 < 0.05, text


def test_exr_small_values():
    assert exr_exact(7, K3).objective == 2
    assert exr_exact(10, K3).objective == 5
    assert exr_exact(6, K3).objective == 3
    assert exr_exact(1, K3).objective == 0


@pytest.mark.parametrize("n", [0, -2])
def test_exr_order_must_be_positive(n):
    with pytest.raises(SearchError, match="order must be >= 1"):
        exr_exact(n, K3)


CAPPED_SEARCHES = {
    "exr": lambda cap: exr_exact(7, K3, all_witnesses=True, witness_cap=cap),
    "exr-first": lambda cap: exr_exact(7, K3, witness_cap=cap),
    "max-copies": lambda cap: max_copies_free(7, cycle_graph(5), 3, witness_cap=cap),
    "max-kt": lambda cap: max_kt(7, 9, 3, 3, witness_cap=cap),
    "max-k-total": lambda cap: max_k_total(7, 9, 3, witness_cap=cap),
    "min-triangles": lambda cap: min_triangles_regular(8, 3, witness_cap=cap),
}


@pytest.mark.parametrize("name", sorted(CAPPED_SEARCHES))
def test_witness_cap(name):
    # cap 0 keeps no witness and the same objective and count; a negative
    # cap is an error in every search
    search = CAPPED_SEARCHES[name]
    full, none, one = search(16), search(0), search(1)
    assert full.witnesses and none.witnesses == () and one.witnesses == full.witnesses[:1]
    assert (none.objective, none.classes) == (one.objective, one.classes) == (
        full.objective, full.classes
    )
    with pytest.raises(SearchError, match="witness cap must be >= 0"):
        search(-1)


def test_exr_witness_includes_circulant():
    res = exr_exact(11, K3, all_witnesses=True)
    assert res.objective == 4
    assert res.classes == 2  # pinned: two triangle-free 4-regular classes
    target = canonical_form(circulant_small_odd(11).graph)
    assert target in {canonical_form(graph6_decode(w)) for w in res.witnesses}


def test_exr_early_exit_leaves_classes_unknown():
    res = exr_exact(11, K3)
    assert res.objective == 4
    assert res.classes is None
    assert len(res.witnesses) == 1


def test_exr_explicit_pattern():
    c5p = from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5)])
    res = exr_exact(9, HSpec("C5 with a pendant edge", (c5p,)))
    assert res.objective == 2  # pinned small-order value


def test_exr_family():
    res = exr_exact(9, HSpec.parse("C3..C5"))
    assert res.objective == 2


def test_min_triangles_examples():
    res = min_triangles_regular(9, 4)
    assert res.objective == 2 and res.classes == 1
    wit = graph6_decode(res.witnesses[0])
    assert canonical_form(wit) == canonical_form(apex_construction(9, 4).graph)
    assert min_triangles_regular(5, 2).objective == 0


def test_min_triangles_infeasible():
    res = min_triangles_regular(7, 3)
    assert not res.feasible and res.objective is None
    assert "reason" in res.extra


def test_min_triangles_window_vs_apex():
    # within the enumeration cap the only odd-order window instance is (9,4):
    # the exhaustive minimum is positive and at most the apex construction's count
    res = min_triangles_regular(9, 4)
    apex = triangle_count(apex_construction(9, 4).graph)
    assert 0 < res.objective <= apex


def _extremes(sign, scored):
    """The extreme score of (score, graph) pairs, how many attain it and
    their canonical graph6 strings as a set."""
    best = max(sign * score for score, _ in scored) * sign
    extremal = [_canonical_g6(g) for score, g in scored if score == best]
    return best, len(extremal), set(extremal)


def test_min_triangles_vs_complements():
    # the direct-side minimum against the triangles of the complements of
    # the (n - 1 - k)-regular classes, at every degree with nk even
    for n in range(1, 11):
        for k in range(n):
            if n * k % 2:
                continue
            res = min_triangles_regular(n, k, witness_cap=1000)
            scored = []

            def visit(g):
                co = complement(g)
                scored.append((triangle_count(co), co))

            enumerate_graphs(GenFilter(n=n, regular_k=n - 1 - k), leaf=graph_leaf(visit))
            assert (res.objective, res.classes, set(res.witnesses)) == _extremes(-1, scored), (n, k)


def _exr_direct(n, hspec):
    """exr by the direct side at every degree, downward: the first k with
    a pattern-free k-regular class, scanned with the patterns pruned in
    the tree, and its classes."""
    for k in range(n - 1, -1, -1):
        scored = []
        filt = GenFilter(n=n, regular_k=k, forbidden=hspec.members)
        enumerate_graphs(filt, leaf=graph_leaf(lambda g: scored.append((k, g))))
        if scored:
            return _extremes(+1, scored)


@pytest.mark.parametrize("pattern", ["K3", "C4", "C5", "K4", "C3..C5", "K2,3"])
def test_exr_dense_levels_vs_direct_side(pattern):
    # exr_exact lists the degrees above (n - 1)/2 by their complements;
    # the direct side with the patterns pruned in the tree is the second
    # route for the value, the class count and the witness set
    hspec = HSpec.parse(pattern)
    for n in range(4, 11):
        res = exr_exact(n, hspec, all_witnesses=True, witness_cap=1000)
        assert (res.objective, res.classes, set(res.witnesses)) == _exr_direct(n, hspec), n


def test_witnesses_pairwise_distinct():
    res = max_kt(8, 17, 5, 3, witness_cap=16)
    assert len(set(res.witnesses)) == len(res.witnesses) == 3
    labels = {canonical_form(graph6_decode(w)) for w in res.witnesses}
    assert len(labels) == len(res.witnesses)


def test_max_kt_table_non_monotone():
    # the maximum can drop as the size grows inside the critical regime
    assert max_kt(7, 12, 4, 3).objective == 8
    assert max_kt(7, 13, 4, 3).objective == 7


def test_max_kt_infeasible():
    res = max_kt(5, 11, 4, 3)
    assert not res.feasible and res.objective is None and res.classes == 0


def test_witnesses_reverify():
    res = max_kt(7, 12, 4, 3, witness_cap=16)
    assert res.witnesses
    for w in res.witnesses:
        g = graph6_decode(w)
        assert g.n == 7 and g.edge_count == 12
        assert max(map(int.bit_count, g.rows)) <= 4
        assert count_cliques(g, 3) == res.objective


def test_max_k_total_reports_above_edge_level():
    res = max_k_total(6, 9, 3)
    best = None
    out = []
    enumerate_graphs(
        GenFilter(n=6, max_degree=3, edge_count=9), leaf=graph_leaf(out.append)
    )
    best = max(sum(count_cliques(g, t) for t in range(3, 7)) for g in out)
    assert res.objective == best


def test_pattern_counter_dispatch():
    rng = seeded_rng()
    patterns = [
        (complete_graph(4), "clique"),
        (cycle_graph(5), "cycle"),
        (star_graph(3), "star"),
        (complete_bipartite(2, 3), "biclique"),
        (path_graph(4), "generic"),
    ]
    for pat, kind in patterns:
        counter = PatternCounter(pat)
        assert counter.kind == kind
        aut = automorphism_group_order(pat)
        for _ in range(8):
            g = random_graph(rng, rng.randint(4, 7))
            assert climb_count(counter, g) == naive_embedding_count(g, pat) // aut, (kind, g.rows)
    # C6 and longer count the paths that close a cycle through the new vertex
    for m in range(6, 10):
        pat = cycle_graph(m)
        counter = PatternCounter(pat)
        assert counter.kind == "cycle"
        for _ in range(4):
            g = random_graph(rng, m, rng.uniform(0.6, 1.0))
            assert climb_count(counter, g) == naive_embedding_count(g, pat) // (2 * m), (m, g.rows)
    # the climb takes one order at a time, with no recursion per order
    big = disjoint_union(cycle_graph(1500), complete_graph(4))
    assert climb_count(PatternCounter(complete_graph(3)), big) == 4
    # a pattern without vertices is refused, not counted as the order of g
    for refused in (lambda: PatternCounter(Graph(0, ())), lambda: max_copies_free(4, Graph(0, ()), 2)):
        with pytest.raises(GraphError, match="at least one vertex"):
            refused()


def _classify_oracle(h):
    """The classification with the biclique read off a 2-coloring."""
    degs = sorted(r.bit_count() for r in h.rows)
    m = h.edge_count
    if m == h.n * (h.n - 1) // 2:
        return ("clique", h.n)
    if h.n >= 3 and m == h.n and degs[0] == degs[-1] == 2 and len(connected_components(h)) == 1:
        return ("cycle", h.n)
    if h.n >= 2 and degs[-1] == h.n - 1 and degs[-2] == 1:
        return ("star", h.n - 1)
    coloring = two_coloring(h)
    if coloring is not None:
        a = coloring.count(0)
        b = h.n - a
        if m == a * b and a >= 1 and b >= 1:
            return ("biclique", (min(a, b), max(a, b)))
    return ("generic", None)


def test_classify_pattern_vs_two_coloring():
    """Every labelled graph on at most 6 vertices, 33 868 in all."""
    seen = 0
    for n in range(7):
        for h in all_labeled_graphs(n):
            assert _classify_pattern(h) == _classify_oracle(h), h.rows
            seen += 1
    assert seen == 33868


def test_kr1_component_split():
    k5 = complete_graph(5)
    g = disjoint_union(k5, cycle_graph(5), k5, complete_bipartite(4, 4))
    assert _kr1_component_split(g, 4) == (2, ((1 << 5) - 1) << 5 | ((1 << 8) - 1) << 15)
    assert _kr1_component_split(g, 2) == (0, (1 << 23) - 1)
    assert _kr1_component_split(disjoint_union(k5, Graph(1, (0,))), 0) == (1, (1 << 5) - 1)


def _with_last_row(g, s):
    """g with the neighbourhood of its last vertex replaced by ``s``."""
    v = g.n - 1
    keep = ~(1 << v)
    rows = [r & keep | ((s >> u) & 1) << v for u, r in enumerate(g.rows[:-1])]
    return Graph(g.n, tuple(rows) + (s,))


def test_pattern_counter_from_parent_any_order():
    """The identity count(g) = count(g - v) + through(g - v)(N(v)) is
    exact for every kind of pattern: climbed from the empty graph
    (``climb_count``) on the n = 8 classes and on random graphs of
    orders 0..9, each followed by siblings that share its parent.  The
    slow networkx oracle checks every fifth class and all the random
    graphs; the other oracles check every graph."""
    classes = []
    enumerate_graphs(GenFilter(n=8, max_degree=4), leaf=graph_leaf(classes.append))
    rng = seeded_rng()
    mixed = [Graph(0, ())]
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 9))
        mixed.append(g)
        for _ in range(rng.randint(0, 3)):
            mixed.append(_with_last_row(g, rng.getrandbits(g.n - 1)))
    every = None  # check every graph
    cases = [(cycle_graph(m), partial(count_cycles, m=m), every) for m in (3, 4, 5)]
    cases += [(complete_graph(t), partial(count_cliques, t=t), every) for t in (1, 2, 4)]
    cases += [(star_graph(3), partial(count_stars, s=3), every)]
    cases += [(complete_bipartite(a, b), partial(count_complete_bipartite, a=a, b=b), every) for a, b in ((2, 3), (3, 3))]
    cases += [(path_graph(4), count_p4, every)]
    # count_cycles shares paths_within with the counter from C6 on, so
    # networkx counts the cycles of 6 and 7 vertices, both in one pass
    nx = pytest.importorskip("networkx")
    lengths = {}

    def nx_cycles(g, m):
        if g.rows not in lengths:
            cycles = nx.simple_cycles(nx.Graph(list(g.edges())), length_bound=7)
            lengths[g.rows] = Counter(map(len, cycles))
        return lengths[g.rows][m]

    sample = {g.rows for g in classes[::5] + mixed}
    cases += [(cycle_graph(m), partial(nx_cycles, m=m), sample) for m in (6, 7)]
    for pattern, oracle, checked in cases:
        counter = PatternCounter(pattern)
        for g in classes + mixed:
            if checked is None or g.rows in checked:
                assert climb_count(counter, g) == oracle(g), (pattern.rows, g.rows)


def test_through_matches_anchored_embeddings():
    """For every kind, ``through(rows)(s)`` is the number of maps of the
    pattern into the child whose image holds the new vertex, over the
    order of the pattern's automorphism group; with ``first`` it is
    positive iff that number is."""
    rng = seeded_rng()
    patterns = [complete_graph(t) for t in (1, 2, 3, 4)]
    patterns += [cycle_graph(m) for m in (4, 5, 6, 7)]
    patterns += [star_graph(p) for p in (2, 3)]
    patterns += [complete_bipartite(a, b) for a, b in ((2, 3), (3, 3), (2, 4))]
    patterns += [path_graph(4), from_edges(4, [(0, 1), (2, 3)]), Graph(2, (0, 0))]
    for pattern in patterns:
        counter = PatternCounter(pattern)
        aut = automorphism_group_order(pattern)
        for _ in range(30):
            j = rng.randint(0, 8)
            rows = random_graph(rng, j).rows
            through, exists = counter.through(rows), counter.through(rows, first=True)
            for s in {0, (1 << j) - 1} | {rng.getrandbits(j) for _ in range(4)}:
                child = Graph(j + 1, _extend(rows, j, s))
                copies = _embeddings(child, pattern, j) // aut
                assert through(s) == copies, (pattern.rows, rows, s)
                assert (exists(s) > 0) == (copies > 0), (pattern.rows, rows, s)


def test_max_copies_free_star_prop():
    res = max_copies_free(6, star_graph(2), 3)
    assert res.objective == 18
    for w in res.witnesses:
        assert graph6_decode(w).is_regular(3)


def test_probe_triangle_floor():
    report = probe_triangle_floor(9)
    assert report["rows"] == [
        {
            "n": 9,
            "k": 4,
            "q": 0,
            "bound": 2,
            "true_min": 2,
            "consistent": True,
            "equality": True,
            "classes_at_min": 1,
        }
    ]


def test_probe_gls_critical():
    report = probe_gls_critical(6, 4)
    assert report["params"]["critical_range"] == [10, 12]
    ms = [row["m"] for row in report["rows"]]
    assert ms == [11, 12]
    for row in report["rows"]:
        assert row["witnesses"]
        for wit in row["witnesses"]:
            assert isinstance(wit["decomposes"], bool)


def test_probe_gls_critical_pinned():
    """The rows of gls-critical at (n, r) = (8, 4), as first computed."""
    def wit(*g6):
        return [{"witness": w, "kr1_components": 0, "decomposes": True, "rest_order": 8} for w in g6]

    assert probe_gls_critical(8, 4)["rows"] == [
        {"n": 8, "m": 14, "t": 3, "max_kt": 8, "classes": 3, "witnesses": wit("G_Kx~_", "GwCXyw", "GKXkks")},
        {"n": 8, "m": 15, "t": 3, "max_kt": 8, "classes": 2, "witnesses": wit("GJ]KlK", "G`K}^_")},
        {"n": 8, "m": 16, "t": 3, "max_kt": 8, "classes": 2, "witnesses": wit("GJem^_", "GJemvG")},
    ]


def test_probe_odd_girth_question():
    c5p = from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5)])
    report = probe_odd_girth_question(9, HSpec("C5 with a pendant edge", (c5p,)))
    row = report["rows"][0]
    assert row["odd_girth"] == 5
    assert row["exr"] == 2
    assert row["reference_2_floor"] == 2 * (9 // 7)


def test_probe_cycle_question():
    report = probe_cycle_question(5, 3, 6)
    row = report["rows"][0]
    assert "K_r+1" in row["candidate_counts"]
    assert row["max_copies"] >= row["candidate_counts"]["K_r+1"]


def test_probe_cycle_question_long_cycle():
    """Cycle lengths past 8 are counted like any other."""
    row = probe_cycle_question(9, 2, 9)["rows"][0]
    assert row["max_copies"] == 1 and row["classes"] == 1
    assert row["candidate_counts"] == {"K_rr": 0, "K_r+1": 0}


def test_search_result_json():
    res = max_kt(6, 11, 4, 3)
    payload = res.to_json()
    assert payload["objective"] == 7
    assert payload["classes"] >= 1
    assert isinstance(payload["witnesses"], list)
    assert payload["stats"]["classes"] > 0


def test_parallel_search_reports_seconds():
    res = max_copies_free(8, cycle_graph(5), 4, jobs=2)
    assert res.to_json()["stats"]["seconds"] > 0


# (objective, classes, witnesses, stats.classes, stats.nodes, sorted
# stats.pruned) of each search, pinned while the searches still scored
# each class as a whole graph after the tree had emitted it.
SEARCH_GOLDENS = {
    "max_kt(8,14,4,3)": (8, 3, ("G_Kx~_", "GwCXyw", "GKXkks"), 136, 291, [("canonical", 391)]),
    "max_kt(8,16,5,4)": (15, 1, ("G`Kxx{",), 515, 784, [("canonical", 750)]),
    "max_k_total(7,12,4)": (9, 2, ("F`Lzo", "F`L|o"), 32, 84, [("canonical", 50)]),
    "max_k_total(8,16,5)": (42, 1, ("G`Kxx{",), 515, 784, [("canonical", 750)]),
    "min_triangles_regular(9,4)": (2, 1, ("HBY[vFc",), 16, 176, [("canonical", 155)]),
    "min_triangles_regular(9,6)": (27, 1, ("HFzf~z{",), 4, 58, [("canonical", 6)]),
    "min_triangles_regular(10,6)": (24, 1, ("IBjF~z{~?",), 21, 332, [("canonical", 238)]),
    "max_copies_free(8,C5,4)": (30, 1, ("GJemnO",), 2590, 3274, [("canonical", 2860)]),
    "max_copies_free(8,K2,3,4)": (48, 1, ("G?~vf_",), 2590, 3274, [("canonical", 2860)]),
    "max_copies_free(7,K4,4)": (5, 2, ("F@Kxw", "F`Kxw"), 510, 684, [("canonical", 312)]),
    "exr_exact(9,K3)": (
        2, 2, ("H?CidB?", "HG?WtB?"), 7, 103, [("canonical", 23), ("forbidden", 68)]
    ),
    "exr_exact(10,C4)": (
        3, 3, ("I?LRCecq?", "I@Oq[QPw?", "I@LAKUSw?"), 91, 1223,
        [("canonical", 1880), ("forbidden", 438)],
    ),
}
SEARCH_CALLS = {
    "max_kt(8,14,4,3)": lambda jobs: max_kt(8, 14, 4, 3, jobs=jobs),
    "max_kt(8,16,5,4)": lambda jobs: max_kt(8, 16, 5, 4, jobs=jobs),
    "max_k_total(7,12,4)": lambda jobs: max_k_total(7, 12, 4, jobs=jobs),
    "max_k_total(8,16,5)": lambda jobs: max_k_total(8, 16, 5, jobs=jobs),
    "min_triangles_regular(9,4)": lambda jobs: min_triangles_regular(9, 4, jobs=jobs),
    "min_triangles_regular(9,6)": lambda jobs: min_triangles_regular(9, 6, jobs=jobs),
    "min_triangles_regular(10,6)": lambda jobs: min_triangles_regular(10, 6, jobs=jobs),
    "max_copies_free(8,C5,4)": lambda jobs: max_copies_free(8, cycle_graph(5), 4, jobs=jobs),
    "max_copies_free(8,K2,3,4)": lambda jobs: max_copies_free(
        8, complete_bipartite(2, 3), 4, jobs=jobs
    ),
    "max_copies_free(7,K4,4)": lambda jobs: max_copies_free(7, complete_graph(4), 4, jobs=jobs),
    "exr_exact(9,K3)": lambda jobs: exr_exact(9, HSpec.parse("K3"), all_witnesses=True, jobs=jobs),
    "exr_exact(10,C4)": lambda jobs: exr_exact(
        10, HSpec.parse("C4"), all_witnesses=True, jobs=jobs
    ),
}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("call", sorted(SEARCH_GOLDENS))
def test_search_goldens(call, jobs):
    res = SEARCH_CALLS[call](jobs)
    stats = res.stats
    got = (res.objective, res.classes, res.witnesses, stats.classes, stats.nodes,
           sorted(stats.pruned.items()))
    assert got == SEARCH_GOLDENS[call]


def test_parallel_search_counts_worker_cpu():
    """``cpu_seconds`` covers the workers of a jobs=2 scan, which do all
    the descending below the seeds and so more than this process does."""
    before = time.process_time()
    res = max_copies_free(8, cycle_graph(5), 4, jobs=2)
    own = time.process_time() - before
    assert res.stats.cpu_seconds > own > 0
    assert res.to_json()["stats"]["cpu_seconds"] == round(res.stats.cpu_seconds, 3)
