"""Differential tests of the census against networkx.

networkx shares no code with the bitset census: cycles come from its
``simple_cycles`` enumeration with a length bound, bipartiteness from
``is_bipartite``, triangles from ``triangles``, anchored containment
from ``GraphMatcher`` monomorphisms and graph6 from its own codec.  The
graphs include false twins (the census keeps one vertex per
identical-row class), disconnected graphs whose odd cycle sits after a
bipartite component, orders 0, 1 and 2, sparse graphs of 200 to 600
vertices, where the odd girth comes from BFS distances, and dense twin
blow-ups of 300 to 600 vertices with and without a planted triangle.
"""

import itertools

import pytest

from helpers import (
    blow_up,
    class_sizes,
    near_bipartite_with_twins,
    path_graph,
    petersen_graph,
    random_graph,
    seeded_rng,
    with_triangle,
)

from turan_reg.graphs import (
    Graph,
    bits,
    complete_bipartite,
    complete_graph,
    contains_subgraph,
    count_cycles,
    cycle_graph,
    disjoint_union,
    empty_graph,
    from_edges,
    graph6_decode,
    graph6_encode,
    induced_subgraph,
    is_triangle_free,
    odd_girth,
    star_graph,
    triangle_count,
)
from turan_reg.search import PatternCounter, max_copies_free

nx = pytest.importorskip("networkx")
from networkx.algorithms.isomorphism import GraphMatcher  # noqa: E402
pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def to_nx(g):
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    return G


def with_false_twins(g, sources):
    """Append, for each source vertex, a new vertex with its neighbourhood."""
    rows = list(g.rows)
    for s in sources:
        v = len(rows)
        rows.append(rows[s])
        for w in bits(rows[s]):
            rows[w] |= 1 << v
    return Graph(len(rows), tuple(rows))


def cycles_of_length(G, m):
    return sum(1 for c in nx.simple_cycles(G, length_bound=m) if len(c) == m)


def shortest_odd_cycle(G):
    for m in range(3, G.number_of_nodes() + 1, 2):
        if any(len(c) == m for c in nx.simple_cycles(G, length_bound=m)):
            return m
    return None


def check_census(g):
    G = to_nx(g)
    og = odd_girth(g)
    if nx.is_bipartite(G):
        assert og is None, g.rows
    else:
        assert og == shortest_odd_cycle(G), g.rows
    triangles = sum(nx.triangles(G).values()) // 3
    assert is_triangle_free(g) == (triangles == 0), g.rows
    assert count_cycles(g, 3) == triangles, g.rows
    for m in (4, 5, 6):
        assert count_cycles(g, m) == cycles_of_length(G, m), (g.rows, m)
    for k in (0, g.n // 2, g.n):
        sub = to_nx(induced_subgraph(g, k))
        assert nx.utils.graphs_equal(sub, G.subgraph(range(k))), (g.rows, k)


@pytest.mark.parametrize(
    "g",
    [
        empty_graph(0),
        empty_graph(1),
        empty_graph(2),
        from_edges(2, [(0, 1)]),
        disjoint_union(complete_bipartite(2, 3), cycle_graph(5)),
        disjoint_union(path_graph(4), empty_graph(2), cycle_graph(7), cycle_graph(5)),
        with_false_twins(disjoint_union(complete_bipartite(3, 3), cycle_graph(5)), [0, 6, 7, 8]),
        with_false_twins(petersen_graph(), [0, 0, 5]),
    ],
    ids=["n0", "n1", "n2-empty", "n2-edge", "K23+C5", "P4+2K1+C7+C5", "twins-K33+C5", "twins-petersen"],
)
def test_census_examples(g):
    check_census(g)


def test_census_random_with_false_twins():
    rng = seeded_rng()
    for _ in range(150):
        g = random_graph(rng, rng.randint(1, 8))
        g = with_false_twins(g, [rng.randrange(g.n) for _ in range(rng.randint(0, 3))])
        check_census(g)


@st.composite
def graphs(draw, max_n=7):
    n = draw(st.integers(0, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = from_edges(n, [p for p, keep in zip(pairs, picks) if keep])
    if n:
        g = with_false_twins(g, draw(st.lists(st.integers(0, n - 1), max_size=3)))
    return g


@st.composite
def bipartite_then_any(draw):
    """A bipartite component first, so the odd cycle is in a later one."""
    a, b = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cross = list(itertools.product(range(a), range(a, a + b)))
    picks = draw(st.lists(st.booleans(), min_size=len(cross), max_size=len(cross)))
    bip = from_edges(a + b, [e for e, keep in zip(cross, picks) if keep])
    return disjoint_union(bip, draw(graphs(max_n=6)))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.one_of(graphs(), bipartite_then_any()))
def test_census_property(g):
    check_census(g)


def odd_girth_from_distances(G, sources=None):
    """Minimum of 2d + 1 over the sources s (default: all vertices) and
    the edges uv with dist(s, u) = dist(s, v) = d, or None."""
    best = None
    edges = list(G.edges())
    for s in G if sources is None else sources:
        dist = nx.single_source_shortest_path_length(G, s)
        for u, v in edges:
            d = dist.get(u)
            if d is not None and d == dist.get(v) and (best is None or 2 * d + 1 < best):
                best = 2 * d + 1
    return best


def test_census_large_sparse():
    """Average degree 2 to 4 on 200 to 560 vertices, some edges inside
    the sides of a bipartition, and up to 40 false twins."""
    rng = seeded_rng()
    seen = set()
    for inside in (0, 1, 2, 3, 6, 10, 20, 40):
        n0 = rng.randint(200, 560)
        g = near_bipartite_with_twins(rng, n0, rng.uniform(4, 8) / n0, inside, rng.randint(1, 40))
        G = to_nx(g)
        og = odd_girth(g)
        seen.add(og)
        if nx.is_bipartite(G):
            assert og is None, inside
        assert og == odd_girth_from_distances(G), inside
        triangles = sum(nx.triangles(G).values()) // 3
        assert triangle_count(g) == triangles, inside
        assert is_triangle_free(g) == (triangles == 0), inside
    assert {None, 3, 5, 7} <= seen, seen


def test_census_large_dense_blowups():
    """Blow-ups of C5, C7 and K3,4 on 300 to 600 vertices, a quarter to a
    half of all pairs adjacent, with classes on consecutive labels or
    scattered, without and with one planted triangle: three new
    vertices, one of them joined to the neighbourhood of vertex 0.  Twins
    s, s' see every other vertex at the same distance, and neither lies
    on an edge inside a BFS layer of the other, so one source per
    distinct neighbourhood gives the odd girth from distances."""
    rng = seeded_rng()
    for base, want in ((cycle_graph(5), 5), (cycle_graph(7), 7), (complete_bipartite(3, 4), None)):
        sizes = class_sizes(rng, base.n, rng.randint(300, 597))
        for scatter in (None, rng):
            g = blow_up(base, sizes, scatter)
            for planted in (False, True):
                if planted:
                    g = with_triangle(g, g.rows[0], first=rng.random() < 0.5)
                G = to_nx(g)
                sources = {frozenset(G[v]): v for v in G}.values()
                og = odd_girth_from_distances(G, sources)
                assert og == (3 if planted else want)
                assert odd_girth(g) == og
                triangles = sum(nx.triangles(G).values()) // 3
                assert triangles == planted
                assert triangle_count(g) == triangles
                assert is_triangle_free(g) == (not planted)


def test_long_cycles_random():
    rng = seeded_rng()
    for _ in range(60):
        g = random_graph(rng, rng.randint(6, 9))
        G = to_nx(g)
        for m in (7, 8):
            assert count_cycles(g, m) == cycles_of_length(G, m), (g.rows, m)


def test_cycles_through_last_vertex_random():
    """What the counter adds to the parent's count is the number of
    m-cycles through the last vertex."""
    rng = seeded_rng()
    counters = {m: PatternCounter(cycle_graph(m)) for m in (3, 4, 5)}
    for _ in range(60):
        g = random_graph(rng, rng.randint(6, 9))
        G = to_nx(g)
        v = g.n - 1
        parent = induced_subgraph(g, v)
        for m, counter in counters.items():
            through = counter(g) - count_cycles(parent, m)
            expected = sum(
                1 for c in nx.simple_cycles(G, length_bound=m) if len(c) == m and v in c
            )
            assert through == expected, (g.rows, m)


def test_copies_search_jobs_agree():
    serial = max_copies_free(8, cycle_graph(5), 4)
    parallel = max_copies_free(8, cycle_graph(5), 4, jobs=2)
    assert serial.objective == parallel.objective
    assert serial.witnesses == parallel.witnesses
    assert serial.stats.classes == parallel.stats.classes


PATTERNS = {
    "K3": complete_graph(3),
    "C4": cycle_graph(4),
    "C5": cycle_graph(5),
    "P4": path_graph(4),
    "K1,3": star_graph(3),
}


@pytest.mark.parametrize("name", PATTERNS)
def test_anchored_containment_random(name):
    h = PATTERNS[name]
    H = to_nx(h)
    rng = seeded_rng()
    for _ in range(80):
        g = random_graph(rng, rng.randint(1, 8))
        images = [set(m) for m in GraphMatcher(to_nx(g), H).subgraph_monomorphisms_iter()]
        assert contains_subgraph(g, h) == bool(images), (g.rows, name)
        for a in range(g.n):
            expected = any(a in image for image in images)
            assert contains_subgraph(g, h, anchor=a) == expected, (g.rows, name, a)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 62, 63, 64, 100])
def test_graph6_round_trip(n):
    """Orders above 62 take the 4-byte order header."""
    rng = seeded_rng()
    for _ in range(5):
        g = random_graph(rng, n)
        G = to_nx(g)
        text = graph6_encode(g)
        assert nx.to_graph6_bytes(G, header=False) == text.encode() + b"\n"
        assert nx.utils.graphs_equal(nx.from_graph6_bytes(text.encode()), G)
        assert graph6_decode(nx.to_graph6_bytes(G).decode()) == g
