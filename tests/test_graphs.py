import math
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from helpers import (
    blow_up,
    check_invariants,
    class_sizes,
    count_complete_bipartite,
    count_stars,
    count_subgraph_embeddings,
    disjoint_union,
    naive_contains,
    naive_cycle_count,
    naive_embedding_count,
    naive_path_counts,
    near_bipartite_with_twins,
    odd_girth_oracle,
    parse_edge_list,
    path_graph,
    petersen_graph,
    random_blowup,
    random_graph,
    seeded_rng,
    triangle_count_oracle,
    two_coloring,
    with_triangle,
)

from turan_reg import graphs
from turan_reg.graphs import (
    Graph,
    GraphError,
    complement,
    complete_bipartite,
    complete_graph,
    contains_subgraph,
    count_cliques,
    count_cycles,
    cycle_graph,
    empty_graph,
    format_edge_list,
    from_edges,
    graph6_decode,
    graph6_encode,
    is_triangle_free,
    odd_girth,
    PatternCounter,
    path_counts,
    star_graph,
    total_cliques,
    triangle_count,
)


# frozen extremal graphs at (order, size, max degree) = (8, 18, 5)
def extremal_k3_8_18():
    edges = [(0, 2), (2, 3), (3, 1), (1, 0)]
    edges += [(a, v) for a in (4, 5, 6) for v in (0, 1, 2, 3)]
    edges += [(4, 5), (6, 7)]
    return from_edges(8, edges)


def extremal_ktotal_8_18():
    edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    edges += [(5, 6), (6, 7), (5, 7)]
    edges += [(5, 0), (5, 2), (5, 3), (6, 1), (6, 4)]
    return from_edges(8, edges)


def test_from_edges_examples():
    k3 = from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert k3.edge_count == 3
    c5 = from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    assert c5.is_regular(2)
    assert from_edges(4, []).rows == (0, 0, 0, 0)
    # duplicates are idempotent
    g = from_edges(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1


def test_from_edges_errors():
    with pytest.raises(GraphError):
        from_edges(3, [(0, 3)])
    with pytest.raises(GraphError):
        from_edges(3, [(1, 1)])
    with pytest.raises(GraphError):
        from_edges(3, [(-1, 0)])


def test_complement_examples():
    assert complement(complete_graph(4)).edge_count == 0
    c5 = cycle_graph(5)
    from turan_reg.canon import canonical_form

    assert canonical_form(complement(c5)) == canonical_form(c5)
    star = complement(disjoint_union(complete_graph(8), empty_graph(1)))
    assert star.rows[8].bit_count() == 8
    assert all(row.bit_count() == 1 for row in star.rows[:8])


def test_complement_involution():
    rng = seeded_rng()
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 12))
        assert complement(complement(g)) == g


def test_count_cliques_examples():
    assert count_cliques(complete_graph(5), 3) == 10
    assert count_cliques(cycle_graph(5), 3) == 0
    g = extremal_ktotal_8_18()
    assert g.edge_count == 18
    assert max(map(int.bit_count, g.rows)) == 5
    assert count_cliques(g, 3) == 15
    assert count_cliques(g, 4) == 6
    assert count_cliques(g, 5) == 1


def test_extremal_k3_census():
    g = extremal_k3_8_18()
    assert g.edge_count == 18
    assert max(map(int.bit_count, g.rows)) == 5
    assert count_cliques(g, 3) == 16
    assert count_cliques(g, 4) == 4
    assert count_cliques(g, 5) == 0


def test_total_cliques():
    k3 = complete_graph(3)
    assert total_cliques(k3) == 4  # 3 edges + 1 triangle
    gb = extremal_ktotal_8_18()
    assert total_cliques(gb) - count_cliques(gb, 2) == 22
    ga = extremal_k3_8_18()
    assert total_cliques(ga) - count_cliques(ga, 2) == 20


def test_total_cliques_matches_sum():
    rng = seeded_rng()
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 9))
        assert total_cliques(g) == sum(count_cliques(g, t) for t in range(2, g.n + 1))


def test_count_cliques_edges():
    rng = seeded_rng()
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 10))
        assert count_cliques(g, 2) == g.edge_count
        assert triangle_count(g) == count_cliques(g, 3)


def test_odd_girth_examples():
    assert odd_girth(cycle_graph(7)) == 7
    assert odd_girth(complete_bipartite(3, 3)) is None
    pet = petersen_graph()
    assert odd_girth(pet) == 5
    # exhaustive cycle-scan oracle for the Petersen value
    assert naive_cycle_count(pet, 3) == 0
    assert naive_cycle_count(pet, 5) == 12


def test_odd_girth_vs_two_coloring():
    rng = seeded_rng()
    for _ in range(120):
        g = random_graph(rng, rng.randint(1, 9))
        og = odd_girth(g)
        coloring = two_coloring(g)
        assert (og is None) == (coloring is not None)
        if coloring is not None:
            for u, v in g.edges():
                assert coloring[u] != coloring[v]
        else:
            lengths = [m for m in range(3, g.n + 1, 2) if naive_cycle_count(g, m) > 0]
            assert og == min(lengths)


def test_odd_girth_random_with_twins_vs_oracle():
    """Near-bipartite graphs of up to 36 vertices with false twins, whose
    odd girth is None, 3, 5 or at least 7, against the plain BFS."""
    rng = random.Random(20261019)
    seen = Counter()
    for _ in range(2000):
        n0 = rng.randint(2, 24)
        g = near_bipartite_with_twins(rng, n0, rng.uniform(1, 6) / n0, rng.randint(0, 3), rng.randint(0, 12))
        og = odd_girth_oracle(g)
        assert odd_girth(g) == og, g.rows
        assert is_triangle_free(g) == (og != 3), g.rows
        seen[og if og is None or og < 7 else 7] += 1
    # each of the four outcomes occurs many times
    assert min(seen[None], seen[3], seen[5], seen[7]) >= 20, seen


def _cycle_blowup(sizes, order=None):
    """C_len(sizes) with vertex i blown up into ``sizes[i]`` false twins,
    the classes labeled in ``order`` (default: around the cycle)."""
    order = order or range(len(sizes))
    classes, v = {}, 0
    for i in order:
        classes[i] = range(v, v + sizes[i])
        v += sizes[i]
    edges = []
    for i in range(len(sizes)):
        j = (i + 1) % len(sizes)
        edges += [(u, w) for u in classes[i] for w in classes[j]]
    return from_edges(v, edges)


def _planted_triangle():
    # class 2 of a C5 blow-up is labeled last, and an edge inside it closes
    # triangles there; the first BFS, from class 0, meets the class 2-3
    # edges first, at depth 2
    g = _cycle_blowup([3, 2, 4, 2, 3], order=[0, 1, 3, 4, 2])
    rows = list(g.rows)
    rows[12] |= 1 << 13
    rows[13] |= 1 << 12
    return Graph(g.n, tuple(rows))


@pytest.mark.parametrize(
    "g, expected",
    [
        (disjoint_union(cycle_graph(5), complete_graph(3)), 3),
        (disjoint_union(cycle_graph(7), cycle_graph(5)), 5),
        (disjoint_union(_cycle_blowup([3, 2, 1, 2, 3]), cycle_graph(7)), 5),
        (_planted_triangle(), 3),
        (complete_bipartite(4, 6), None),
    ],
    ids=["C5-first+K3", "C7-first+C5", "C5-blowup-first+C7", "C5-blowup+planted-K3", "K4,6"],
)
def test_odd_girth_first_pass_unions(g, expected):
    """The BFS from the lowest labels meets a longer odd cycle first; each
    case needs the later sources to reach the true value."""
    assert odd_girth_oracle(g) == expected
    assert odd_girth(g) == expected
    assert is_triangle_free(g) == (expected != 3)


ORDERS = [0, 1, 2, 31, 32, 33, 63, 64, 65, 128, 129]


def _test_masks(rng, n):
    """Empty, full (one run up to the top bit), isolated bits at strides
    2 and 3, and random runs, isolated bits and masks."""
    full = (1 << n) - 1
    yield 0
    yield full
    yield full & sum(1 << v for v in range(0, n, 2))
    yield full & sum(1 << v for v in range(1, n, 3))
    for _ in range(8):
        lo, hi = sorted(rng.randrange(n + 1) for _ in range(2))
        yield (1 << hi) - (1 << lo)
        yield sum(1 << v for v in range(rng.randrange(2), n, rng.randint(2, 5)))
        yield rng.getrandbits(n) if n else 0


@pytest.mark.parametrize("n", ORDERS)
def test_spans_edge_vs_brute_force(n):
    """Whether a mask holds an edge, the check of each BFS layer in
    ``odd_girth``, by the union of its rows and by its 2-cliques."""
    rng = random.Random(20261020 + n)
    for p in (0.02, 0.1, 0.5):
        g = random_graph(rng, n, p)
        for mask in _test_masks(rng, n):
            members = list(graphs.bits(mask))
            expected = any(g.rows[u] >> v & 1 for i, u in enumerate(members) for v in members[:i])
            assert bool(graphs._row_union(g.rows, mask) & mask) == expected, (n, p, mask)
            assert (graphs.cliques_within(g.rows, mask, 2) > 0) == expected, (n, p, mask)


@pytest.mark.parametrize("n", ORDERS)
def test_run_union_vs_brute_force(n):
    """The union of the rows of a mask, over contiguous and scattered
    labels."""
    rng = random.Random(20261019 + n)
    for p in (0.05, 0.5):
        g = random_graph(rng, n, p)
        for mask in _test_masks(rng, n):
            union = 0
            for v in range(n):
                if mask >> v & 1:
                    union |= g.rows[v]
            assert graphs._row_union(g.rows, mask) == union, (n, p, mask)


def _census_vs_oracles(g, triangles=None):
    t = triangle_count_oracle(g)
    if triangles is not None:
        assert t == triangles, g.rows
    og = odd_girth_oracle(g)
    assert (og == 3) == (t > 0), g.rows
    assert triangle_count(g) == t, g.rows
    assert is_triangle_free(g) == (t == 0), g.rows
    assert odd_girth(g) == og, g.rows


def _bipartite(rng, n, p, contiguous):
    """A random bipartite graph on n vertices: sides are the low and the
    high half of the labels, or of random parity."""
    if contiguous:
        side = [2 * v >= n for v in range(n)]
    else:
        side = [rng.randrange(2) for _ in range(n)]
    return from_edges(n, [(u, v) for u in range(n) for v in range(u) if side[u] != side[v] and rng.random() < p])


@pytest.mark.parametrize("n", ORDERS)
def test_triangle_census_planted_at_the_ends(n):
    """One triangle on the three highest labels (found first) or on the
    three lowest (found last by the top-down scan), in bipartite graphs
    whose halves are runs or scattered labels, sparse and dense."""
    rng = random.Random(20261021 + n)
    for p in (0.05, 0.5):
        for contiguous in (True, False):
            if n < 3:
                _census_vs_oracles(_bipartite(rng, n, p, contiguous), 0)
                continue
            base = _bipartite(rng, n - 3, p, contiguous)
            _census_vs_oracles(base, 0)
            attach = base.rows[0] if base.n else 0  # the other side of vertex 0
            for first in (False, True):
                _census_vs_oracles(with_triangle(base, attach, first), 1)


@pytest.mark.parametrize("n", [n for n in ORDERS if n >= 31])
def test_triangle_census_twin_blowups_one_planted(n):
    """C5, C7 and bipartite blow-ups into twin classes, with classes on
    consecutive labels or scattered, and one triangle planted on three new
    vertices, one of them joined to a neighbourhood."""
    rng = random.Random(20261022 + n)
    bases = [cycle_graph(5), cycle_graph(7), complete_bipartite(3, 4)]
    for base in bases:
        sizes = class_sizes(rng, base.n, n - 3)
        for scatter in (None, rng):
            g = blow_up(base, sizes, scatter)
            _census_vs_oracles(g, 0)
            for first in (False, True):
                _census_vs_oracles(with_triangle(g, g.rows[0], first), 1)


def test_triangle_free_matches_count():
    rng = seeded_rng()
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 10), rng.random() * 0.5)
        assert is_triangle_free(g) == (triangle_count(g) == 0)


def test_triangle_count_twin_classes():
    # random blow-ups of 31 to 40 vertices into classes of false twins
    rng = random.Random(20261018)
    mixed = 0
    for _ in range(20000):
        g = random_blowup(rng, rng.randint(31, 40))
        t = triangle_count(g)
        assert t == triangle_count_oracle(g), g.rows
        assert is_triangle_free(g) == (t == 0), g.rows
        mixed += {1, 2, 3, 5} <= set(Counter(g.rows).values())
    # most graphs hold classes of 1, 2, 3 and 5 vertices at once
    assert mixed > 10000


@pytest.mark.parametrize(
    "g, expected",
    [
        (empty_graph(0), 0),
        (empty_graph(7), 0),
        (empty_graph(70), 0),
        (complete_graph(3), 1),
        (complete_graph(12), 220),
        (complete_graph(70), 54740),
        (complete_bipartite(5, 8), 0),
        (complete_bipartite(40, 33), 0),
    ],
    ids=["n0", "n7-empty", "n70-empty", "K3", "K12", "K70", "K5,8", "K40,33"],
)
def test_triangle_count_examples(g, expected):
    assert triangle_count(g) == triangle_count_oracle(g) == expected


@pytest.mark.parametrize("a, b", [(1, 2), (2, 2), (3, 5), (40, 33)])
def test_triangle_count_biclique_plus_edge(a, b):
    """An edge between two vertices of the b side of K_{a,b} closes a
    triangle with each of the a vertices, and splits the b side's class."""
    rows = list(complete_bipartite(a, b).rows)
    rows[a] |= 1 << (a + 1)
    rows[a + 1] |= 1 << a
    g = Graph(a + b, tuple(rows))
    assert triangle_count(g) == triangle_count_oracle(g) == a


def test_contains_subgraph_examples():
    assert not contains_subgraph(cycle_graph(5), complete_graph(3))
    assert contains_subgraph(complete_graph(4), cycle_graph(4))
    from turan_reg.constructions import build

    g = build("pentagon-blowup", n=23).graph
    assert not contains_subgraph(g, complete_graph(3))
    # per-edge common-neighbor cross-check
    assert all(not g.rows[u] & g.rows[v] for u, v in g.edges())


INJECTION_PATTERNS = [
    path_graph(4),
    cycle_graph(4),
    cycle_graph(5),
    complete_graph(3),
    star_graph(3),
    from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]),
]


def test_contains_subgraph_vs_injections():
    rng = seeded_rng()
    for _ in range(40):
        g = random_graph(rng, rng.randint(4, 8))
        h = INJECTION_PATTERNS[rng.randrange(len(INJECTION_PATTERNS))]
        assert contains_subgraph(g, h) == naive_contains(g, h)


def test_count_subgraph_embeddings_vs_injections():
    """Counting shares its backtracker with containment; the patterns of
    the containment test, a disconnected one and the empty one."""
    rng = seeded_rng()
    patterns = INJECTION_PATTERNS + [disjoint_union(complete_graph(3), path_graph(2)), empty_graph(0)]
    for h in patterns:
        for _ in range(8):
            g = random_graph(rng, rng.randint(0, 7))
            assert count_subgraph_embeddings(g, h) == naive_embedding_count(g, h), (g.rows, h.rows)


def test_empty_pattern():
    """The empty pattern has one embedding and is contained in every
    graph, the empty graph included, with any anchor."""
    for g in (empty_graph(0), empty_graph(3), complete_graph(4)):
        assert count_subgraph_embeddings(g, empty_graph(0)) == 1
        assert contains_subgraph(g, empty_graph(0))
        for a in range(g.n):
            assert graphs._embeddings(g, empty_graph(0), a, first=True) == 1


def test_embeddings_anchor():
    g = disjoint_union(complete_graph(3), empty_graph(2))
    k3 = complete_graph(3)
    assert graphs._embeddings(g, k3, 0, first=True) == 1
    assert graphs._embeddings(g, k3, 4, first=True) == 0


def test_count_cycles_examples():
    assert count_cycles(complete_graph(5), 5) == 12
    assert count_cycles(cycle_graph(6), 5) == 0
    assert count_cycles(complete_bipartite(3, 3), 4) == 9


def test_count_cycles_vs_naive():
    rng = seeded_rng()
    for _ in range(40):
        g = random_graph(rng, rng.randint(3, 8))
        for m in range(3, min(8, g.n) + 1):
            assert count_cycles(g, m) == naive_cycle_count(g, m), (g.rows, m)
    # the 5-cycle identity specifically, at full supported order
    for _ in range(15):
        g = random_graph(rng, rng.randint(9, 10))
        assert count_cycles(g, 5) == naive_cycle_count(g, 5)
    # past 8 vertices, where the length cap used to be
    for n in (9, 10):
        g = random_graph(rng, n, rng.uniform(0.5, 0.9))
        for m in range(9, n + 1):
            assert count_cycles(g, m) == naive_cycle_count(g, m), (g.rows, m)


def test_count_cycles_closed_forms():
    for n in range(61):
        k = complete_graph(n)
        assert count_cycles(k, 4) == 3 * math.comb(n, 4)
        assert count_cycles(k, 5) == 12 * math.comb(n, 5)
    for a in range(1, 25, 3):
        for b in range(a, 40, 4):
            kab = complete_bipartite(a, b)
            assert count_cycles(kab, 4) == math.comb(a, 2) * math.comb(b, 2)
            assert count_cycles(kab, 5) == 0


def _path_matrix(rows, length):
    """``path_counts`` unpacked, in the narrowest fields that hold n^2."""
    w = 2 * len(rows).bit_length()
    field = (1 << w) - 1
    return [[row >> (w * b) & field for b in range(len(rows))] for row in path_counts(rows, length, w)]


def test_path_counts_vs_naive():
    """Fields of 2 * bit_length(n) bits, the fewest that hold n^2, up to n = 300."""
    rng = seeded_rng()
    for n in (0, 1, 2, 5, 8, 15, 16, 17):
        for _ in range(4):
            g = random_graph(rng, n)
            for length in (2, 3):
                paths = _path_matrix(g.rows, length)
                naive = naive_path_counts(g, length)
                off = [(a, b) for a in range(n) for b in range(n) if a != b]
                assert [paths[a][b] for a, b in off] == [naive[a][b] for a, b in off], (g.rows, length)
    for n in (15, 16, 17, 255, 256, 300):
        p2, p3 = (_path_matrix(complete_graph(n).rows, length) for length in (2, 3))
        assert {p2[a][b] for a in range(n) for b in range(n) if a != b} == {n - 2}
        assert {p3[a][b] for a in range(n) for b in range(n) if a != b} == {(n - 2) * (n - 3)}
    with pytest.raises(GraphError):
        path_counts(complete_graph(4).rows, 4, 8)


def test_cycle_through_on_complete_graphs():
    """Every pair of a complete parent, the largest fold the packed C4
    and C5 counts make, for parents of 0 to 40 vertices."""
    c4, c5 = PatternCounter(cycle_graph(4)), PatternCounter(cycle_graph(5))
    for j in range(41):
        rows, s = complete_graph(j).rows, (1 << j) - 1
        pairs = math.comb(j, 2)
        assert c4.through(rows)(s) == pairs * max(j - 2, 0), j
        assert c5.through(rows)(s) == pairs * max(j - 2, 0) * max(j - 3, 0), j


def test_census_imports_no_numpy():
    import turan_reg

    code = (
        "import sys, turan_reg\n"
        "from helpers import petersen_graph\n"
        "from turan_reg.graphs import count_cycles, odd_girth\n"
        "assert count_cycles(petersen_graph(), 5) == 12\n"
        "assert odd_girth(petersen_graph()) == 5\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    src = str(Path(turan_reg.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    path = [src, tests, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_count_cycles_range_errors():
    with pytest.raises(GraphError):
        count_cycles(complete_graph(5), 2)


def test_count_stars():
    assert count_stars(cycle_graph(5), 2) == 5
    assert count_stars(complete_graph(4), 2) == 12
    assert count_stars(star_graph(4), 3) == 4
    with pytest.raises(GraphError):
        count_stars(cycle_graph(5), 0)


def test_count_complete_bipartite():
    assert count_complete_bipartite(complete_bipartite(2, 2), 2, 2) == 1
    assert count_complete_bipartite(complete_graph(4), 1, 1) == 6
    k33 = complete_bipartite(3, 3)
    assert count_complete_bipartite(k33, 2, 2) == 9
    assert count_complete_bipartite(k33, 2, 2) == count_cycles(k33, 4)


def test_graph6_decode_example():
    g = graph6_decode("D?{")
    assert g.n == 5
    assert sorted(g.edges()) == [(0, 4), (1, 4), (2, 4), (3, 4)]
    assert graph6_encode(g) == "D?{"


def test_graph6_empty_and_header():
    assert graph6_encode(Graph(1, (0,))) == "@"
    assert graph6_decode(">>graph6<<@").n == 1


def test_graph6_roundtrip():
    rng = seeded_rng()
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 20))
        assert graph6_decode(graph6_encode(g)) == g
    # long-form order encoding
    g = random_graph(rng, 70, 0.1)
    assert graph6_decode(graph6_encode(g)) == g


def test_graph6_malformed():
    for bad in ("", "D?", "D?{{", "D?\x1f", "~"):
        with pytest.raises(GraphError):
            graph6_decode(bad)
    # nonzero padding bits (order 3 leaves three pad bits)
    with pytest.raises(GraphError):
        graph6_decode("B" + chr(63 + 1))


def test_edge_list_roundtrip():
    g = from_edges(5, [(0, 1), (2, 4)])
    assert parse_edge_list(format_edge_list(g)) == g


def test_handshaking_invariant():
    rng = seeded_rng()
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 15))
        check_invariants(g)
        assert sum(map(int.bit_count, g.rows)) == 2 * g.edge_count
