import hashlib
import json
import random

import pytest

from helpers import (
    blowup_part_sizes_oracle,
    multipartite_rows_oracle,
    odd_girth_oracle,
    random_graph,
    triangle_count_oracle,
)

from turan_reg import constructions
from turan_reg.canon import canonical_form
from turan_reg.cli import load_suites, run_check
from turan_reg.constructions import (
    BUILDERS,
    ConstructionError,
    _bipartite_with_pairs,
    _blowup_part_sizes,
    _certify,
    _is_cycle,
    _maps_onto,
    _multipartite_decompose,
    _multipartite_grid,
    apex_construction,
    build,
    circulant_small_odd,
    grid,
    kbe_graph,
    multipartite_regular,
    odd_girth_blowup,
    odd_half_construction,
    star_forest_complement,
)
from turan_reg.formulas import conjectured_triangle_min, triangle_window
from turan_reg.graphs import (
    Graph,
    complete_graph,
    contains_subgraph,
    count_cycles,
    cycle_graph,
    from_edges,
    graph6_encode,
    induced_subgraph,
    is_triangle_free,
    odd_girth,
    relabel,
    triangle_count,
)


def test_pentagon_blowup():
    r = build("pentagon-blowup", n=25)
    assert r.graph.is_regular(10)
    assert is_triangle_free(r.graph)
    r = build("pentagon-blowup", n=23)
    assert r.certificate["params"]["part_sizes"] == [7, 4, 1, 4, 7]
    assert r.graph.is_regular(8)
    assert is_triangle_free(r.graph)
    with pytest.raises(ConstructionError):
        build("pentagon-blowup", n=13)
    with pytest.raises(ConstructionError):
        build("pentagon-blowup", n=24)


def test_pentagon_matches_closed_form():
    for n in (5, 11, 15, 17, 21, 35, 101):
        g = build("pentagon-blowup", n=n).graph
        assert g.is_regular(2 * (n // 5))


def test_blowup_part_sizes_vs_oracle():
    for ell in range(2, 13):
        for x in range(13):
            for y in range(x):
                assert _blowup_part_sizes(ell, x, y) == blowup_part_sizes_oracle(ell, x, y)


def test_bipartite_with_pairs_vs_edges():
    """K_{big,small} plus the pairs 2i -- 2i+1, for every pair count the
    big side holds."""
    for big in range(7):
        for small in range(5):
            cross = [(u, big + w) for u in range(big) for w in range(small)]
            for pairs in range(big // 2 + 1):
                edges = cross + [(2 * i, 2 * i + 1) for i in range(pairs)]
                rows = _bipartite_with_pairs(big, small, pairs)
                assert tuple(rows) == from_edges(big + small, edges).rows, (big, small, pairs)


def test_circulant_rows_vs_edges():
    """Row i of the circulant holds i +- d for each odd difference d."""
    for n in (5, 7, 9, 11, 13, 17, 19):
        r = circulant_small_odd(n)
        diffs = r.certificate["params"]["differences"]
        edges = [(i, (i + d) % n) for i in range(n) for d in diffs]
        assert r.graph.rows == from_edges(n, edges).rows, n


def test_circulant_small_odd():
    r = circulant_small_odd(7)
    assert canonical_form(r.graph) == canonical_form(cycle_graph(7))
    r = circulant_small_odd(11)
    assert r.graph.is_regular(4)
    assert is_triangle_free(r.graph)
    for bad in (15, 21, 4):
        with pytest.raises(ConstructionError):
            circulant_small_odd(bad)
    # every in-range order: the odd-difference bound keeps triangles out
    for n in (5, 7, 9, 11, 13, 17, 19):
        assert 3 * (2 * (n // 5) - 1) < n
        circulant_small_odd(n)


def test_odd_girth_blowup():
    r = odd_girth_blowup(37, 3)
    assert r.certificate["params"]["part_sizes"] == [5, 7, 5, 3, 5, 7, 5]
    assert r.graph.is_regular(10)
    assert odd_girth(r.graph) == 7
    assert not contains_subgraph(r.graph, cycle_graph(5))
    r = odd_girth_blowup(9, 4)
    assert canonical_form(r.graph) == canonical_form(cycle_graph(9))
    with pytest.raises(ConstructionError):
        odd_girth_blowup(9, 3)  # x = y = 1


def test_odd_girth_blowup_matches_pentagon():
    a = odd_girth_blowup(27, 2).graph
    b = build("pentagon-blowup", n=27).graph
    assert a.is_regular(10) and b.is_regular(10)
    assert odd_girth(a) == odd_girth(b) == 5


def test_apex_construction():
    r = apex_construction(13, 6)
    g = r.graph
    assert g.is_regular(6)
    apex = g.n - 1
    # every triangle uses the apex: count equals edges inside its neighborhood
    nb = g.rows[apex]
    inside = sum((g.rows[v] & nb).bit_count() for v in range(g.n) if (nb >> v) & 1) // 2
    assert triangle_count(g) == inside
    with pytest.raises(ConstructionError):
        apex_construction(11, 6)
    with pytest.raises(ConstructionError):
        apex_construction(13, 5)


def test_apex_window_small():
    n = 101
    k = 2 * (n // 5) + 2
    t = triangle_count(apex_construction(n, k).graph)
    assert n * n / 75 <= t <= n * n / 40


def test_multipartite_regular():
    r = multipartite_regular(14, 4)
    assert r.graph.is_regular(8)
    assert r.graph.n == 14
    assert r.certificate["params"]["parts"] == [4, 4, 6]
    r = multipartite_regular(25, 5)
    assert r.graph.is_regular(18)
    with pytest.raises(ConstructionError):
        multipartite_regular(9, 4)


@pytest.mark.parametrize(
    "name, args, stride",
    [
        ("triangle-min-extremal", {"k_max": 200}, 1),
        ("apex", {"n_max": 401}, 20),
        ("split-apex-equality", {"n_max": 401}, 20),
    ],
)
def test_triangle_count_builders_vs_oracle(name, args, stride):
    """Every ``stride``-th point of the sweep grid up to n = 401, and its
    last point, against the per-edge count on full rows."""
    points = list(grid(name, args))
    for params in points[::stride] + points[-1:]:
        g = build(name, **params).graph
        assert triangle_count(g) == triangle_count_oracle(g), params


def _no_census(monkeypatch):
    """Make the builders' census fallback fail the test, so that each
    certificate is proved by its part map."""

    def refuse(*args):
        raise AssertionError("the builder fell back to the census")

    for name in ("odd_girth", "triangle_count", "induced_subgraph"):
        monkeypatch.setattr(constructions, name, refuse)


def _measured(result, prop):
    return next(c["actual"] for c in result.certificate["checks"] if c["property"] == prop)


@pytest.mark.parametrize("name", ["pentagon-blowup", "odd-girth-blowup"])
def test_odd_girth_builders_vs_oracle(name, monkeypatch):
    """Every point of the sweep grid up to n = 301, and n = 401: the odd
    girth the part map and the exhibited cycle prove is the census value
    and that of a plain BFS from every vertex on the full rows."""
    _no_census(monkeypatch)
    if name == "pentagon-blowup":
        points = [*grid(name, {"n_max": 301}), {"n": 401}]
    else:
        points = list(grid(name, {"n_max": 301, "ell_max": 8}))
        points += [{"n": 401, "ell": ell} for ell in range(2, 9)]
    for params in points:
        res = build(name, **params)
        g = res.graph
        og = odd_girth_oracle(g)
        assert odd_girth(g) == og == 2 * params.get("ell", 2) + 1, params
        if name == "odd-girth-blowup":
            assert _measured(res, "odd-girth") == og, params
        assert is_triangle_free(g) == (og != 3) == _measured(res, "triangle-free"), params


@pytest.mark.parametrize(
    "name, args",
    [
        ("apex", {"n_max": 301}),
        ("split-apex-equality", {"n_max": 301}),
        ("triangle-min-extremal", {"k_max": 150}),
    ],
)
def test_apex_map_check_vs_census(name, args, monkeypatch):
    """Every point of the sweep grid up to n = 301: the triangle count
    that the map of the rows off the apex onto K2 gives is the census
    count, and the graph off the apex is bipartite by the census too."""
    _no_census(monkeypatch)
    for params in grid(name, args):
        res = build(name, **params)
        g = res.graph
        assert _measured(res, "triangles") == triangle_count(g), params
        if name == "apex":
            assert _measured(res, "apex-deleted-bipartite") is None
            assert odd_girth(induced_subgraph(g, g.n - 1)) is None, params


def _switched(rows, a, b, c, d):
    """The rows with the edges ac and bd replaced by ab and cd, which
    keeps every degree."""
    rows = list(rows)
    for u, v, present in ((a, c, 1), (b, d, 1), (a, b, 0), (c, d, 0)):
        assert rows[u] >> v & 1 == present, (u, v)
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
    return rows


def test_map_check_refuses_an_edge_inside_a_part(monkeypatch):
    """One edge inside a part, beside one inside the next part so that
    the graph stays regular: a blow-up is refused under its odd girth and
    an apex graph under its bipartite rows off the apex.  The refusal
    names the census value."""
    build_blowup = constructions._build_cycle_blowup

    def blowup_with_edge(sizes, removed):
        g, cycle = build_blowup(sizes, removed)
        a, c = 0, sizes[0]  # the first two vertices of parts 0 and 1
        return Graph(g.n, tuple(_switched(g.rows, a, a + 1, c, c + 1))), cycle

    monkeypatch.setattr(constructions, "_build_cycle_blowup", blowup_with_edge)
    for name, params in (("odd-girth-blowup", {"n": 37, "ell": 3}), ("pentagon-blowup", {"n": 23})):
        with pytest.raises(ConstructionError, match=r"'odd-girth' violated .* measured 3\)") as exc:
            build(name, **params)
        assert exc.value.prop == "odd-girth"

    apex_rows = constructions._apex_rows

    def apex_with_edge(p, half, q):
        rows = apex_rows(p, half, q)
        c = next(v for v in range(p, 2 * p) if rows[0] >> v & 1)
        d = next(v for v in range(p, 2 * p) if rows[1] >> v & 1 and v != c)
        return _switched(rows, 0, 1, c, d)

    monkeypatch.setattr(constructions, "_apex_rows", apex_with_edge)
    with pytest.raises(ConstructionError, match="'apex-deleted-bipartite' violated") as exc:
        apex_construction(13, 6)
    assert exc.value.prop == "apex-deleted-bipartite"


@pytest.mark.parametrize("n", [0, 1, 2, 31, 32, 33, 63, 64, 65, 128, 129])
def test_maps_onto_vs_brute_force(n):
    """Random graphs cut into random runs of labels, given by their sizes,
    each cut checked against the graph of the parts it spans (with and
    without its loops), that graph less one arc, and random targets,
    which need not be symmetric: the map holds iff each edge uv has the
    part of v next to the part of u in the target and the part of u next
    to the part of v."""
    rng = random.Random(20261020 + n)
    seen = set()
    for p in (0.02, 0.1, 0.5):
        g = random_graph(rng, n, p)
        for _ in range(8):
            ends = [0, *sorted(rng.sample(range(1, n), min(n - 1, rng.randint(0, 6)))), n] if n else [0, 0]
            sizes = [b - a for a, b in zip(ends, ends[1:])]
            where = [i for i, size in enumerate(sizes) for _ in range(size)]
            m = len(sizes)
            spanned = [0] * m
            for u, v in g.edges():
                spanned[where[u]] |= 1 << where[v]
                spanned[where[v]] |= 1 << where[u]
            less = list(spanned)
            i = rng.randrange(m)
            less[i] &= less[i] - 1
            loopless = [r & ~(1 << i) for i, r in enumerate(spanned)]
            for target in (spanned, loopless, less, [rng.getrandbits(m) for _ in range(m)]):
                expected = all(
                    target[where[u]] >> where[v] & 1 and target[where[v]] >> where[u] & 1
                    for u, v in g.edges()
                )
                assert _maps_onto(g.rows, sizes, target) == expected, (n, p, sizes, target)
                seen.add(expected)
    assert seen == {True, False} or n < 2


def test_part_map_check_refuses_bad_certificates():
    """A part map's sizes must sum to the order, and it must keep each
    part's rows inside the parts next to it; a cycle must have distinct
    vertices joined in turn."""
    c6 = cycle_graph(6).rows
    k2 = complete_graph(2).rows
    assert _maps_onto(c6, [6], complete_graph(1).rows) is False
    assert _maps_onto(cycle_graph(4).rows, [2, 2], k2) is False
    c5 = cycle_graph(5).rows
    assert _maps_onto(c5, [1] * 5, c5)
    empty = (0,) * 5
    assert _maps_onto(empty, [2, 3], k2)
    for sizes in ([2, 2], [3, 3], [5, 1], [4]):
        assert not _maps_onto(empty, sizes, k2), sizes
    assert _is_cycle(c5, [0, 1, 2, 3, 4]) and _is_cycle(c5, [4, 3, 2, 1, 0])
    assert not _is_cycle(c5, [0, 1, 2, 3])  # 3 and 0 are not adjacent
    assert not _is_cycle(c5, [0, 1, 0])
    assert not _is_cycle(c5, [0, 1])


def test_odd_girth_apex_vs_oracle():
    """Every 10th apex point up to n = 301, and its last: the graph has
    triangles and the graph off the apex is bipartite."""
    points = list(grid("apex", {"n_max": 301}))
    for params in points[::10] + points[-1:]:
        g = apex_construction(**params).graph
        off_apex = induced_subgraph(g, g.n - 1)
        assert odd_girth(g) == odd_girth_oracle(g) == 3, params
        assert odd_girth(off_apex) is odd_girth_oracle(off_apex) is None, params
        assert not is_triangle_free(g) and is_triangle_free(off_apex), params


def test_multipartite_y_factor_guard(monkeypatch):
    """A schedule that repeats a pair is refused, not built.  For (14, 4)
    the core is K_{4,4}, and with two parts shift 3 takes back shift 1's
    pairs."""
    from turan_reg import constructions

    monkeypatch.setattr(constructions, "_core_y_factor_layers", lambda t, x, y: ([1, 3], False))
    with pytest.raises(ConstructionError, match="y-factor touched a non-edge") as exc:
        multipartite_regular(14, 4)
    assert exc.value.prop == "y-factor"
    # (19, 5) has x = 4, odd y = 3 and three parts: shift x/2 = 2 beside
    # the half-shift matching repeats the matching's pairs
    monkeypatch.setattr(constructions, "_core_y_factor_layers", lambda t, x, y: ([2], True))
    with pytest.raises(ConstructionError, match="y-factor touched a non-edge") as exc:
        multipartite_regular(19, 5)
    assert exc.value.prop == "y-factor"
    with pytest.raises(ConstructionError, match="y-factor touched a non-edge"):
        multipartite_rows_oracle(19, 5)


def _refusal(fn, *args):
    try:
        return fn(*args)
    except ConstructionError as exc:
        return str(exc), exc.prop


def test_multipartite_rows_vs_oracle():
    """At every point of the sweep grid up to n = 301, the mask pass
    gives the rows of the per-layer, per-vertex construction, or the same
    refusal."""
    refused = 0
    for params in _multipartite_grid(301):
        n, r = params["n"], params["r"]
        built = _refusal(lambda: multipartite_regular(n, r).graph.rows)
        assert built == _refusal(multipartite_rows_oracle, n, r), params
        refused += isinstance(built[0], str)
    assert refused == 25


def _relabelled(rng, g):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return relabel(g, perm)


def test_odd_girth_relabelled_vs_oracle():
    """Odd-girth blow-ups (ell = 3..5) and apex graphs under random
    labels, so that parts, twin classes and BFS layers are scattered
    labels and each layer's union is read over many short runs."""
    rng = random.Random(20261019)
    graphs = []
    for ell in (3, 4, 5):
        points = [p for p in grid("odd-girth-blowup", {"n_max": 121, "ell_max": ell}) if p["ell"] == ell]
        for params in rng.sample(points, 4):
            graphs.append((params, odd_girth_blowup(**params).graph))
    for params in rng.sample(list(grid("apex", {"n_max": 61})), 6):
        g = apex_construction(**params).graph
        graphs += [(params, g), (params, induced_subgraph(g, g.n - 1))]
    for params, g in graphs:
        h = _relabelled(rng, g)
        assert odd_girth(h) == odd_girth_oracle(h) == odd_girth(g), params
        assert is_triangle_free(h) == is_triangle_free(g), params


def test_multipartite_decompose_fits_core():
    """The core K_{x,..,x} on r - 2 parts has degree (r - 3)x, so it can
    lose a y-factor only for y <= (r - 3)x.  The earlier rule (r - 2)x > y
    admitted six grid points with no such x; every other point keeps the
    (x, y) that rule chose."""

    def earlier_rule(n, r):
        for x in range(n // (r - 1) - (n // (r - 1)) % 2, 0, -2):
            y = n - (r - 1) * x
            if 0 <= y <= 2 * r - 3 and (r - 2) * x > y:
                return x, y
        return None

    over_core = {(9, 4), (17, 4), (13, 5), (17, 6), (21, 7), (25, 8)}
    for r in range(4, 9):
        for n in range(3 * (r - 1), 302):
            earlier = earlier_rule(n, r)
            if earlier is not None and (n, r) not in over_core:
                assert _multipartite_decompose(n, r) == earlier, (n, r)
                continue
            with pytest.raises(ConstructionError, match="no valid even-x") as err:
                _multipartite_decompose(n, r)
            assert err.value.prop is None
            assert (earlier is not None) == ((n, r) in over_core), (n, r)


def test_kbe_graph():
    r = kbe_graph(1, 1)
    assert canonical_form(r.graph) == canonical_form(complete_graph(3))
    assert kbe_graph(2, 2).graph.edge_count == 10
    for t in (1, 2, 3):
        assert contains_subgraph(kbe_graph(t, t).graph, complete_graph(3))
    with pytest.raises(ConstructionError):
        kbe_graph(2, 5)


def test_odd_half_construction():
    r = odd_half_construction(9)
    assert r.graph.is_regular(4)
    r = odd_half_construction(7)
    assert r.graph.is_regular(4)
    # x odd gives exactly the bipartite-plus-matching graph
    assert canonical_form(r.graph) == canonical_form(kbe_graph(2, 3).graph)
    for n in range(5, 40, 2):
        res = odd_half_construction(n)
        x = (n - 1) // 2
        assert res.graph.is_regular(x + 1 if x % 2 else x)


def test_triangle_min_extremal():
    r = build("triangle-min-extremal", k=4)
    assert r.graph.n == 9 and triangle_count(r.graph) == 2
    r = build("triangle-min-extremal", k=6)
    assert r.graph.n == 13 and triangle_count(r.graph) == 6
    with pytest.raises(ConstructionError):
        build("triangle-min-extremal", k=3)
    for k in range(4, 24, 2):
        g = build("triangle-min-extremal", k=k).graph
        assert triangle_count(g) == conjectured_triangle_min(2 * k + 1, k)


def test_split_apex_equality():
    r = build("split-apex-equality", n=9, k=4)
    assert canonical_form(r.graph) == canonical_form(build("triangle-min-extremal", k=4).graph)
    r = build("split-apex-equality", n=13, k=6)
    assert triangle_count(r.graph) == conjectured_triangle_min(13, 6) == 6
    with pytest.raises(ConstructionError):
        build("split-apex-equality", n=11, k=4)


def test_star_forest_complement():
    r = star_forest_complement(9, [8])
    assert count_cycles(r.graph, 5) == 672
    r = star_forest_complement(10, [1] * 5)
    assert r.graph.is_regular(8)
    with pytest.raises(ConstructionError):
        star_forest_complement(9, [5])
    with pytest.raises(ConstructionError):
        star_forest_complement(6, [0, 4])


def test_certify_names_property():
    from turan_reg.graphs import empty_graph

    with pytest.raises(ConstructionError) as err:
        _certify("demo", {}, empty_graph(2), [("order", 3, 2)])
    assert err.value.prop == "order"
    assert "order" in str(err.value)


def test_certificates_are_json():
    for name, params in [
        ("pentagon-blowup", {"n": 25}),
        ("apex", {"n": 13, "k": 6}),
        ("multipartite-regular", {"n": 14, "r": 4}),
        ("odd-half", {"n": 9}),
        ("star-forest-complement", {"n": 9, "parts": [8]}),
    ]:
        res = build(name, **params)
        text = json.dumps(res.certificate)
        assert json.loads(text)["name"] == name
        assert all(c["ok"] for c in res.certificate["checks"])


def test_build_registry():
    assert set(BUILDERS) >= {
        "pentagon-blowup",
        "circulant-small-odd",
        "odd-girth-blowup",
        "apex",
        "multipartite-regular",
        "kbe",
        "odd-half",
        "triangle-min-extremal",
        "split-apex-equality",
        "star-forest-complement",
    }
    with pytest.raises(ConstructionError):
        build("unknown-thing")
    with pytest.raises(ConstructionError):
        build("apex", n=13)


def test_build_refuses_unknown_parameter():
    """A parameter the builder does not take is refused, not ignored."""
    with pytest.raises(ConstructionError, match=r"kbe takes parameters \['x', 'y'\], not \['n'\]"):
        build("kbe", x=2, y=1, n=5)
    with pytest.raises(ConstructionError, match=r"not \['ell'\]"):
        build("pentagon-blowup", n=25, ell=2)


# graph6 SHA-256 over each sweep grid, and the properties each
# certificate listed.  The four names apex to pentagon-blowup were
# computed when each had a builder of its own; one builder now serves the
# three apex names and the odd-girth blow-up serves the pentagon.  The
# other six were computed before their rotational deletions shared one
# helper.  A point the builder refuses hashes as "! <error text>".
GOLDEN = {
    "apex": (
        {"n_max": 301, "spots": [101, 501, 1001]},
        1128,
        "84531e4ddd4c5d1d362a98b70f1c0040e9d08a499ab2559fd6c34e6f38ab48a2",
        {"order", "regular", "apex-deleted-bipartite", "triangles"},
    ),
    "split-apex-equality": (
        {"n_max": 201},
        500,
        "cf44ea7a6e6154042f773f73323aafb7823997b342d54159264632bde7f035f0",
        {"order", "regular", "triangles"},
    ),
    "triangle-min-extremal": (
        {"k_max": 200, "spots": [998]},
        100,
        "136e99f1d50709972064ba41b396109204058a368578073f13ae4bbfbab7b368",
        {"order", "regular", "triangles"},
    ),
    "pentagon-blowup": (
        {"n_max": 401},
        195,
        "dde863dea550cf346f72b0cbc65be4a4c8af483592b1c23e1a8923001914a643",
        {"order", "regular", "degree", "triangle-free"},
    ),
    "odd-girth-blowup": (
        {"n_max": 301, "ell_max": 8, "spots": [[999, 2], [999, 3], [1001, 5]]},
        822,
        "3c08ba5d1e12fcbab09909a1c3592eac9c604c85e855cadfe53fb9e6d2065a84",
        {"order", "regular", "degree", "odd-girth", "triangle-free"},
    ),
    "circulant-small-odd": (
        {},
        7,
        "238b381d159b7b0139e1a3cf7b8cecb5de45f721e71e9615270ecb5cc8e6c660",
        {"order", "regular", "degree", "triangle-free"},
    ),
    "multipartite-regular": (
        {"n_max": 301, "r_max": 8},
        1419,
        "e9f3f682acfa2c38383e34f0611aaf0971a64854ff06aa67527a0a41d3a8c149",
        {"order", "regular", "degree", "parts-stable"},
    ),
    "kbe": (
        {"x_max": 8},
        80,
        "e036352a5aff50bfbf797f3662fe804b1b83747845f4fbf24c2e178dcc252cbc",
        {"order", "size"},
    ),
    "odd-half": (
        {"n_max": 401},
        199,
        "a9d207e8d130ed746da5a8535a8e7f5e642e8aa2325c76e91dae06cd74acf19f",
        {"order", "regular", "degree", "kbe-subgraph"},
    ),
    "star-forest-complement": (
        {"n_max": 12},
        76,
        "22bf76c892aa20ff3584b008d6e77ab98641165359d571fa27dd507c09e8dfc6",
        {"order", "max-degree-bound"},
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_merged_builders_golden(name):
    """The graph6 line of every grid point hashes to the pinned value;
    each certificate still lists the pinned properties, all ok, under the
    registry name."""
    args, count, digest, props = GOLDEN[name]
    h = hashlib.sha256()
    points = list(grid(name, args))
    for params in points:
        try:
            res = build(name, **params)
        except ConstructionError as exc:
            assert exc.prop is None, params  # refused, never a failed certificate
            h.update(f"! {exc}\n".encode())
            continue
        h.update(graph6_encode(res.graph).encode() + b"\n")
        cert = res.certificate
        assert cert["name"] == name, params
        assert props <= {c["property"] for c in cert["checks"]}, params
        assert all(c["ok"] for c in cert["checks"]), params
    assert len(points) == count
    assert h.hexdigest() == digest


def test_apex_schedule_guard_is_slack():
    """Inside the window k >= (n+1)/3, so the q+1 rotations on the apex's
    neighbor blocks always fit in k/2 positions."""
    for n in range(9, 6002, 2):
        for k in range(2 * (n // 5) + 2, 2 * (n // 4) + 1, 2):
            assert k in triangle_window(n)
            assert (n - 1) // 2 - k + 1 <= k // 2, (n, k)


def test_registry_and_sweep_grids_agree():
    """Every builder has a constructions-suite check, every sweep check
    names a registered builder, and each grid yields a point for the
    arguments its check gives it."""
    suites = load_suites()
    sweeps = [
        check["args"]
        for suite in suites.values()
        for check in suite["checks"]
        if check["op"] == "construction_sweep"
    ]
    suite_names = {check["args"]["name"] for check in suites["constructions"]["checks"]}
    assert suite_names == set(BUILDERS)
    for args in sweeps:
        args = dict(args)
        name = args.pop("name")
        assert name in BUILDERS
        assert next(grid(name, args), None) is not None, name
    with pytest.raises(ConstructionError, match="unknown construction"):
        grid("unknown-thing", {})


@pytest.mark.parametrize(
    "name, args, takes",
    [
        ("odd-girth-blowup", {"n_max": 301, "ell_mx": 8}, "n_max, ell_max, spots"),
        ("kbe", {"xmax": 8}, "x_max"),
        ("apex", {"spots": [101]}, "n_max, spots"),
        ("circulant-small-odd", {"n_max": 19}, "no arguments"),
    ],
    ids=["misspelt", "misspelt-default-only", "missing", "takes-none"],
)
def test_sweep_grid_refuses_bad_arguments(name, args, takes):
    """A sweep argument the grid does not take, or a missing one, is
    refused before any point is built, not read as its default, and the
    refusal names the arguments the grid takes."""
    with pytest.raises(ConstructionError, match=f"{name} sweep grid: ") as exc:
        grid(name, args)
    assert str(exc.value).endswith(f"(takes {takes})")
    assert "<lambda>" not in str(exc.value)
    check = {"op": "construction_sweep", "args": {"name": name, **args}, "expect": None}
    with pytest.raises(ConstructionError, match="sweep grid"):
        run_check(check, {"jobs": 1, "seed": 0})
