import hashlib
import os
import random
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

from helpers import (
    all_labeled_graphs,
    brute_orbit_partition,
    child_ok_oracle,
    degree_cells,
    disjoint_union,
    graph_leaf,
    ir_leaves,
    random_graph_with_twins,
    split_round,
    targeted_search_graphs,
)

import turan_reg
from turan_reg import canon, enumeration, graphs, parallel
from turan_reg.canon import (
    _refine,
    _search,
    _split,
    canon_core,
    canonical_form,
    orbits_from_generators,
)
from turan_reg.enumeration import (
    EnumerationError,
    GenFilter,
    GenStats,
    _accept,
    _attachment_reps,
    _child_degrees,
    _degree_classes,
    _degree_stage,
    _extend,
    _one_orbit,
    _Run,
    enumerate_graphs,
)
from turan_reg.graphs import (
    CliqueTotal,
    Graph,
    PatternCounter,
    bits,
    complement,
    complete_graph,
    contains_subgraph,
    count_cliques,
    count_cycles,
    cycle_graph,
    extend_graph,
    from_edges,
    graph6_encode,
    is_connected,
    relabel,
    total_cliques,
)
from turan_reg.search import HSpec, exr_exact, max_copies_free

KNOWN_CLASS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


def collect(filt, **kw):
    out = []
    stats = enumerate_graphs(filt, leaf=graph_leaf(out.append), **kw)
    return out, stats


def test_class_counts():
    for n, expect in KNOWN_CLASS_COUNTS.items():
        stats = enumerate_graphs(GenFilter(n=n))
        assert stats.classes == expect, n


def test_completeness_vs_brute_force():
    # emitted set == all labeled graphs canonicalized, exhaustively to n=6
    for n in range(1, 7):
        emitted, _ = collect(GenFilter(n=n))
        emitted_certs = {canon_core(g.rows, g.n)[1] for g in emitted}
        brute_certs = {canon_core(g.rows, g.n)[1] for g in all_labeled_graphs(n)}
        assert emitted_certs == brute_certs
        assert len(emitted) == len(emitted_certs)


def test_no_duplicates_by_label():
    for n in (6, 7):
        emitted, _ = collect(GenFilter(n=n))
        labels = {canonical_form(g) for g in emitted}
        assert len(labels) == len(emitted)


def _max_degree(g):
    return max(map(int.bit_count, g.rows))


def test_filter_pushdown_soundness():
    # pruned runs agree with a full run post-filtered, per filter kind and
    # in both orders, whose windows bound the attachment sizes differently
    for n in (5, 6, 7, 8):
        full, _ = collect(GenFilter(n=n))
        cases = [
            (GenFilter(n=n, max_degree=3), lambda g: _max_degree(g) <= 3),
            (GenFilter(n=n, edge_count=7), lambda g: g.edge_count == 7),
            (
                GenFilter(n=n, edge_count=n + 1, max_degree=3),
                lambda g: g.edge_count == g.n + 1 and _max_degree(g) <= 3,
            ),
            (GenFilter(n=n, regular_k=2), lambda g: g.is_regular(2)),
            (GenFilter(n=n, regular_k=3), lambda g: g.is_regular(3)),
            (GenFilter(n=n, regular_k=4), lambda g: g.is_regular(4)),
            (
                GenFilter(n=n, forbidden=(complete_graph(3),)),
                lambda g: not contains_subgraph(g, complete_graph(3)),
            ),
            (GenFilter(n=n, connected=True), is_connected),
        ]
        for filt, predicate in cases:
            want_labels = {canonical_form(g) for g in full if predicate(g)}
            for desc in (False, True):
                got, _ = collect(filt, desc=desc)
                got_labels = {canonical_form(g) for g in got}
                assert got_labels == want_labels, (n, filt, desc)


def test_determinism():
    a, _ = collect(GenFilter(n=6))
    b, _ = collect(GenFilter(n=6))
    assert [g.rows for g in a] == [g.rows for g in b]


def test_dual_orders_agree():
    for n in range(1, 8):
        asc, _ = collect(GenFilter(n=n))
        desc, _ = collect(GenFilter(n=n), desc=True)
        assert {canonical_form(g) for g in asc} == {canonical_form(g) for g in desc}
    asc, desc = [], []
    filt = GenFilter(n=10, regular_k=4)
    enumerate_graphs(filt, leaf=graph_leaf(lambda g: asc.append(canonical_form(g))))
    enumerate_graphs(filt, leaf=graph_leaf(lambda g: desc.append(canonical_form(g))), desc=True)
    assert len(asc) == len(desc) == 60
    assert set(asc) == set(desc)


# SHA-256 of the emitted graph6 lines, each ending in a newline, and the
# class count: pinned so that a change in the candidate or acceptance
# order shows, not only a change in the emitted set.
ORDER_GOLDENS = {
    "max-degree-8-4": (
        lambda visit: enumerate_graphs(GenFilter(n=8, max_degree=4), leaf=graph_leaf(visit)),
        "b642d27f23d4f852c31af94071d02bc13fc6950ec0a216d0b61c341ac37d3a59",
        2590,
    ),
    "edges-max-degree-8-12-4": (
        lambda visit: enumerate_graphs(
            GenFilter(n=8, edge_count=12, max_degree=4), leaf=graph_leaf(visit)
        ),
        "84cfb16b236c8f42b72ff6b56123b726f87390c6841e5119e35a38bbd2029fc9",
        465,
    ),
    "regular-10-4": (
        lambda visit: enumerate_graphs(GenFilter(n=10, regular_k=4), leaf=graph_leaf(visit)),
        "35ae8be05e217ec8bab5a7cfca900ccb353e8ab9327901f387c54bb732f4406c",
        60,
    ),
    "max-degree-8-4-desc": (
        lambda visit: enumerate_graphs(
            GenFilter(n=8, max_degree=4), leaf=graph_leaf(visit), desc=True
        ),
        "da3f9b4eda84c6dce73dedd2a9034ea9e6b6131fe3ce966df151cdc27b8a058c",
        2590,
    ),
    "regular-10-4-desc": (
        lambda visit: enumerate_graphs(
            GenFilter(n=10, regular_k=4), leaf=graph_leaf(visit), desc=True
        ),
        "f7e9f2e94ee91a19525fccbd1321ca8d35c9e2273d74762384bc7b41b3943eb7",
        60,
    ),
    "regular-10-3-K3": (
        lambda visit: enumerate_graphs(
            GenFilter(n=10, regular_k=3, forbidden=(complete_graph(3),)), leaf=graph_leaf(visit)
        ),
        "427a8705c2d2ee4b8f0a53101b4e4ea7db8a3209d227eaf0bf54d3a620352b72",
        6,
    ),
}


@pytest.mark.parametrize("case", sorted(ORDER_GOLDENS))
def test_emission_order_golden(case):
    run, digest, count = ORDER_GOLDENS[case]
    h = hashlib.sha256()
    lines = []

    def visit(g):
        line = graph6_encode(g).encode("ascii") + b"\n"
        h.update(line)
        lines.append(line)

    run(visit)
    assert (h.hexdigest(), len(lines)) == (digest, count)


def _orbit_minima(j, gens, sets):
    """Smallest member of each orbit of Aut on ``sets``, by closure."""
    left = set(sets)
    minima = []
    while left:
        s = min(left)
        minima.append(s)
        orbit, frontier = {s}, [s]
        while frontier:
            t = frontier.pop()
            for a in gens:
                u = sum(1 << a[v] for v in range(j) if (t >> v) & 1)
                if u not in orbit:
                    orbit.add(u)
                    frontier.append(u)
        assert orbit <= left
        left -= orbit
    return minima


WINDOW_FILTERS = {
    "max-degree": GenFilter(n=8, max_degree=3),
    "edges-max-degree": GenFilter(n=8, edge_count=10, max_degree=3),
    "regular": GenFilter(n=10, regular_k=3),
    "regular-forced": GenFilter(n=9, regular_k=4),
}


@pytest.mark.parametrize(
    "case", sorted(WINDOW_FILTERS) + [f"{case}-desc" for case in sorted(WINDOW_FILTERS)]
)
def test_window_matches_oracle(case):
    # every parent of the tree, at every depth and in both orders: the
    # window admits exactly the subsets the per-candidate test admits, and
    # yields their orbit minima in increasing order
    desc = case.endswith("-desc")
    filt = WINDOW_FILTERS[case.removesuffix("-desc")]
    parents = forced_parents = 0
    for j in range(1, filt.n):
        run = _Run(filt, None, desc, split=j)
        run.descend((0,), 1, [], 0)
        for rows, gens, edges, _ in run.seeds:
            want = [
                s for s in range(1 << j) if child_ok_oracle(filt, rows, j, s, edges, desc)
            ]
            window = run.window(j, edges, _degree_classes(rows))
            got = list(_attachment_reps(j, [], window)) if window else []
            assert got == want, (rows, j)
            reps = list(_attachment_reps(j, gens, window)) if window else []
            assert reps == _orbit_minima(j, gens, want), (rows, j)
            parents += 1
            k = filt.regular_k
            if window and k is not None:
                # a vertex short of n - j edges must take the new vertex
                forced_parents += any(k - row.bit_count() == filt.n - j for row in rows)
    assert parents > 50
    if filt is WINDOW_FILTERS["regular-forced"]:
        assert forced_parents > 0


def _completes(filt, rows, edges, desc, memo):
    """Whether some run of sets that the per-candidate test admits without
    its completion conditions grows ``rows`` to n vertices: every labelled
    descent, with no canonical acceptance, so every leaf the generator
    could reach under the window without its completion bounds.  The test
    reads degrees only, so the answer depends on the sorted degrees."""
    j = len(rows)
    if j == filt.n:
        return True
    key = tuple(sorted(row.bit_count() for row in rows))
    if key not in memo:
        memo[key] = any(
            _completes(filt, _extend(rows, j, s), edges + s.bit_count(), desc, memo)
            for s in range(1 << j)
            if child_ok_oracle(filt, rows, j, s, edges, desc, completion=False)
        )
    return memo[key]


DEAD_SUBTREE_FILTERS = [
    GenFilter(n=n, regular_k=k) for k in (2, 3, 4) for n in range(k + 1, 10) if n * k % 2 == 0
] + [
    GenFilter(n=n, edge_count=m, max_degree=r)
    for n in range(4, 9)
    for m in (n - 1, n + 1, 2 * n - 2)
    for r in (None, 3)
]


@pytest.mark.parametrize("desc", [False, True], ids=["asc", "desc"])
def test_completion_bounds_cut_only_dead_subtrees(desc):
    # every set that the window without its completion bounds admits and
    # the window cuts, at every parent of the tree: no descent from it
    # reaches a leaf, so the bounds change no emitted graph
    cut = 0
    for filt in DEAD_SUBTREE_FILTERS:
        memo = {}
        emits = enumerate_graphs(filt, desc=desc).classes > 0
        assert _completes(filt, (0,), 0, desc, memo) == emits, filt
        for j in range(1, filt.n):
            run = _Run(filt, None, desc, split=j)
            run.descend((0,), 1, [], 0)
            for rows, _, edges, _ in run.seeds:
                window = run.window(j, edges, _degree_classes(rows))
                kept = set(_attachment_reps(j, [], window)) if window else set()
                for s in range(1 << j):
                    if s in kept or not child_ok_oracle(
                        filt, rows, j, s, edges, desc, completion=False
                    ):
                        continue
                    cut += 1
                    child = _extend(rows, j, s)
                    assert not _completes(filt, child, edges + s.bit_count(), desc, memo), (
                        filt, rows, s
                    )
    assert cut > 1000


def test_refine_keep_exact():
    # also from the degree partition, every cell active but the last: the
    # one-cell start gives the same result in every case
    for n in range(1, 6):
        one = [(1 << n) - 1]
        for g in all_labeled_graphs(n):
            for desc in (False, True):
                full = _refine(g.rows, n, one, desc)
                cells = degree_cells(g.rows, desc)
                active = range(len(cells) - 1)
                for v in range(n):
                    got = _refine(g.rows, n, one, desc, keep=v)
                    alone = _refine(g.rows, n, one, desc, keep=v, alone=True)
                    assert _refine(g.rows, n, cells, desc, keep=v, active=active) == got
                    assert (
                        _refine(g.rows, n, cells, desc, keep=v, active=active, alone=True)
                        == alone
                    )
                    if full[-1] >> v & 1:
                        assert got == full
                        if full[-1] == 1 << v:
                            assert alone[-1] == 1 << v
                        else:
                            assert alone == full
                    else:
                        assert got is None and alone is None


def _one_cell_accept(rows, desc, leaf):
    """Acceptance refined from the one-cell partition, with no stage
    before it: the oracle for ``_accept``."""
    nc = len(rows)
    j = nc - 1
    cells = _refine(rows, nc, [(1 << nc) - 1], desc, keep=j, alone=leaf)
    if cells is None:
        return False, None
    if len(cells) == nc or (leaf and cells[-1] == 1 << j):
        return True, []
    perm, _, autos = _search(rows, nc, cells, desc)
    orb = orbits_from_generators(nc, autos)
    return orb[perm[-1]] == orb[j], autos


STAGE_FILTERS = {
    "n7": GenFilter(n=7),
    "max-degree": GenFilter(n=8, max_degree=4),
    "regular": GenFilter(n=8, regular_k=3),
}


@pytest.mark.parametrize(
    "case", sorted(STAGE_FILTERS) + [f"{case}-desc" for case in sorted(STAGE_FILTERS)]
)
def test_degree_stage_matches_refine(case):
    # every attachment rep of every parent, in both orders: the stage,
    # read from the parent, rejects exactly when two full splitting
    # rounds from one cell move the new vertex out of the last cell, so
    # refining would return None; it reads off the degree cells and the
    # round-2 split of the last one, and whether j is then alone there;
    # the round-2 partition it hands on is the full second round; and
    # acceptance decides as refining from one cell does, with the same
    # generators for a child that is not a leaf (a leaf's are never read)
    desc = case.endswith("-desc")
    filt = STAGE_FILTERS[case.removesuffix("-desc")]
    verdicts = {"reject": 0, "alone": 0, "refine": 0}
    for j in range(1, filt.n):
        run = _Run(filt, None, desc, split=j)
        run.descend((0,), 1, [], 0)
        for rows, gens, edges, _ in run.seeds:
            classes = _degree_classes(rows)
            window = run.window(j, edges, classes)
            if window is None:
                continue
            degrees = _child_degrees(classes, desc)
            for s in _attachment_reps(j, gens, window):
                child = _extend(rows, j, s)
                nc = j + 1
                one = [(1 << nc) - 1]
                stage = _degree_stage(rows, s, degrees, desc)
                round1 = degree_cells(child, desc)
                round2 = split_round(child, round1, desc)
                if stage is None:
                    verdicts["reject"] += 1
                    assert not round2[-1] >> j & 1, (rows, s)
                    assert _refine(child, nc, one, desc, keep=j) is None
                else:
                    lower, split = stage
                    alone = split[-1] == 1 << j
                    verdicts["alone" if alone else "refine"] += 1
                    assert lower + [sum(split)] == round1, (rows, s)
                    cells, _ = _split(child, lower, lower, nc.bit_length(), desc)
                    assert cells + split == round2, (rows, s)
                    assert round2[-1] >> j & 1 and alone == (round2[-1] == 1 << j), (rows, s)
                    if alone:
                        cells = _refine(child, nc, one, desc, keep=j, alone=True)
                        assert cells[-1] == 1 << j
                for leaf in (False, True):
                    want = _one_cell_accept(child, desc, leaf)
                    got = (False, None) if stage is None else _accept(child, stage, desc, leaf)
                    if leaf:
                        got, want = got[0], want[0]
                    assert got == want, (rows, s, leaf)
    assert min(verdicts.values()) > 0, verdicts


def test_one_orbit_certificate_vs_brute_force():
    # every vertex j and its cell of the stable refinement, in both
    # orders, and every pair of vertices as a cell, which a stable
    # partition would rarely put together without an automorphism: a cell
    # the involution certificate proves one orbit is one orbit under all
    # permutations
    rng = random.Random(2311)
    proved = declined = 0
    for _ in range(100):
        g = random_graph_with_twins(rng, 8)
        one = [(1 << g.n) - 1]
        pairs = [1 << a | 1 << b for a in range(g.n) for b in range(a)]
        orbits = brute_orbit_partition(g)
        for cells in (_refine(g.rows, g.n, one, False), _refine(g.rows, g.n, one, True), pairs):
            for cell in cells:
                if not cell & (cell - 1):
                    continue
                for j in bits(cell):
                    if not _one_orbit(g.rows, cell, j):
                        declined += 1
                        continue
                    proved += 1
                    assert len({orbits[v] for v in bits(cell)}) == 1, (g.rows, cell, j)
    assert proved > 100 and declined > 100, (proved, declined)


# A 2-regular graph whose one stable cell is two orbits, and a graph whose
# automorphism group is Z3 (generated by (0 1 2)(3 4 5)(6 7 8)), whose
# three cells are one orbit each only under a rotation
DECLINE_CASES = {
    "two-orbits": disjoint_union(cycle_graph(3), cycle_graph(5)),
    "z3": from_edges(
        9,
        [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5), (0, 4), (1, 5), (2, 3)]
        + [(0, 6), (1, 7), (2, 8), (3, 6), (4, 7), (5, 8)],
    ),
}


@pytest.mark.parametrize("desc", [False, True], ids=["asc", "desc"])
@pytest.mark.parametrize("case", sorted(DECLINE_CASES))
def test_one_orbit_certificate_declines(case, desc, monkeypatch):
    # each vertex of the last stable cell as the new vertex of a leaf: the
    # certificate finds no proof, and the search decides as refining from
    # one cell does
    g = DECLINE_CASES[case]
    n = g.n
    last = _refine(g.rows, n, [(1 << n) - 1], desc)[-1]
    searched = []
    monkeypatch.setattr(
        enumeration,
        "_search",
        lambda *args, **kwargs: searched.append(1) or _search(*args, **kwargs),
    )
    for j in bits(last):
        assert not _one_orbit(g.rows, last, j)
        # relabel j as the last vertex, the one the leaf adds
        perm = list(range(n))
        perm[j], perm[-1] = perm[-1], perm[j]
        child = relabel(g, perm).rows
        parent = [row & ~(1 << (n - 1)) for row in child[:-1]]
        degrees = _child_degrees(_degree_classes(parent), desc)
        stage = _degree_stage(parent, child[-1], degrees, desc)
        searched.clear()
        got, _ = _accept(child, stage, desc, True)
        assert searched and got == _one_cell_accept(child, desc, True)[0], j


def _leaf_verdict(child, desc):
    """``_accept``'s verdict on ``child`` as a leaf whose new vertex, the
    last, has the extremal degree, with the degree stage read from its
    parent."""
    parent = [row & ~(1 << (len(child) - 1)) for row in child[:-1]]
    degrees = _child_degrees(_degree_classes(parent), desc)
    stage = _degree_stage(parent, child[-1], degrees, desc)
    return stage is not None and _accept(child, stage, desc, True)[0]


@pytest.mark.parametrize("desc", [False, True], ids=["asc", "desc"])
def test_leaf_verdict_vs_ir_leaves(desc, monkeypatch):
    # each vertex j of the last stable cell as the new vertex of a leaf:
    # accepted iff the best leaf of the unpruned tree ending at j is the
    # best leaf of all, as refining from one cell decides, also when no
    # leaf ends at j
    searches = {"keep": 0, "none": 0}

    def counted(*args, **kwargs):
        out = _search(*args, **kwargs)
        if kwargs.get("keep") is not None:
            searches["keep"] += 1
            searches["none"] += out[1] < 0
        return out

    monkeypatch.setattr(enumeration, "_search", counted)
    verdicts = [0, 0]
    for g in targeted_search_graphs(random.Random(4409)):
        n = g.n
        cells = _refine(g.rows, n, [(1 << n) - 1], desc)
        # a relabeling maps the unpruned tree's leaves onto the new tree's
        leaves = ir_leaves(g.rows, n, cells, desc)
        top = max(cert for _, cert in leaves)
        for j in bits(cells[-1]):
            want = any(cert == top for p, cert in leaves if p[-1] == j)
            # relabel j as the last vertex, the one the leaf adds
            perm = list(range(n))
            perm[j], perm[-1] = perm[-1], perm[j]
            child = relabel(g, perm).rows
            got = _leaf_verdict(child, desc)
            assert got == want == _one_cell_accept(child, desc, True)[0], (g.rows, j)
            verdicts[got] += 1
    assert min(verdicts) > 0 and searches["none"] and searches["keep"] > 20, (verdicts, searches)


@pytest.mark.parametrize("desc", [False, True], ids=["asc", "desc"])
@pytest.mark.parametrize("k, n", [(4, 9), (4, 10)])
def test_regular_leaf_verdicts_vs_one_cell(n, k, desc, monkeypatch):
    # every child that a regular enumeration decides as a leaf, the
    # one-cell searches of the regular Turan search: the verdict is the
    # one that refining from one cell and a full search give
    checked = []

    def checking(rows, stage, desc, leaf):
        out = _accept(rows, stage, desc, leaf)
        if leaf:
            checked.append(out[0])
            assert out[0] == _one_cell_accept(rows, desc, True)[0], rows
        return out

    monkeypatch.setattr(enumeration, "_accept", checking)
    enumerate_graphs(GenFilter(n=n, regular_k=k), desc=desc)
    assert any(checked) and not all(checked), len(checked)


def _leaf_alone(stage, rows, *args, n=8):
    """Whether the degree stage accepts a child of ``rows`` on n vertices
    outright: its new vertex alone in the last cell.  Such a leaf is
    scored and handed over unbuilt."""
    j = len(rows)
    return stage is not None and j + 1 == n and stage[1][-1] == 1 << j


# (children built, refinements from acceptance, refinement rounds in all,
# searches) of each filter, ascending and desc.  Under the degree cap,
# building every attachment rep before the degree stage built 6133 and
# 4730 children, and building the leaves that the stage accepts outright
# 3581 and 3582.  Searching every leaf whose last cell holds more than the
# new vertex took 11925 and 11821 rounds and 1361 and 1382 searches; an
# involution that swaps only single-vertex differences took 8961 and 8080
# rounds and 898 and 767 searches.  Under the regular filter, treating the
# children one vertex short of n, whose generators are never read, as
# inner nodes took 762 and 831 searches.  Deciding each searched leaf by
# one full search, the canonical labeling and its orbits, took 7778,
# 7108, 13258 and 14298 rounds and 767, 652, 617 and 676 searches; the
# targeted pair (the best leaf ending at j, then the first leaf above it)
# searches such a leaf twice unless no leaf ends at j, and stops a
# rejected one early, with the same children built and refined.
ACCEPT_COST = {
    "asc": (GenFilter(n=8, max_degree=4), False, (1914, 1914, 8436, 926)),
    "desc": (GenFilter(n=8, max_degree=4), True, (1936, 1936, 7260, 691)),
    "regular-10-4-asc": (GenFilter(n=10, regular_k=4), False, (1226, 1094, 11513, 795)),
    "regular-10-4-desc": (GenFilter(n=10, regular_k=4), True, (1323, 1238, 12629, 875)),
}


@pytest.mark.parametrize("run", list(ACCEPT_COST))
def test_acceptance_cost(run, monkeypatch):
    """A child is built only once the degree stage, read from its parent,
    has passed it; acceptance refines it from the stage's round-2
    partition, and searches no child whose generators are never read, so
    a change that builds rejected children again, refines from the degree
    cells or searches such a child changes these counts."""
    filt, desc, cost = ACCEPT_COST[run]
    counts = dict.fromkeys(("built", "passed", "unbuilt", "refined", "rounds", "searched"), 0)

    def counting(module, name, key, test=lambda out, *args: True):
        f = getattr(module, name)

        def counted(*args, **kwargs):
            out = f(*args, **kwargs)
            counts[key] += test(out, *args)
            return out

        monkeypatch.setattr(module, name, counted)

    counting(enumeration, "_extend", "built")
    counting(enumeration, "_degree_stage", "passed", lambda out, *args: out is not None)
    counting(enumeration, "_degree_stage", "unbuilt", partial(_leaf_alone, n=filt.n))
    counting(enumeration, "_refine", "refined")
    counting(enumeration, "_search", "searched")
    counting(canon, "_split", "rounds")
    counting(canon, "_row_split", "rounds")  # a round by one vertex's row
    counting(enumeration, "_split", "rounds")
    enumerate_graphs(filt, desc=desc)
    assert counts["built"] == counts["passed"] - counts["unbuilt"]
    # a regular leaf has one degree, so its new vertex is never alone
    assert (counts["unbuilt"] > 0) == (filt.regular_k is None)
    assert (
        counts["built"], counts["refined"], counts["rounds"], counts["searched"]
    ) == cost


@pytest.mark.parametrize("desc", [False, True], ids=["asc", "desc"])
def test_forbidden_check_builds_no_child(desc, monkeypatch):
    """A direct-side forbidden pattern is decided from the parent's rows
    and the attachment set: no child pruned under ``forbidden`` is built
    or backtracked, every child built has passed the degree stage, and an
    enumeration with no forbidden pattern asks for no copy count."""
    counts = dict.fromkeys(
        ("built", "staged", "passed", "unbuilt", "embedded", "parents", "checked"), 0
    )

    def counting(module, name, key, test=lambda out, *args: True):
        f = getattr(module, name)

        def counted(*args, **kwargs):
            out = f(*args, **kwargs)
            counts[key] += test(out, *args)
            return out

        monkeypatch.setattr(module, name, counted)

    counting(enumeration, "_extend", "built")
    counting(enumeration, "_degree_stage", "staged")
    counting(enumeration, "_degree_stage", "passed", lambda out, *args: out is not None)
    counting(enumeration, "_degree_stage", "unbuilt", _leaf_alone)
    counting(graphs, "_embeddings", "embedded")
    through = PatternCounter.through

    def counted_through(self, rows, **kwargs):
        counts["parents"] += 1
        check = through(self, rows, **kwargs)

        def counted_check(s):
            counts["checked"] += 1
            return check(s)

        return counted_check

    monkeypatch.setattr(PatternCounter, "through", counted_through)
    stats = enumerate_graphs(GenFilter(n=8, forbidden=HSpec.parse("K3").members), desc=desc)
    assert counts["embedded"] == 0
    assert counts["built"] == counts["passed"] - counts["unbuilt"]
    assert counts["checked"] == stats.pruned["forbidden"] + counts["staged"]
    assert counts["parents"] > 0
    counts.update(parents=0, checked=0)
    enumerate_graphs(GenFilter(n=8, max_degree=4), desc=desc)
    assert counts["parents"] == counts["checked"] == 0


@pytest.mark.parametrize("desc", [False, True], ids=["asc", "desc"])
def test_forbidden_checks_short_circuit(desc, monkeypatch):
    """The forbidden checks run in the order of the members, C3 then C5,
    and a child meets a later check only when every earlier one passed
    it: C5 never sees a child that C3 dropped.  Each dropped child counts
    once under ``forbidden``, whichever check dropped it."""
    members = HSpec.parse("C3..C5").members
    calls = {}  # (parent rows, s) -> [(member index, verdict)] in call order
    through = PatternCounter.through

    def logged_through(self, rows, **kwargs):
        index = next(i for i, h in enumerate(members) if h is self.pattern)
        check = through(self, rows, **kwargs)

        def logged_check(s):
            verdict = check(s)
            calls.setdefault((tuple(rows), s), []).append((index, bool(verdict)))
            return verdict

        return logged_check

    monkeypatch.setattr(PatternCounter, "through", logged_through)
    stats = enumerate_graphs(GenFilter(n=8, forbidden=members), desc=desc)
    dropped = 0
    for log in calls.values():
        assert [i for i, _ in log] == list(range(len(log)))
        assert not any(verdict for _, verdict in log[:-1])
        dropped += log[-1][1]
    # both checks drop children, and some pass both
    ends = {(len(log), log[-1][1]) for log in calls.values()}
    assert ends == {(1, True), (2, True), (2, False)}
    assert stats.pruned["forbidden"] == dropped
    assert stats.classes == PINNED_COUNTS[f"c3-c5-free-8{'-desc' if desc else ''}"][0]


# (classes, nodes, sorted pruned) at every order, pinned before canonical
# acceptance read its first rounds from the parent: no stage may move a
# child from one prune reason to another.  The forbidden runs count the
# copies through the new vertex before acceptance, one formula per kind
# of pattern (K3, C4, C3..C5 and K2,3 here), and were pinned when they
# still tested the built child.  The window's completion bounds cut
# different children of the regular runs in the two orders, so their
# node counts differ.
PINNED_COUNTS = {
    "copies-c5-n8": (2590, 3274, [("canonical", 2860)]),
    "copies-c5-n8-desc": (2590, 3274, [("canonical", 1457)]),
    "exr-k3-n10": (88, 1062, [("canonical", 1800)]),
    "exr-k3-n10-desc": (88, 1292, [("canonical", 1382)]),
    "regular-10-4-k3": (2, 87, [("canonical", 23), ("forbidden", 271)]),
    "regular-10-4-k3-desc": (2, 59, [("canonical", 19), ("forbidden", 36)]),
    "triangle-free-8": (410, 582, [("canonical", 172), ("forbidden", 3279)]),
    "triangle-free-8-desc": (410, 582, [("canonical", 217), ("forbidden", 106)]),
    "regular-10-4-c4": (0, 70, [("canonical", 15), ("forbidden", 260)]),
    "regular-10-4-c4-desc": (0, 45, [("canonical", 16), ("forbidden", 26)]),
    "c3-c5-free-8": (306, 456, [("canonical", 106), ("forbidden", 2827)]),
    "c3-c5-free-8-desc": (306, 456, [("canonical", 152), ("forbidden", 100)]),
    "regular-10-4-k23": (6, 339, [("canonical", 351), ("forbidden", 753)]),
    "regular-10-4-k23-desc": (6, 287, [("canonical", 254), ("forbidden", 270)]),
}


def _pinned_run(case):
    desc = case.endswith("-desc")
    name = case.removesuffix("-desc")
    k3 = HSpec.parse("K3").members
    if name == "copies-c5-n8":
        if not desc:
            return max_copies_free(8, cycle_graph(5), 4).stats
        return enumerate_graphs(GenFilter(n=8, max_degree=4), desc=True)
    if name == "exr-k3-n10":
        if not desc:
            return exr_exact(10, HSpec.parse("K3"), all_witnesses=True).stats
        # the degrees exr_exact tries, down to its answer 5, each listed
        # as exr_exact lists it: by the complements, (9 - k)-regular
        stats = GenStats()
        for k in range(9, 4, -1):
            stats.merge(enumerate_graphs(GenFilter(n=10, regular_k=9 - k), desc=True))
        return stats
    if name.startswith("regular-10-4-"):
        pattern = {"k3": "K3", "c4": "C4", "k23": "K2,3"}[name.removeprefix("regular-10-4-")]
        filt = GenFilter(n=10, regular_k=4, forbidden=HSpec.parse(pattern).members)
        return enumerate_graphs(filt, desc=desc)
    if name == "c3-c5-free-8":
        return enumerate_graphs(GenFilter(n=8, forbidden=HSpec.parse("C3..C5").members), desc=desc)
    return enumerate_graphs(GenFilter(n=8, forbidden=k3), desc=desc)


@pytest.mark.parametrize("case", sorted(PINNED_COUNTS))
def test_pinned_counts(case):
    stats = _pinned_run(case)
    assert (stats.classes, stats.nodes, sorted(stats.pruned.items())) == PINNED_COUNTS[case]


@pytest.mark.parametrize(
    "run",
    [
        lambda visit, jobs: enumerate_graphs(GenFilter(n=3), leaf=graph_leaf(visit), jobs=jobs),
        lambda visit, jobs: enumerate_graphs(
            GenFilter(n=11, regular_k=10), leaf=graph_leaf(visit), jobs=jobs
        ),
    ],
    ids=["n3", "regular-11-10"],
)
def test_parallel_without_fork_below_two_seeds(run, monkeypatch):
    # one seed or none: descended in this process, like a serial run
    serial = []
    stats = run(lambda g: serial.append(g.rows) and None, 1)

    def no_fork(*args):
        raise AssertionError("workers were forked for fewer than two seeds")

    monkeypatch.setattr(parallel.mp, "get_context", no_fork)
    got = []
    stats2 = run(lambda g: got.append(g.rows) and None, 2)
    assert got == serial
    assert (stats2.classes, stats2.nodes, stats2.pruned) == (
        stats.classes, stats.nodes, stats.pruned
    )


def test_regular_examples():
    from turan_reg.graphs import cycle_graph

    got = []
    enumerate_graphs(GenFilter(n=5, regular_k=2), leaf=graph_leaf(got.append))
    assert len(got) == 1
    assert canonical_form(got[0]) == canonical_form(cycle_graph(5))
    stats = enumerate_graphs(GenFilter(n=7, regular_k=3))
    assert stats.infeasible and stats.classes == 0
    count = [0]
    enumerate_graphs(
        GenFilter(n=9, regular_k=4), leaf=graph_leaf(lambda g: count.__setitem__(0, count[0] + 1))
    )
    assert count[0] == 16


def test_regular_k3_on_six():
    # pinned: the two cubic classes on 6 vertices
    got = []
    enumerate_graphs(
        GenFilter(n=6, regular_k=3), leaf=graph_leaf(lambda g: got.append(canonical_form(g)))
    )
    from turan_reg.graphs import complete_bipartite, cycle_graph, from_edges

    prism = from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)])
    assert set(got) == {canonical_form(complete_bipartite(3, 3)), canonical_form(prism)}


def test_regular_dense_side_uses_complement():
    # 8-regular graphs on 11 vertices: the complements of the 2-regular ones
    dense, sparse = [], []
    enumerate_graphs(GenFilter(n=11, regular_k=8), leaf=graph_leaf(dense.append))
    enumerate_graphs(
        GenFilter(n=11, regular_k=2),
        leaf=graph_leaf(lambda g: sparse.append(canonical_form(complement(g)))),
    )
    assert all(g.is_regular(8) for g in dense)
    assert len(dense) == 6  # cycle partitions of 11 with parts >= 3
    assert {canonical_form(g) for g in dense} == set(sparse)


def test_regular_k_zero():
    got = []
    enumerate_graphs(GenFilter(n=4, regular_k=0), leaf=graph_leaf(got.append))
    assert len(got) == 1 and got[0].edge_count == 0


def test_leaf_call_early_stop():
    firsts = []
    for jobs in (1, 2):
        seen = []

        def leaf(score, rows, s):
            seen.append((rows, s))
            return True

        stats = enumerate_graphs(GenFilter(n=6), leaf=leaf, jobs=jobs)
        assert len(seen) == 1
        assert stats.classes == 1
        firsts.append(seen[0])
    assert firsts[0] == firsts[1]


def _run_python(code, timeout):
    """Run ``code`` in a fresh interpreter, so that a hang fails at ``timeout``."""
    src = str(Path(turan_reg.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


EARLY_STOPS = """
import multiprocessing as mp
from turan_reg.enumeration import GenFilter, enumerate_graphs
for _ in range(300):
    stats = enumerate_graphs(GenFilter(n=6), leaf=lambda score, rows, s: True, jobs=2)
    assert stats.classes == 1 and not mp.active_children()
stats = enumerate_graphs(GenFilter(n=6), jobs=2)
assert stats.classes == 156 and not mp.active_children()
# at n = 8 there are more seeds (34) than the window: stops spread over
# the scan land while seeds are still being dealt
for stop in range(1, 12346, 2000):
    seen = []
    stats = enumerate_graphs(
        GenFilter(n=8), leaf=lambda score, rows, s: seen.append(s) or len(seen) == stop, jobs=3
    )
    assert stats.classes == len(seen) == stop and not mp.active_children()
"""


def test_parallel_early_stops_never_hang():
    # a stop while seeds are still queued for the workers: each scan must
    # return promptly with every worker reaped, after a full scan too
    _run_python(EARLY_STOPS, timeout=120)


DEAD_WORKER = """
import multiprocessing as mp, os
from turan_reg import parallel
from turan_reg.enumeration import GenFilter, enumerate_graphs
descend, calls = parallel._descend, []
def dying(run, seed):  # each forked worker inherits the patch and dies on its third seed
    calls.append(seed)
    if len(calls) == 3:
        os._exit(1)
    return descend(run, seed)
parallel._descend = dying
try:
    enumerate_graphs(GenFilter(n=7), jobs=2)  # 11 seeds
except EOFError:
    print("EOFError", len(mp.active_children()))
"""


def test_parallel_dead_worker_raises():
    assert _run_python(DEAD_WORKER, timeout=60).split() == ["EOFError", "0"]


DEAD_ON_SEND = """
import multiprocessing as mp, os
from multiprocessing.context import ForkProcess
from turan_reg import parallel
from turan_reg.enumeration import GenFilter, enumerate_graphs
parallel._work = lambda *args: os._exit(1)  # each worker dies at once
start = ForkProcess.start
def start_and_reap(self):  # so every worker is dead before the parent waits on one
    start(self)
    self.join()
ForkProcess.start = start_and_reap
try:
    enumerate_graphs(GenFilter(n=7), jobs=2)
except EOFError:
    print("EOFError", len(mp.active_children()))
"""


def test_parallel_worker_dead_on_send_raises():
    # the parent sends a worker nothing: workers that die before taking a
    # seed still fail the scan, and none is left running
    got = _run_python(DEAD_ON_SEND, timeout=60).split()
    assert got == ["EOFError", "0"]


WINDOW_BOUND = """
import multiprocessing as mp, os, tempfile, time
from multiprocessing.connection import Connection
from turan_reg import parallel
from turan_reg.enumeration import GenFilter, enumerate_graphs
W = parallel.WINDOW = 3
log = tempfile.TemporaryFile("a+b", buffering=0)  # one write per event, shared by the workers
main = os.getpid()
descend, recv, emit = parallel._descend, Connection.recv, parallel._emit
def slow_first(run, seed):  # in the workers
    i = run.seeds.index(seed)
    log.write(b"start %d\\n" % i)
    if i == 0:
        time.sleep(0.5)
    return descend(run, seed)
def logged_recv(conn):  # a result read, in the parent
    got = recv(conn)
    if os.getpid() == main:
        log.write(b"read\\n")
    return got
def logged_emit(run, result):
    log.write(b"emit\\n")
    emit(run, result)
parallel._descend, Connection.recv, parallel._emit = slow_first, logged_recv, logged_emit
stats = enumerate_graphs(GenFilter(n=7), jobs=2)  # 11 seeds
assert stats.classes == 1044 and not mp.active_children()
log.seek(0)
events = log.read().splitlines()
starts = [int(e.split()[1]) for e in events if e.startswith(b"start")]
assert sorted(starts) == list(range(11))
read = emitted = 0
for e in events:
    read += e == b"read"
    emitted += e == b"emit"
    assert read - emitted <= W, events  # results held back for emission in order
    if e.startswith(b"start"):
        assert int(e.split()[1]) < emitted + W, events  # dealt no further than the window
# the other worker ran ahead of seed 0 as far as the window allows
first = events[:events.index(b"emit")]
assert max(int(e.split()[1]) for e in first if e.startswith(b"start")) == W - 1
print("ok")
"""


def test_parallel_window_bounds_dealing():
    # seed 0 is slow: the other worker may run ahead, but not past the window
    assert _run_python(WINDOW_BOUND, timeout=60).split() == ["ok"]


SERIAL_SEARCHES = """
import sys
from turan_reg.graphs import cycle_graph
from turan_reg.search import HSpec, exr_exact, max_copies_free
exr_exact(9, HSpec.parse("K3"), jobs=1)
max_copies_free(7, cycle_graph(5), 3, jobs=1)
assert "multiprocessing" not in sys.modules, "multiprocessing was imported"
"""


def test_serial_search_leaves_multiprocessing_unimported():
    # the import costs about 1 MiB, which a serial run does not need
    _run_python(SERIAL_SEARCHES, timeout=60)


def test_hard_cap():
    with pytest.raises(EnumerationError):
        enumerate_graphs(GenFilter(n=12))
    # past the cap, a regular order with odd nk raises too, before the
    # parity is read; with force it is flagged infeasible
    with pytest.raises(EnumerationError, match="beyond enumeration cap"):
        enumerate_graphs(GenFilter(n=13, regular_k=3))
    assert enumerate_graphs(GenFilter(n=13, regular_k=3), force=True).infeasible
    # explicit override is accepted (tiny filtered run)
    stats = enumerate_graphs(GenFilter(n=12, regular_k=1), force=True)
    assert stats.classes == 1


def test_filter_validation():
    with pytest.raises(EnumerationError):
        enumerate_graphs(GenFilter(n=6, regular_k=3, max_degree=2))
    with pytest.raises(EnumerationError):
        enumerate_graphs(GenFilter(n=6, regular_k=2, edge_count=7))
    with pytest.raises(EnumerationError):
        enumerate_graphs(GenFilter(n=0))


@pytest.mark.parametrize("field", ["max_degree", "edge_count"])
def test_negative_filter_values_raise(field):
    with pytest.raises(EnumerationError, match=f"{field} must be >= 0"):
        enumerate_graphs(GenFilter(n=5, **{field: -1}))
    with pytest.raises(EnumerationError, match=f"{field} must be >= 0"):
        enumerate_graphs(GenFilter(n=5, **{field: -1}), jobs=2)
    # zero is a real filter, not an error
    assert enumerate_graphs(GenFilter(n=5, **{field: 0})).classes == 1
    if field == "max_degree":
        with pytest.raises(EnumerationError, match="max_degree must be >= 0"):
            max_copies_free(5, cycle_graph(4), -1)


@pytest.mark.parametrize("jobs", [0, -3])
def test_jobs_below_one_raise(jobs):
    with pytest.raises(EnumerationError, match="jobs must be >= 1"):
        enumerate_graphs(GenFilter(n=5), jobs=jobs)
    # also where no graph can exist: 5 * 3 is odd
    with pytest.raises(EnumerationError, match="jobs must be >= 1"):
        enumerate_graphs(GenFilter(n=5, regular_k=3), jobs=jobs)


def test_infeasible_flag():
    stats = enumerate_graphs(GenFilter(n=5, edge_count=11))
    assert stats.infeasible and stats.classes == 0
    stats = enumerate_graphs(GenFilter(n=6, regular_k=3, edge_count=9))
    assert not stats.infeasible and stats.classes == 2


K3 = (complete_graph(3),)
PARALLEL_CASES = {
    **{
        f"n{n}": lambda visit, jobs, n=n: enumerate_graphs(
            GenFilter(n=n), leaf=graph_leaf(visit), jobs=jobs
        )
        for n in range(1, 9)
    },
    "connected": lambda visit, jobs: enumerate_graphs(
        GenFilter(n=7, connected=True), leaf=graph_leaf(visit), jobs=jobs
    ),
    "desc": lambda visit, jobs: enumerate_graphs(
        GenFilter(n=7), leaf=graph_leaf(visit), desc=True, jobs=jobs
    ),
    **{
        f"regular-9-{k}{name}": lambda visit, jobs, k=k, forbidden=forbidden: enumerate_graphs(
            GenFilter(n=9, regular_k=k, forbidden=forbidden), leaf=graph_leaf(visit), jobs=jobs
        )
        for k in (4, 6)
        for name, forbidden in (("", ()), ("-K3", K3))
    },
    # rows of more than 16 bits: leaves are packed in wider array items
    "regular-18-1": lambda visit, jobs: enumerate_graphs(
        GenFilter(n=18, regular_k=1), leaf=graph_leaf(visit), force=True, jobs=jobs
    ),
}


@pytest.mark.parametrize("case", sorted(PARALLEL_CASES))
def test_parallel_matches_serial(case):
    runs = []
    for jobs in (1, 2, 3):
        rows = []
        stats = PARALLEL_CASES[case](lambda g: rows.append(g.rows) and None, jobs)
        runs.append((rows, stats.classes, stats.nodes, stats.pruned))
    assert runs[0] == runs[1] == runs[2]


def test_subtree_packs_leaves():
    # each seed's leaf rows come back as one array, two bytes a row at n = 9
    filt = GenFilter(n=9, max_degree=3)
    run = _Run(filt, None, False, split=7)
    run.descend((0,), 1, [], 0)
    packed = [parallel._descend(run, seed)[0] for seed in run.seeds]
    assert all(leaves.itemsize == 2 for leaves in packed)
    assert sum(map(len, packed)) == 9 * enumerate_graphs(filt).classes


SCORERS = {
    **{f"C{m}": (PatternCounter(cycle_graph(m)), partial(count_cycles, m=m)) for m in range(3, 8)},
    **{f"K{t}": (PatternCounter(complete_graph(t)), partial(count_cliques, t=t)) for t in (3, 4)},
    "cliques": (CliqueTotal(), total_cliques),
}


@pytest.mark.parametrize("mode", ["asc", "desc", "jobs2"])
def test_tree_scores_match_whole_graph_counts(mode):
    """The score the tree hands over with each class, its parent's score
    plus the copies through the new vertex, is the count on the whole
    graph: cycles C3..C7, K3, K4 and all cliques of 2 or more vertices,
    on every class of GenFilter(n=8, max_degree=4), and the triangles of
    the 6-regular classes on 9 vertices, in a tree that the regular
    window shapes."""
    kw = {"desc": mode == "desc", "jobs": 2 if mode == "jobs2" else 1}
    for name, (scorer, oracle) in SCORERS.items():
        leaves = []
        stats = enumerate_graphs(
            GenFilter(n=8, max_degree=4), scorer=scorer,
            leaf=lambda score, rows, s: leaves.append((score, rows, s)), **kw,
        )
        assert len(leaves) == stats.classes == 2590
        for score, rows, s in leaves:
            g = extend_graph(rows, s)
            assert score == oracle(g), (name, g.rows)
    scorer, oracle = SCORERS["K3"]
    got = []
    stats = enumerate_graphs(
        GenFilter(n=9, regular_k=6), scorer=scorer, leaf=lambda *leaf: got.append(leaf), **kw
    )
    assert len(got) == stats.classes == 4
    for score, rows, s in got:
        g = extend_graph(rows, s)
        assert g.is_regular(6) and score == oracle(g), g.rows


@pytest.mark.parametrize(
    "filt", [GenFilter(n=8, max_degree=4), GenFilter(n=8, max_degree=4, edge_count=14)],
    ids=["n8-r4", "table1-n8-m14"],
)
def test_through_built_once_per_parent(filt, monkeypatch):
    """Each node builds its scorer's ``through`` at most once, and only
    for a node of the tree: a leaf's score costs no recount of its
    parent, even where a parent has one leaf, as in the table1 cell."""
    nodes, built = set(), []
    descend = _Run.descend
    through = PatternCounter.through

    def counted_descend(self, rows, *args):
        nodes.add(rows)
        return descend(self, rows, *args)

    def counted_through(self, rows, **kwargs):
        built.append(rows)
        return through(self, rows, **kwargs)

    monkeypatch.setattr(_Run, "descend", counted_descend)
    monkeypatch.setattr(PatternCounter, "through", counted_through)
    leaves = []
    stats = enumerate_graphs(
        filt, scorer=PatternCounter(complete_graph(3)), leaf=lambda *leaf: leaves.append(leaf)
    )
    parents = {rows for _, rows, _ in leaves}
    assert len(built) == len(set(built)) and set(built) <= nodes | {()}
    assert parents <= set(built) and len(built) < stats.nodes
