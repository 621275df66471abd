import pytest

from helpers import all_labeled_graphs

from turan_reg.canon import canon_core, canonical_label
from turan_reg.enumeration import (
    EnumerationError,
    GenFilter,
    enumerate_graphs,
    enumerate_regular,
)
from turan_reg.graphs import complete_graph, contains_subgraph, is_connected

KNOWN_CLASS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


def collect(filt, **kw):
    out = []
    stats = enumerate_graphs(filt, visitor=lambda g: out.append(g) and None, **kw)
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
        labels = {canonical_label(g) for g in emitted}
        assert len(labels) == len(emitted)


def test_filter_pushdown_soundness():
    # pruned runs agree with a full run post-filtered, per filter kind
    for n in (5, 6, 7):
        full, _ = collect(GenFilter(n=n))
        cases = [
            (GenFilter(n=n, max_degree=3), lambda g: max(g.degree(v) for v in range(g.n)) <= 3),
            (GenFilter(n=n, edge_count=7), lambda g: g.edge_count == 7),
            (GenFilter(n=n, regular_k=2), lambda g: g.is_regular(2)),
            (
                GenFilter(n=n, forbidden=(complete_graph(3),)),
                lambda g: not contains_subgraph(g, complete_graph(3)),
            ),
            (GenFilter(n=n, connected=True), is_connected),
        ]
        for filt, predicate in cases:
            got, _ = collect(filt)
            got_labels = {canonical_label(g) for g in got}
            want_labels = {canonical_label(g) for g in full if predicate(g)}
            assert got_labels == want_labels, (n, filt)


def test_determinism():
    a, _ = collect(GenFilter(n=6))
    b, _ = collect(GenFilter(n=6))
    assert [g.rows for g in a] == [g.rows for g in b]


def test_dual_orders_agree():
    for n in range(1, 8):
        asc, _ = collect(GenFilter(n=n))
        desc, _ = collect(GenFilter(n=n), desc=True)
        assert {canonical_label(g) for g in asc} == {canonical_label(g) for g in desc}


def test_regular_examples():
    from turan_reg.graphs import cycle_graph

    got = []
    enumerate_regular(5, 2, visitor=lambda g: got.append(g) and None)
    assert len(got) == 1
    assert canonical_label(got[0]) == canonical_label(cycle_graph(5))
    stats = enumerate_regular(7, 3)
    assert stats.infeasible and stats.classes == 0
    count = [0]
    enumerate_regular(9, 4, visitor=lambda g: count.__setitem__(0, count[0] + 1))
    assert count[0] == 16


def test_regular_k3_on_six():
    # pinned: the two cubic classes on 6 vertices
    got = []
    enumerate_regular(6, 3, visitor=lambda g: got.append(canonical_label(g)) and None)
    from turan_reg.graphs import complete_bipartite, cycle_graph, from_edges

    prism = from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)])
    assert set(got) == {canonical_label(complete_bipartite(3, 3)), canonical_label(prism)}


def test_regular_dense_side_uses_complement():
    # 8-regular graphs on 11 vertices: complements of the 2-regular ones
    got = []
    enumerate_regular(11, 8, visitor=lambda g: got.append(g) and None)
    assert all(g.is_regular(8) for g in got)
    assert len(got) == 6  # cycle partitions of 11 with parts >= 3


def test_regular_k_zero():
    got = []
    enumerate_regular(4, 0, visitor=lambda g: got.append(g) and None)
    assert len(got) == 1 and got[0].edge_count == 0


def test_visitor_early_stop():
    firsts = []
    for jobs in (1, 2):
        seen = []

        def visit(g):
            seen.append(g.rows)
            return True

        stats = enumerate_graphs(GenFilter(n=6), visitor=visit, jobs=jobs)
        assert len(seen) == 1
        assert stats.classes == 1
        firsts.append(seen[0])
    assert firsts[0] == firsts[1]


def test_hard_cap():
    with pytest.raises(EnumerationError):
        enumerate_graphs(GenFilter(n=12))
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


def test_infeasible_flag():
    stats = enumerate_graphs(GenFilter(n=5, edge_count=11))
    assert stats.infeasible and stats.classes == 0
    stats = enumerate_graphs(GenFilter(n=6, regular_k=3, edge_count=9))
    assert not stats.infeasible and stats.classes == 2


K3 = (complete_graph(3),)
PARALLEL_CASES = {
    **{
        f"n{n}": lambda visit, jobs, n=n: enumerate_graphs(GenFilter(n=n), visitor=visit, jobs=jobs)
        for n in range(1, 9)
    },
    "connected": lambda visit, jobs: enumerate_graphs(
        GenFilter(n=7, connected=True), visitor=visit, jobs=jobs
    ),
    "desc": lambda visit, jobs: enumerate_graphs(
        GenFilter(n=7), visitor=visit, desc=True, jobs=jobs
    ),
    "regular-9-4": lambda visit, jobs: enumerate_regular(9, 4, visitor=visit, jobs=jobs),
    "regular-9-4-K3": lambda visit, jobs: enumerate_regular(
        9, 4, visitor=visit, forbidden=K3, jobs=jobs
    ),
    "regular-9-6": lambda visit, jobs: enumerate_regular(9, 6, visitor=visit, jobs=jobs),
    "regular-9-6-K3": lambda visit, jobs: enumerate_regular(
        9, 6, visitor=visit, forbidden=K3, jobs=jobs
    ),
}


@pytest.mark.parametrize("case", sorted(PARALLEL_CASES))
def test_parallel_matches_serial(case):
    runs = []
    for jobs in (1, 2):
        rows = []
        stats = PARALLEL_CASES[case](lambda g: rows.append(g.rows) and None, jobs)
        runs.append((rows, stats.classes, stats.nodes, stats.pruned))
    assert runs[0] == runs[1]
