import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import all_labeled_graphs, child_ok_oracle

import turan_reg
from turan_reg import parallel
from turan_reg.canon import _refine, canon_core, canonical_label
from turan_reg.enumeration import (
    EnumerationError,
    GenFilter,
    _attachment_reps,
    _Run,
    enumerate_graphs,
    enumerate_regular,
)
from turan_reg.graphs import complete_graph, contains_subgraph, graph6_encode, is_connected

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


def _max_degree(g):
    return max(g.degree(v) for v in range(g.n))


def test_filter_pushdown_soundness():
    # pruned runs agree with a full run post-filtered, per filter kind
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
    asc, desc = [], []
    enumerate_regular(10, 4, visitor=lambda g: asc.append(canonical_label(g)) and None)
    enumerate_regular(10, 4, visitor=lambda g: desc.append(canonical_label(g)) and None, desc=True)
    assert len(asc) == len(desc) == 60
    assert set(asc) == set(desc)


# SHA-256 of the emitted graph6 lines, each ending in a newline, and the
# class count: pinned so that a change in the candidate or acceptance
# order shows, not only a change in the emitted set.
ORDER_GOLDENS = {
    "max-degree-8-4": (
        lambda visit: enumerate_graphs(GenFilter(n=8, max_degree=4), visitor=visit),
        "b642d27f23d4f852c31af94071d02bc13fc6950ec0a216d0b61c341ac37d3a59",
        2590,
    ),
    "edges-max-degree-8-12-4": (
        lambda visit: enumerate_graphs(
            GenFilter(n=8, edge_count=12, max_degree=4), visitor=visit
        ),
        "84cfb16b236c8f42b72ff6b56123b726f87390c6841e5119e35a38bbd2029fc9",
        465,
    ),
    "regular-10-4": (
        lambda visit: enumerate_regular(10, 4, visitor=visit),
        "35ae8be05e217ec8bab5a7cfca900ccb353e8ab9327901f387c54bb732f4406c",
        60,
    ),
    "regular-10-3-K3": (
        lambda visit: enumerate_regular(10, 3, visitor=visit, forbidden=(complete_graph(3),)),
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
    "regular": GenFilter(n=8, regular_k=3),
    "regular-forced": GenFilter(n=8, regular_k=4),
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
        for rows, gens, edges in run.seeds:
            want = [
                s for s in range(1 << j) if child_ok_oracle(filt, rows, j, s, edges, desc)
            ]
            window = run.window(rows, j, edges)
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


def test_refine_keep_exact():
    for n in range(1, 6):
        for g in all_labeled_graphs(n):
            for desc in (False, True):
                full = _refine(g.rows, n, [list(range(n))], desc)
                for v in range(n):
                    got = _refine(g.rows, n, [list(range(n))], desc, keep=v)
                    alone = _refine(g.rows, n, [list(range(n))], desc, keep=v, alone=True)
                    if v in full[-1]:
                        assert got == full
                        if full[-1] == [v]:
                            assert alone[-1] == [v]
                        else:
                            assert alone == full
                    else:
                        assert got is None and alone is None


@pytest.mark.parametrize(
    "run",
    [
        lambda visit, jobs: enumerate_graphs(GenFilter(n=3), visitor=visit, jobs=jobs),
        lambda visit, jobs: enumerate_regular(11, 10, visitor=visit, jobs=jobs),
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
    stats = enumerate_graphs(GenFilter(n=6), visitor=lambda g: True, jobs=2)
    assert stats.classes == 1 and not mp.active_children()
stats = enumerate_graphs(GenFilter(n=6), jobs=2)
assert stats.classes == 156 and not mp.active_children()
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
    enumerate_graphs(GenFilter(n=6), jobs=2)
except EOFError:
    print("EOFError", len(mp.active_children()))
"""


def test_parallel_dead_worker_raises():
    assert _run_python(DEAD_WORKER, timeout=60).split() == ["EOFError", "0"]


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
    # rows of more than 16 bits: leaves are packed in wider array items
    "regular-18-1": lambda visit, jobs: enumerate_regular(
        18, 1, visitor=visit, force=True, jobs=jobs
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


def test_subtree_packs_leaves():
    # each seed's leaf rows come back as one array, two bytes a row at n = 9
    filt = GenFilter(n=9, max_degree=3)
    run = _Run(filt, None, False, split=7)
    run.descend((0,), 1, [], 0)
    packed = [parallel._descend(run, seed)[0] for seed in run.seeds]
    assert all(leaves.itemsize == 2 for leaves in packed)
    assert sum(map(len, packed)) == 9 * enumerate_graphs(filt).classes
