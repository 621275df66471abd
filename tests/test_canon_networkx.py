"""Differential tests of canonical labeling against networkx.

networkx shares no code with the refinement and individualization
search: ``is_isomorphic`` runs VF2.  Equal canonical labels must hold
exactly for isomorphic pairs.  The pairs are random relabelings (equal
labels expected) and near misses with the same degree sequence: one
degree-preserving edge switch, and two strongly regular graphs with the
same parameters.  Graphs with n >= 16 use the tuple split keys of
refinement instead of the packed ones.
"""

import random

import pytest

from helpers import random_graph, random_graph_with_twins

from turan_reg.canon import canonical_form
from turan_reg.graphs import from_edges, relabel

nx = pytest.importorskip("networkx")


def to_nx(g):
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    return G


def shuffled(rng, g):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return relabel(g, perm)


def edge_switch(rng, g):
    """Replace edges ab, cd by ad, cb where that keeps the graph simple;
    the degree sequence is unchanged.  None when no switch was found."""
    edges = list(g.edges())
    for _ in range(50):
        if len(edges) < 2:
            return None
        (a, b), (c, d) = rng.sample(edges, 2)
        if rng.random() < 0.5:
            c, d = d, c
        if len({a, b, c, d}) < 4 or g.rows[a] >> d & 1 or g.rows[c] >> b & 1:
            continue
        kept = [e for e in edges if e not in ((a, b), (b, a), (c, d), (d, c))]
        return from_edges(g.n, kept + [(a, d), (c, b)])
    return None


def check_pair(g, h):
    iso = nx.is_isomorphic(to_nx(g), to_nx(h))
    for desc in (False, True):
        same = canonical_form(g, desc) == canonical_form(h, desc)
        assert same == iso, (g.rows, h.rows, desc)
    return iso


def test_relabelings_and_switches():
    rng = random.Random(5150)
    switched = non_iso = 0
    for i in range(300):
        g = random_graph_with_twins(rng, 13) if i % 2 else random_graph(rng, rng.randint(1, 20))
        assert check_pair(g, shuffled(rng, g))
        h = edge_switch(rng, g)
        if h is not None:
            switched += 1
            non_iso += not check_pair(g, shuffled(rng, h))
    # most switches of a random graph give a non-isomorphic graph
    assert switched > 150 and non_iso > 100


def shrikhande_graph():
    cells = [(a, b) for a in range(4) for b in range(4)]
    steps = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}
    return from_edges(
        16,
        [
            (i, j)
            for i, (a, b) in enumerate(cells)
            for j, (c, d) in enumerate(cells)
            if i < j and ((c - a) % 4, (d - b) % 4) in steps
        ],
    )


def rook_graph():
    # K4 x K4: two cells are adjacent when they share a row or a column
    pairs = [(i, j) for i in range(16) for j in range(i + 1, 16)]
    return from_edges(16, [(i, j) for i, j in pairs if i // 4 == j // 4 or i % 4 == j % 4])


def test_strongly_regular_pair():
    # both are srg(16, 6, 2, 2): equal degree sequences and equal counts of
    # common neighbours, but not isomorphic
    rng = random.Random(16)
    shrikhande, rook = shrikhande_graph(), rook_graph()
    assert list(map(int.bit_count, shrikhande.rows + rook.rows)) == [6] * 32
    assert not check_pair(shrikhande, rook)
    for g in (shrikhande, rook):
        assert check_pair(g, shuffled(rng, g))
