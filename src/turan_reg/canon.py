"""Exact canonical labeling by refinement and individualization.

The certificate of a graph is the maximum, over the leaves of the
individualization-refinement tree, of the packed upper-triangle bits of
the relabeled adjacency matrix.  Two graphs are isomorphic iff their
certificates (together with the order) coincide.

The ordered-partition machinery follows the usual scheme:

  * ``_refine`` drives a partition to its coarsest stable refinement,
    splitting cells by neighbor counts against the cells that changed
    last; sub-cells are ordered by their split key, so the cell order of
    the result is itself an isomorphism invariant.
  * If the stable partition is discrete the graph is rigid (every
    automorphism preserves the cells) and the single leaf is canonical.
  * Otherwise the search individualizes each vertex of the first
    non-singleton cell in turn, pruning branches that are equivalent to
    an explored one under already-discovered automorphisms.

Automorphisms are harvested from leaf-certificate collisions with the
first and the best leaf; with the pruning rule above the collected
permutations generate the full automorphism group.

Everything here is exact; speed is tuned for n <= 11 (the enumeration
range) but nothing breaks for moderately larger graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import graph6_encode, relabel


@dataclass(frozen=True)
class CanonicalLabel:
    """Isomorphism-class certificate; equal labels iff isomorphic graphs."""

    data: bytes


def _refine(rows, n, cells, desc, keep=None, active=None, alone=False):
    """Coarsest stable refinement of an ordered partition.

    Each round splits every cell by its vertices' neighbour counts in the
    splitter cells and orders the sub-cells by those counts.  The first
    round's splitters are the cells at the indices ``active`` (all cells
    by default); a caller passes fewer only when the counts against the
    others are constant on every cell, or, for a partition by degree
    with every cell active but the last, fixed by the other counts: a
    vertex's count in the last cell is its degree less the rest.  Later
    rounds split only against the cells the previous round created, less
    the last sub-cell of each split: the counts against an unchanged
    cell are constant on every current cell, and so is the sum over the
    sub-cells of a split one, so dropping them changes neither the split
    nor the order of the sub-cells, whose keys compare lexicographically
    (the splitter rule of McKay and Piperno, J. Symbolic Comput. 60,
    2014).  The result is the one a refinement against all cells in
    every round gives.

    A split key packs a vertex's counts, in splitter order, into one int
    with a field of ``n.bit_length()`` bits per count, as
    ``enumeration._degree_stage`` does: no count reaches n, and every key
    of a round has the same fields, so keys sort as the count tuples do
    lexicographically.

    With ``keep`` set, returns None as soon as vertex ``keep`` leaves the
    last cell.  A round only splits cells and keeps their order, so the
    last cells of successive rounds are nested and the exit is exact.
    With ``alone`` also set, the partition of the first round whose last
    cell is ``keep`` alone is returned as it is, not yet stable: every
    later round, and every leaf of a search from it, keeps ``keep`` last.
    """
    b = n.bit_length()
    if active is None:
        active = range(len(cells))
    while True:
        if keep is not None:
            if keep not in cells[-1]:
                return None
            if alone and len(cells[-1]) == 1:
                return cells
        masks = []
        for i in active:
            m = 0
            for v in cells[i]:
                m |= 1 << v
            masks.append(m)
        new_cells = []
        active = []
        for c in cells:
            if len(c) == 1:
                new_cells.append(c)
                continue
            buckets = {}
            for v in c:
                rv = rows[v]
                key = 0
                for m in masks:
                    key = (key << b) | (rv & m).bit_count()
                cell = buckets.get(key)
                if cell is None:
                    buckets[key] = [v]
                else:
                    cell.append(v)
            if len(buckets) == 1:
                new_cells.append(c)
            else:
                keys = sorted(buckets, reverse=desc)
                for k in keys[:-1]:
                    active.append(len(new_cells))
                    new_cells.append(buckets[k])
                new_cells.append(buckets[keys[-1]])
        if not active:
            return new_cells
        cells = new_cells


def _pack_cert(rows, perm, n):
    cert = 0
    for i in range(n):
        ri = rows[perm[i]]
        for j in range(i + 1, n):
            cert = (cert << 1) | ((ri >> perm[j]) & 1)
    return cert


def _compose_auto(p0, p1, n):
    a = [0] * n
    for i in range(n):
        a[p0[i]] = p1[i]
    return tuple(a)


def _search(rows, n, cells0, desc):
    best_cert = -1
    best_perm = None
    first_cert = None
    first_perm = None
    autos = []
    auto_seen = set()

    def add_auto(a):
        if a not in auto_seen and any(a[i] != i for i in range(n)):
            auto_seen.add(a)
            autos.append(a)

    def descend(cells):
        nonlocal best_cert, best_perm, first_cert, first_perm
        idx = -1
        for i, c in enumerate(cells):
            if len(c) > 1:
                idx = i
                break
        if idx == -1:
            perm = tuple(c[0] for c in cells)
            cert = _pack_cert(rows, perm, n)
            if first_cert is None:
                first_cert, first_perm = cert, perm
            else:
                if cert == first_cert:
                    add_auto(_compose_auto(first_perm, perm, n))
                if cert == best_cert and best_perm is not None:
                    add_auto(_compose_auto(best_perm, perm, n))
            if cert > best_cert:
                best_cert, best_perm = cert, perm
            return
        cell = cells[idx]
        prefix = cells[:idx]
        suffix = cells[idx + 1:]
        explored = []
        stab = []  # the automorphisms found so far that fix every cell
        tested = 0
        cell_of = None
        for v in cell:
            if explored:
                if tested < len(autos):
                    if cell_of is None:
                        cell_of = [0] * n
                        for i, c in enumerate(cells):
                            for u in c:
                                cell_of[u] = i
                    for a in autos[tested:]:
                        if [cell_of[u] for u in a] == cell_of:
                            stab.append(a)
                    tested = len(autos)
                if stab:
                    orb = set(explored)
                    frontier = list(explored)
                    while frontier:
                        u = frontier.pop()
                        for a in stab:
                            w = a[u]
                            if w not in orb:
                                orb.add(w)
                                frontier.append(w)
                    if v in orb:
                        continue
            rest = [u for u in cell if u != v]
            descend(_refine(rows, n, prefix + [[v], rest] + suffix, desc, active=(idx,)))
            explored.append(v)

    descend(cells0)
    return best_perm, best_cert, autos


def canon_core(rows, n, desc=False):
    """Canonical permutation, certificate and automorphism generators.

    ``desc`` flips the cell-ordering convention, giving an independent
    second canonical form for cross-checks.
    """
    if n == 0:
        return (), 0, []
    cells = _refine(rows, n, [list(range(n))], desc)
    if all(len(c) == 1 for c in cells):
        perm = tuple(c[0] for c in cells)
        return perm, _pack_cert(rows, perm, n), []
    return _search(rows, n, cells, desc)


def canonical_form(g, desc=False):
    """Canonically relabeled copy of g."""
    perm, _, _ = canon_core(g.rows, g.n, desc)
    return relabel(g, perm)


def canonical_label(g, desc=False):
    """CanonicalLabel wrapping the graph6 string of the canonical form."""
    return CanonicalLabel(graph6_encode(canonical_form(g, desc)).encode("ascii"))


def automorphism_generators(g):
    _, _, autos = canon_core(g.rows, g.n)
    return autos


def orbits_from_generators(n, autos):
    """Orbit id per vertex (smallest member) under the generated group."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in autos:
        for v in range(n):
            rv, rw = find(v), find(a[v])
            if rv != rw:
                if rv < rw:
                    parent[rw] = rv
                else:
                    parent[rv] = rw
    return [find(v) for v in range(n)]


def automorphism_group_order(g):
    """Order of Aut(g) by closure enumeration; meant for small patterns."""
    gens = automorphism_generators(g)
    identity = tuple(range(g.n))
    group = {identity}
    frontier = [identity]
    while frontier:
        p = frontier.pop()
        for a in gens:
            q = tuple(a[p[i]] for i in range(g.n))
            if q not in group:
                group.add(q)
                frontier.append(q)
    return len(group)
