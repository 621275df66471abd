"""Exact canonical labeling by refinement and individualization.

The certificate of a graph is the maximum, over the leaves of the
individualization-refinement tree, of the packed upper-triangle bits of
the relabeled adjacency matrix.  Two graphs are isomorphic iff their
certificates (together with the order) coincide.

The ordered-partition machinery follows the usual scheme:

  * ``_refine`` drives a partition to its coarsest stable refinement,
    splitting cells by neighbor counts against every current cell;
    sub-cells are ordered by their split key, so the cell order of the
    result is itself an isomorphism invariant.
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


def _refine(rows, n, cells, desc, keep=None):
    """Coarsest stable refinement of an ordered partition.

    Split keys pack per-cell neighbor counts into one int when n < 16,
    falling back to tuples for larger graphs.

    With ``keep`` set, returns None as soon as vertex ``keep`` leaves the
    last cell.  A round only splits cells and keeps their order, so the
    last cells of successive rounds are nested and the exit is exact.
    """
    small = n < 16
    while True:
        masks = []
        for c in cells:
            m = 0
            for v in c:
                m |= 1 << v
            masks.append(m)
        if keep is not None and not (masks[-1] >> keep) & 1:
            return None
        new_cells = []
        changed = False
        for c in cells:
            if len(c) == 1:
                new_cells.append(c)
                continue
            buckets = {}
            if small:
                for v in c:
                    rv = rows[v]
                    key = 0
                    for m in masks:
                        key = (key << 4) | (rv & m).bit_count()
                    b = buckets.get(key)
                    if b is None:
                        buckets[key] = [v]
                    else:
                        b.append(v)
            else:
                for v in c:
                    rv = rows[v]
                    key = tuple((rv & m).bit_count() for m in masks)
                    b = buckets.get(key)
                    if b is None:
                        buckets[key] = [v]
                    else:
                        b.append(v)
            if len(buckets) == 1:
                new_cells.append(c)
            else:
                changed = True
                for k in sorted(buckets, reverse=desc):
                    new_cells.append(buckets[k])
        if not changed:
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


def _stabilizes_cells(auto, cells):
    for c in cells:
        cs = set(c)
        for v in c:
            if auto[v] not in cs:
                return False
    return True


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
        for v in cell:
            if explored:
                stab = [a for a in autos if _stabilizes_cells(a, cells)]
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
            descend(_refine(rows, n, prefix + [[v], rest] + suffix, desc))
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


def are_isomorphic(g, h):
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    return canon_core(g.rows, g.n)[1] == canon_core(h.rows, h.n)[1]
