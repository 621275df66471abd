"""Exact canonical labeling by refinement and individualization.

The certificate of a graph is the maximum, over the leaves of the
individualization-refinement tree, of the packed upper-triangle bits of
the relabeled adjacency matrix.  Two graphs are isomorphic iff their
certificates (together with the order) coincide.

An ordered partition is a list of cells, each an int mask of its
vertices; a cell lists its vertices in ascending order, a vertex's count
in a cell is one AND and popcount, and individualizing v in cell c
gives the cells ``1 << v`` and ``c ^ (1 << v)``.  The machinery follows
the usual scheme:

  * ``_refine`` drives a partition to its coarsest stable refinement,
    splitting cells by neighbor counts against the cells that changed
    last; sub-cells are ordered by their split key, so the cell order of
    the result is itself an isomorphism invariant.
  * The general round packs a vertex's counts in all splitters into one
    key per vertex (with one splitter, the count itself).  Two cases need
    less.  With one splitter that is a single vertex w, a count is 1 on
    the row of w and 0 off it, so a cell c splits into ``c & ~rows[w]``
    and ``c & rows[w]`` with no key at all (``_row_split``); that is the
    first round after every individualization in the search, whose only
    splitter is the new one-vertex cell.  A cell of two vertices is
    ordered by the first splitter in which their counts differ.  Each
    gives the cells, their order and the next splitters of the general
    round, since sorting one bit or comparing count tuples from the front
    orders the sub-cells as sorting the packed keys does; so no
    permutation, certificate or generator depends on which case ran.
  * If the stable partition is discrete the graph is rigid (every
    automorphism preserves the cells) and the single leaf is canonical.
  * Otherwise the search individualizes each vertex of the first
    non-singleton cell in turn, pruning branches that are equivalent to
    an explored one under already-discovered automorphisms.

Automorphisms are harvested from leaf-certificate collisions with the
first and the best leaf; with the pruning rule above the collected
permutations generate the full automorphism group.

Canonical augmentation asks at a leaf only whether a vertex j of the
last cell lies in the orbit of the best leaf's last vertex.  Two
narrower searches of the same tree answer that: the best certificate
B_j among the leaves ending at j (``keep=j``), then whether any leaf
lies above B_j (``above=B_j``, which returns at the first such leaf).
j is in the orbit iff B_j exists and no leaf lies above it: the
starting partition is invariant, so an automorphism taking the best
leaf's last vertex to j takes the best leaf to a leaf ending at j with
the same certificate, and two leaves with equal certificates differ by
an automorphism.

Everything here is exact; speed is tuned for n <= 11 (the enumeration
range) but nothing breaks for moderately larger graphs.
"""

from __future__ import annotations

from .graphs import relabel


def _split(rows, cells, splitters, b, desc):
    """One refinement round: each cell of ``cells`` split by its vertices'
    counts in the ``splitters``, packed into keys with ``b`` bits per count.
    A cell of two vertices needs no key: the first splitter in which their
    counts differ orders them, as it orders their packed keys.

    Returns the new cells, in order, and the indices of the sub-cells of
    every split but the last one of each: the splitters of the next round.
    """
    new_cells = []
    active = []
    for c in cells:
        if not c & (c - 1):
            new_cells.append(c)
            continue
        low = c & -c
        high = c ^ low
        if not high & (high - 1):
            # two vertices, ordered by the first splitter they differ in
            rx = rows[low.bit_length() - 1]
            ry = rows[high.bit_length() - 1]
            for m in splitters:
                cx = (rx & m).bit_count()
                cy = (ry & m).bit_count()
                if cx != cy:
                    if (cx > cy) != desc:
                        low, high = high, low
                    active.append(len(new_cells))
                    new_cells.append(low)
                    new_cells.append(high)
                    break
            else:
                new_cells.append(c)
            continue
        buckets = {}
        t = c
        while t:
            low = t & -t
            rv = rows[low.bit_length() - 1]
            key = 0
            for m in splitters:
                key = (key << b) | (rv & m).bit_count()
            buckets[key] = buckets.get(key, 0) | low
            t ^= low
        if len(buckets) == 1:
            new_cells.append(c)
        else:
            keys = sorted(buckets, reverse=desc)
            for k in keys[:-1]:
                active.append(len(new_cells))
                new_cells.append(buckets[k])
            new_cells.append(buckets[keys[-1]])
    return new_cells, active


def _row_split(cells, row, desc):
    """A refinement round whose one splitter is a single vertex w, with
    ``row = rows[w]``: a vertex's count in {w} is 1 on the row and 0 off
    it, so every non-singleton cell c splits into ``c & ~row`` and
    ``c & row``, in that order (the reverse under ``desc``), unless one
    of the two is empty.  Returns what ``_split`` returns for the round.
    """
    new_cells = []
    active = []
    for c in cells:
        if c & (c - 1):
            off, on = c & ~row, c & row
            if off and on:
                active.append(len(new_cells))
                new_cells += (on, off) if desc else (off, on)
                continue
        new_cells.append(c)
    return new_cells, active


def _refine(rows, n, cells, desc, keep=None, active=None, alone=False):
    """Coarsest stable refinement of an ordered partition.

    Cells are int masks.  Each round (``_split``) splits every cell by
    its vertices' neighbour counts in the splitter cells and orders the
    sub-cells by those counts.  The first round's splitters are the cells
    at the indices ``active`` (all cells by default); a caller passes
    fewer only when the counts against the others are constant on every
    cell, or, for a partition by degree with every cell active but the
    last, fixed by the other counts: a vertex's count in the last cell is
    its degree less the rest.  Later rounds split only against the cells
    the previous round created, less the last sub-cell of each split: the
    counts against an unchanged cell are constant on every current cell,
    and so is the sum over the sub-cells of a split one, so dropping them
    changes neither the split nor the order of the sub-cells, whose keys
    compare lexicographically (the splitter rule of McKay and Piperno,
    J. Symbolic Comput. 60, 2014).  The result is the one a refinement
    against all cells in every round gives.  With ``active`` empty the
    partition is taken as stable, and so is a discrete one.

    A split key packs a vertex's counts, in splitter order, into one int
    with a field of ``n.bit_length()`` bits per count: no count reaches
    n, and every key of a round has the same fields, so keys sort as the
    count tuples do lexicographically.  A round whose one splitter is a
    single vertex runs as ``_row_split``.

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
    while active:
        if keep is not None:
            last = cells[-1]
            if not last >> keep & 1:
                return None
            if alone and last == 1 << keep:
                return cells
        if len(cells) == n:
            break
        if len(active) == 1 and not (w := cells[active[0]]) & (w - 1):
            cells, active = _row_split(cells, rows[w.bit_length() - 1], desc)
        else:
            cells, active = _split(rows, cells, [cells[i] for i in active], b, desc)
    return cells


def _pack_cert(rows, perm):
    cert = 0
    rest = list(perm)
    for u in perm:
        del rest[0]
        ru = rows[u]
        for v in rest:
            cert = cert << 1 | ru >> v & 1
    return cert


def _search(rows, n, cells0, desc, keep=None, above=None, autos=None):
    """Search the individualization-refinement tree below the stable
    partition ``cells0`` for its best leaf.

    Returns the best leaf's permutation and certificate and the
    automorphisms found, or (None, -1, autos) when the tree has no leaf.
    Pruning skips a branch that an automorphism fixing every cell maps to
    an explored one, so the best certificate is that of the whole tree.

    With ``keep`` set, which must lie in the last cell of ``cells0``,
    every refinement passes it on (see ``_refine``): the tree shrinks to
    the leaves whose last vertex is ``keep``, and the automorphisms found,
    from collisions between those leaves, fix it.  With ``above`` set the
    search returns at the first leaf whose certificate exceeds it, so the
    certificate returned exceeds ``above`` iff some leaf's does.
    ``autos``, automorphisms found by an earlier search of the same
    graph, start the pruning.
    """
    best_cert = -1
    best_perm = None
    first_cert = None
    first_perm = None
    autos = list(autos or ())
    auto_seen = {tuple(range(n)), *autos}

    def add_auto(p0, p1):
        a = [0] * n
        for u, w in zip(p0, p1):
            a[u] = w
        a = tuple(a)
        if a not in auto_seen:
            auto_seen.add(a)
            autos.append(a)

    def descend(cells):
        """Search below ``cells``; True when a leaf exceeds ``above``."""
        nonlocal best_cert, best_perm, first_cert, first_perm
        if cells is None:  # ``keep`` left the last cell
            return False
        if len(cells) == n:
            perm = tuple([c.bit_length() - 1 for c in cells])
            cert = _pack_cert(rows, perm)
            if first_cert is None:
                first_cert, first_perm = cert, perm
            else:
                if cert == first_cert:
                    add_auto(first_perm, perm)
                if cert == best_cert and best_perm is not first_perm:
                    add_auto(best_perm, perm)
            if cert > best_cert:
                best_cert, best_perm = cert, perm
            return above is not None and cert > above
        idx = 0
        for c in cells:
            if c & (c - 1):
                break
            idx += 1
        cell = cells[idx]
        prefix = cells[:idx]
        suffix = cells[idx + 1:]
        explored = []
        stab = []  # the automorphisms found so far that fix every cell
        tested = 0
        cell_of = None
        t = cell
        while t:
            bit = t & -t
            t ^= bit
            v = bit.bit_length() - 1
            if explored:
                if tested < len(autos):
                    if cell_of is None:
                        cell_of = [0] * n
                        for i, c in enumerate(cells):
                            while c:
                                low = c & -c
                                cell_of[low.bit_length() - 1] = i
                                c ^= low
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
            cells1 = prefix + [bit, cell ^ bit] + suffix
            if descend(_refine(rows, n, cells1, desc, keep=keep, active=(idx,))):
                return True
            explored.append(v)
        return False

    descend(cells0)
    return best_perm, best_cert, autos


def canon_core(rows, n, desc=False):
    """Canonical permutation, certificate and automorphism generators.

    ``desc`` flips the cell-ordering convention, giving an independent
    second canonical form for cross-checks.
    """
    if n == 0:
        return (), 0, []
    cells = _refine(rows, n, [(1 << n) - 1], desc)
    if len(cells) == n:
        perm = tuple(c.bit_length() - 1 for c in cells)
        return perm, _pack_cert(rows, perm), []
    return _search(rows, n, cells, desc)


def canonical_form(g, desc=False):
    """Canonically relabeled copy of g."""
    perm, _, _ = canon_core(g.rows, g.n, desc)
    return relabel(g, perm)


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

