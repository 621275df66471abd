"""Isomorph-free exhaustive graph generation by canonical augmentation.

Graphs on n vertices are generated by extending each accepted graph on
j < n vertices with one new vertex and every attachment set, subject to
two symmetry gates that together emit exactly one representative per
isomorphism class without any global seen-set:

  * attachment sets are deduplicated per parent up to the parent's
    automorphism group (one subset per orbit);
  * a child is kept only when the added vertex lies in the orbit of the
    canonical-deletion vertex, taken as the vertex in the last position
    of the canonical labeling.

Acceptance runs its cheapest stage first (the vertex-invariant cascade
of McKay, J. Algorithms 26, 1998).  Because refinement orders cells by
degree, the canonical-deletion vertex always carries the extremal
degree; that depends only on the parent and the attachment set, so it
is part of the parent's window and no child failing it is built.  A
built child is then refined, stopping at the first round that moves the
new vertex out of the last cell.  When the refined partition is
discrete the graph is rigid and the decision needs no search at all,
nor does it at a leaf whose last cell is the new vertex alone.

Filters push down only hereditary consequences (degree caps, edge-count
reachability, regularity deficiency bounds, forbidden-subgraph
freeness); exact conditions such as the edge count are enforced at
emission, so pruning never changes the emitted set.  The first three
shape a per-parent window of admissible attachment sets, together with
the degree stage above, so no inadmissible child is ever built (the
regular-graph generation scheme of Meringer, J. Graph Theory 30, 1999).

``GenStats.pruned`` counts the children dropped after they were built,
by reason: ``forbidden`` (the child contains a forbidden pattern
through the new vertex), ``canonical`` (the new vertex has the
extremal degree but is not in the orbit of the canonical-deletion
vertex) and ``connectivity`` (a leaf failing the ``connected`` filter
at emission).

The ``desc`` flag flips the cell-ordering convention of the canonical
form, producing a second, independently structured augmentation tree
used for cross-checks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .canon import _refine, _search, orbits_from_generators
from .graphs import Graph, contains_subgraph, is_connected

HARD_CAP = 11


class EnumerationError(ValueError):
    pass


@dataclass
class GenFilter:
    """Declarative class filter for exhaustive generation."""

    n: int
    max_degree: int | None = None
    edge_count: int | None = None
    regular_k: int | None = None
    connected: bool | None = None
    # search support: graphs containing any of these are never emitted;
    # freeness is hereditary, so it is safe to prune mid-tree.
    forbidden: tuple = ()

    def validate(self):
        if self.n < 1:
            raise EnumerationError("order must be >= 1")
        if self.regular_k is not None:
            k = self.regular_k
            if not 0 <= k < self.n:
                raise EnumerationError("regular degree must satisfy 0 <= k < n")
            if self.max_degree is not None and self.max_degree < k:
                raise EnumerationError("max_degree below regular_k")
            if self.edge_count is not None and 2 * self.edge_count != self.n * k:
                raise EnumerationError("edge_count inconsistent with regular_k")

    def infeasible(self):
        """True when no graph can satisfy the filter (flagged, not raised)."""
        if self.regular_k is not None and (self.n * self.regular_k) % 2 != 0:
            return True
        cap = self.n * (self.n - 1) // 2
        if self.max_degree is not None:
            cap = min(cap, self.n * self.max_degree // 2)
        if self.edge_count is not None and self.edge_count > cap:
            return True
        return False


@dataclass
class GenStats:
    classes: int = 0
    nodes: int = 0
    pruned: dict = field(default_factory=dict)
    seconds: float = 0.0
    infeasible: bool = False

    def bump(self, reason, amount=1):
        self.pruned[reason] = self.pruned.get(reason, 0) + amount

    def merge(self, other):
        """Add the counts of another run: a subtree or an earlier scan."""
        self.classes += other.classes
        self.nodes += other.nodes
        self.seconds += other.seconds
        self.infeasible = self.infeasible or other.infeasible
        for key, val in other.pruned.items():
            self.bump(key, val)


class _Stop(Exception):
    pass


def _extend(rows, j, s):
    bit = 1 << j
    new = list(rows)
    m = s
    while m:
        low = m & -m
        new[low.bit_length() - 1] |= bit
        m ^= low
    new.append(s)
    return tuple(new)


def _box_sets(j, box):
    """The sets of one box ``(free, forced, lo, hi)``, increasing: ``forced | t``
    for the submasks ``t`` of ``free`` with ``lo <= |forced | t| <= hi``."""
    free, forced, lo, hi = box
    if free == (1 << j) - 1:
        cands = range(1 << j)
    else:
        cands = []
        t = 0
        while True:
            cands.append(forced | t)
            t = (t - free) & free
            if not t:
                break
    if lo > forced.bit_count() or hi < (free | forced).bit_count():
        cands = [s for s in cands if lo <= s.bit_count() <= hi]
    return cands


def _attachment_reps(j, gens, window):
    """Orbit representatives of the admissible attachment sets, increasing.

    ``window`` is a list of boxes (see ``_Run.window``) holding sets of
    distinct sizes; their sets are merged into one increasing list.  The
    window is a union of orbits of the parent's automorphism group, so
    the first candidate met in each orbit is the orbit's minimum, as in
    a scan of all 2^j subsets.
    """
    if len(window) == 1:
        cands = _box_sets(j, window[0])
    else:
        cands = []
        for box in window:
            cands.extend(_box_sets(j, box))
        cands.sort()
    if not gens:
        return cands
    seen = bytearray(1 << j)
    reps = []
    for s in cands:
        if seen[s]:
            continue
        reps.append(s)
        seen[s] = 1
        stack = [s]
        while stack:
            t = stack.pop()
            for a in gens:
                u = 0
                m = t
                while m:
                    low = m & -m
                    u |= 1 << a[low.bit_length() - 1]
                    m ^= low
                if not seen[u]:
                    seen[u] = 1
                    stack.append(u)
    return reps


def _accept(rows, nc, desc, leaf):
    """Canonical-augmentation acceptance for the vertex added last.

    The window has already admitted only children whose new vertex has
    the extremal degree.  Refinement stops at the first round that moves
    the new vertex out of the last cell; a discrete refinement is rigid
    and needs no search.  Nor does a ``leaf``, whose generators are never
    used, once the new vertex is alone in the last cell; its refinement
    stops there.

    Returns (accepted, generators); generators are only meaningful on
    acceptance and feed the child's own subset deduplication.
    """
    j = nc - 1
    cells = _refine(rows, nc, [list(range(nc))], desc, keep=j, alone=leaf)
    if cells is None:
        return False, None
    if len(cells) == nc or (leaf and len(cells[-1]) == 1):
        # j alone in the last cell of every leaf: the canonical-last vertex
        return True, []
    perm, _, autos = _search(rows, nc, cells, desc)
    w = perm[nc - 1]
    if w == j:
        return True, autos
    orb = orbits_from_generators(nc, autos)
    return orb[w] == orb[j], autos


class _Run:
    def __init__(self, filt, visitor, desc, split=None):
        self.filt = filt
        self.n = filt.n
        self.r = filt.max_degree if filt.max_degree is not None else filt.n - 1
        if filt.regular_k is not None:
            self.r = min(self.r, filt.regular_k)
        self.k = filt.regular_k
        self.m = filt.edge_count
        if self.k is not None:
            self.m = self.n * self.k // 2
        self.connected = filt.connected
        self.forbidden = filt.forbidden
        self.visitor = visitor
        self.desc = desc
        self.stats = GenStats()
        # nodes at depth ``split`` are recorded as seeds, not descended
        self.split = split
        self.seeds = []
        self.leaf = self.emit
        # max edges addable by vertices j+1..n-1 given the degree cap
        self.future = [0] * (self.n + 1)
        for j in range(self.n - 1, -1, -1):
            self.future[j] = self.future[j + 1] + min(j, self.r)

    def emit(self, rows):
        g = Graph(self.n, rows)
        if self.connected is not None and is_connected(g) != self.connected:
            self.stats.bump("connectivity")
            return
        self.stats.classes += 1
        if self.visitor is not None:
            if self.visitor(g):
                raise _Stop

    def window(self, rows, j, edges):
        """Admissible attachment sets for vertex j, as a list of boxes.

        A box ``(free, forced, lo, hi)`` holds the sets ``s = forced | t``
        for the submasks t of ``free`` with ``lo <= |s| <= hi``; the boxes
        hold sets of distinct sizes, and None stands for no box.  The
        pushdowns are the degree cap, edge-count reachability and, for a
        regular filter, the deficiencies that the remaining f = n - j - 1
        vertices can still make up.

        The window also holds the first stage of canonical acceptance:
        refinement orders cells by degree, so the new vertex must attain
        the extremal degree of the child.  With D the parent's maximum
        degree that means |s| >= D, and a set of size D misses every
        vertex of degree D; in ``desc`` order, with d the minimum degree,
        |s| <= d + 1, and a set of size d + 1 holds every vertex of
        degree d.  Every condition is invariant under the parent's
        automorphisms, so the window is a union of their orbits.
        """
        r, m, k = self.r, self.m, self.k
        degs = [row.bit_count() for row in rows]
        avail = 0
        for v, dv in enumerate(degs):
            if dv < r:
                avail |= 1 << v
        forced = 0
        lo, hi = 0, r
        if m is not None:
            lo = m - edges - self.future[j + 1]
            hi = min(hi, m - edges)
        if k is not None:
            f = self.n - j - 1
            # a vertex short of f + 1 edges needs the new one; a forced
            # vertex has degree k - f - 1 < k = r, so it is in avail
            for v, dv in enumerate(degs):
                deficit = k - dv
                if deficit > f:
                    if deficit > f + 1:
                        return None
                    forced |= 1 << v
            # the total deficiency left, (j + 1)*k - 2*(edges + |s|), must
            # fit in the f*k degrees of the last f vertices; with m = n*k/2
            # and future[j + 1] <= f*k that is already the edge bound above
            lo = max(lo, k - f)
        free = avail & ~forced
        d = min(degs) if self.desc else max(degs)
        ext = 0
        for v, dv in enumerate(degs):
            if dv == d:
                ext |= 1 << v
        # ext needs no check against the other masks: in desc order a
        # vertex of degree d outside free | forced is at the cap, so
        # d + 1 > r >= hi; in ascending order a forced vertex of degree d
        # makes lo >= k - f = d + 1
        if self.desc:
            boxes = [
                (free, forced, lo, min(hi, d)),
                (free & ~ext, forced | ext, max(lo, d + 1), min(hi, d + 1)),
            ]
        else:
            boxes = [
                (free & ~ext, forced, max(lo, d), min(hi, d)),
                (free, forced, max(lo, d + 1), hi),
            ]
        window = []
        for free, forced, lo, hi in boxes:
            lo = max(lo, forced.bit_count())
            hi = min(hi, forced.bit_count() + free.bit_count())
            if lo <= hi:
                window.append((free, forced, lo, hi))
        return window or None

    def descend(self, rows, j, gens, edges):
        if j == self.split:
            self.seeds.append((rows, gens, edges))
            return
        self.stats.nodes += 1
        if j == self.n:
            self.leaf(rows)
            return
        window = self.window(rows, j, edges)
        if window is None:
            return
        for s in _attachment_reps(j, gens, window):
            child = _extend(rows, j, s)
            if self.forbidden:
                cg = Graph(j + 1, child)
                if any(contains_subgraph(cg, h, anchor=j) for h in self.forbidden):
                    self.stats.bump("forbidden")
                    continue
            ok, child_gens = _accept(child, j + 1, self.desc, j + 1 == self.n)
            if not ok:
                self.stats.bump("canonical")
                continue
            self.descend(child, j + 1, child_gens, edges + s.bit_count())

    def subtree(self, seed, leaf):
        """Descend one seed without emitting: ``leaf`` gets the rows of its
        leaves in order; returns the counts of its subtree."""
        rows, gens, edges = seed
        sub = _Run(self.filt, None, self.desc)
        sub.leaf = leaf
        sub.descend(rows, len(rows), gens, edges)
        return sub.stats


def enumerate_graphs(filt, visitor=None, desc=False, force=False, jobs=1):
    """Run the generator; the visitor sees one Graph per class.

    A visitor returning a truthy value stops the run early.  Orders
    beyond the hard cap (n = 11) require ``force``.

    With ``jobs > 1`` the descent stops at depth n - 2 and records the
    accepted graphs there as seeds; ``jobs`` forked processes descend
    the seeds' subtrees (see ``parallel``; a lone seed is
    descended in this process), and their leaves are emitted here in
    seed order.  The visitor runs in this process and sees the classes
    in serial order, so results and counts are those of a serial run.
    """
    filt.validate()
    if filt.n > HARD_CAP and not force:
        raise EnumerationError(
            f"order {filt.n} beyond enumeration cap {HARD_CAP}; pass --force "
            "(force=True from Python)"
        )
    t0 = time.perf_counter()
    run = _Run(filt, visitor, desc, split=max(1, filt.n - 2) if jobs > 1 else None)
    if filt.infeasible():
        run.stats.infeasible = True
    else:
        try:
            run.descend((0,), 1, [], 0)
            if jobs > 1:
                from . import parallel

                parallel.parallel_scan(run, jobs)
        except _Stop:
            pass
    run.stats.seconds = time.perf_counter() - t0
    return run.stats


def enumerate_regular(n, k, visitor=None, desc=False, forbidden=(), force=False, jobs=1):
    """One representative per isomorphism class of k-regular graphs.

    Enumerates the sparser of the graph and its complement; forbidden
    patterns prune during generation on the direct side and are checked
    after complementing on the dense side.
    """
    if not 0 <= k < n:
        raise EnumerationError("regular degree must satisfy 0 <= k < n")
    if (n * k) % 2 != 0:
        stats = GenStats(infeasible=True)
        return stats
    kc = n - 1 - k
    if kc < k:
        from .graphs import complement

        def wrapped(g):
            gc = complement(g)
            if forbidden and any(contains_subgraph(gc, h) for h in forbidden):
                return None
            return visitor(gc) if visitor is not None else None

        # stats.classes counts all k-regular classes here; callers needing
        # exact H-free counts tally matches inside their visitor.
        return enumerate_graphs(
            GenFilter(n=n, regular_k=kc), visitor=wrapped, desc=desc, force=force, jobs=jobs
        )
    return enumerate_graphs(
        GenFilter(n=n, regular_k=k, forbidden=tuple(forbidden)),
        visitor=visitor,
        desc=desc,
        force=force,
        jobs=jobs,
    )
