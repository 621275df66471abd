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
of McKay, J. Algorithms 26, 1998), and no stage runs twice or for a
child already rejected.  Because refinement orders cells by degree, the
canonical-deletion vertex always carries the extremal degree; that
depends only on the parent and the attachment set, so it is part of the
parent's window and no child failing it is built.  The second
refinement round splits the degree cells by the counts in every degree
cell but the last, the new vertex's; none of those holds the new
vertex, so the parent's rows and the attachment set give the round
before the child exists.  A child whose new vertex leaves the last cell
there is rejected unbuilt, and a leaf whose new vertex is left alone
there is accepted unbuilt.  Any other child is built and
refined from that round-2 partition, round 3 on, stopping at the first
round that moves the new vertex out of the last cell.  The
canonical-deletion vertex lies in the last refined cell, which holds
the new vertex too, so a proof that this cell is one orbit accepts the
child with no search, as the search would.  A node whose generators its
children read has the proof when every cell with more than one vertex
is a twin class (rows equal off the two vertices): every automorphism
keeps each cell and any permutation within a twin class is one, so the
transpositions within the cells generate the whole group, and a
discrete, rigid partition is the case with no such cell (see
``_twin_generators``).  A leaf has it when an automorphism, checked on
every row, swaps the new vertex with each other vertex of the last
cell, j alone there included.  The automorphism is an involution of
disjoint swaps, each pairing, cell by cell, the vertices that the ends
of an earlier swap see differently (see ``_involution``).  Otherwise
the canonical search decides.  At a leaf it asks two narrower questions
of the search tree, the best leaf ending at the new vertex and then any
leaf above it, which a rejected leaf usually answers early (see
``canon``); any other node gets the one full search.  So every verdict
stays the same, and the generators a node hands on generate the same
group, which is all its children's orbit representatives depend on.
Cells are int masks from the degree classes to the search.

Filters push down only hereditary consequences (degree caps, edge-count
reachability, regularity deficiency bounds, forbidden-subgraph
freeness); exact conditions such as the edge count are enforced at
emission, so pruning never changes the emitted set.  The first three
shape a per-parent window of admissible attachment sets, together with
the degree stage above, so no inadmissible child is ever built (the
regular-graph generation scheme of Meringer, J. Graph Theory 30, 1999).
Under a fixed edge count the window also bounds the attachment size by
what the later vertices can still complete: a regular filter's
completion floor (the later vertices take at least k - f + 1 edges
each from the earlier ones, f being how many are left), and the size
order that the degree stage fixes along every path (sizes never fall
in ascending order and rise by at most one a step in ``desc`` order).
These bounds cut only children whose subtree emits nothing, so they
lower the node and prune counts and leave the emitted set and its order
unchanged.

A scorer and a per-child test have one shape: built once per node from
its rows, a function of the attachment set s.  A canonical parent is an
induced subgraph of its child, so a scorer's count of a child is the
parent's count plus ``through(rows)(s)``, the copies through the new
vertex (``PatternCounter``, ``CliqueTotal``, ``_NoScore``); each node
carries its count and builds ``through`` at its first accepted child.
A test, rows -> (s -> drop?), is one ``(reason, test)`` entry of the
run's list, which ``descend`` runs in order before the degree stage: a
dropped child counts once in ``GenStats.pruned``, under the first
reason that drops it.  The entries are the forbidden patterns, each H
as ``PatternCounter(H).through(rows, first=True)``, a copy through the
new vertex.  The other reasons are ``canonical`` (the new vertex has
the extremal degree but is not in the orbit of the canonical-deletion
vertex, found by the degree stage or a refinement) and ``connectivity``
(a leaf failing ``connected`` at emission).  A leaf is handed over as
(count, parent rows, s), unbuilt if the degree stage accepts it (a leaf
call builds it with ``extend_graph``).  At ``jobs > 1`` the seeds carry
their counts and the workers send each leaf's with its parent rows and
set (see ``parallel``), so the main process only compares.

The ``desc`` flag flips the cell-ordering convention of the canonical
form, producing a second, independently structured augmentation tree
used for cross-checks.
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations, repeat

from .canon import _refine, _search, _split, orbits_from_generators
from .graphs import PatternCounter, _extend, bits, extend_graph, is_connected

HARD_CAP = 11


class EnumerationError(ValueError):
    pass


class CapError(EnumerationError):
    """An order past ``HARD_CAP`` without ``force``; the message names no
    remedy, since only some callers can pass ``force``."""


@dataclass
class GenFilter:
    """Declarative class filter for exhaustive generation."""

    n: int
    max_degree: int | None = None
    edge_count: int | None = None
    regular_k: int | None = None
    connected: bool = False
    # search support: graphs containing any of these are never emitted;
    # freeness is hereditary, so it is safe to prune mid-tree.
    forbidden: tuple = ()

    def validate(self):
        k = self.regular_k
        # before the order check, so that n < 1 with a degree reads as a bad degree
        if k is not None and not 0 <= k < self.n:
            raise EnumerationError("regular degree must satisfy 0 <= k < n")
        if self.n < 1:
            raise EnumerationError("order must be >= 1")
        if self.max_degree is not None and self.max_degree < 0:
            raise EnumerationError("max_degree must be >= 0")
        if self.edge_count is not None and self.edge_count < 0:
            raise EnumerationError("edge_count must be >= 0")
        if k is not None:
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
    # this process plus the workers it reaped during the scan
    cpu_seconds: float = 0.0

    def bump(self, reason, amount=1):
        self.pruned[reason] = self.pruned.get(reason, 0) + amount

    def merge(self, other):
        """Add the counts of another run: a subtree or an earlier scan."""
        self.classes += other.classes
        self.nodes += other.nodes
        self.seconds += other.seconds
        self.cpu_seconds += other.cpu_seconds
        self.infeasible = self.infeasible or other.infeasible
        for key, val in other.pruned.items():
            self.bump(key, val)


class _Stop(Exception):
    pass


def _attachment_reps(j, gens, window):
    """Orbit representatives of the admissible attachment sets, increasing.

    ``window`` is a list of boxes (see ``_Run.window``) holding sets of
    distinct sizes: box ``(free, forced, lo, hi)`` holds ``forced | t``
    for the submasks t of ``free`` with ``lo <= |forced | t| <= hi``,
    made one size at a time from the combinations of the bits of
    ``free``.  The window is a union of orbits of the parent's
    automorphism group, so the first candidate met in each orbit is the
    orbit's minimum, as in a scan of all 2^j subsets.  A generator maps
    a set through two tables, one for the lower h = j // 2 vertices and
    one for the rest, each indexed by that part of the set.
    """
    cands = []
    for free, forced, lo, hi in window:
        # bit values in descending order: each size comes out decreasing
        vals = [1 << v for v in range(j - 1, -1, -1) if free >> v & 1]
        base = forced.bit_count()
        for k in range(lo - base, hi - base + 1):
            cands.extend(map(sum, combinations(vals, k), repeat(forced)))
    cands.sort()
    if not gens:
        return cands
    h = j // 2
    low = (1 << h) - 1
    tables = []
    for a in gens:
        halves = []
        for part in (range(h), range(h, j)):
            table = [0]
            for v in part:
                image = 1 << a[v]
                table += [u | image for u in table]
            halves.append(table)
        tables.append(halves)
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
            tl, th = t & low, t >> h
            for lower, upper in tables:
                u = lower[tl] | upper[th]
                if not seen[u]:
                    seen[u] = 1
                    stack.append(u)
    return reps


def _degree_classes(rows):
    """The parent's vertices by degree, as masks: ``{degree: mask}``."""
    classes = {}
    for v, row in enumerate(rows):
        d = row.bit_count()
        classes[d] = classes.get(d, 0) | 1 << v
    return classes


def _child_degrees(classes, desc):
    """The degree cells of the parent's children, in cell order.

    A child's vertex has the parent degree plus one if it is in the
    attachment set s, so the child's cell of degree e is
    ``(P[e] & ~s) | (P[e - 1] & s)``; one ``(e, P[e], P[e - 1])`` per
    possible degree e, with P the parent's ``classes``.
    """
    order = sorted({e for d in classes for e in (d, d + 1)}, reverse=desc)
    return [(e, classes.get(e, 0), classes.get(e - 1, 0)) for e in order]


def _degree_stage(rows, s, degrees, desc):
    """Refinement rounds 1 and 2 of a child, read from its parent.

    ``rows`` is the parent, whose child adds vertex j = len(rows) with
    attachment set ``s`` and, by the window, the extremal degree;
    ``degrees`` is the parent's ``_child_degrees``.  Round 1 splits the
    one cell by degree, so its last cell T holds j.  Round 2 splits
    against every cell but T, none of which holds j, so a vertex's
    counts there, its key in cell order, are the same in the parent as
    in the child, and j's are those of s.

    Returns None when some vertex of T has a larger key than j (a smaller
    one in ``desc`` order), which is exactly when refinement moves j out
    of the last cell in round 2.  Otherwise returns the round-1 cells
    other than T, as masks in cell order, and the round-2 split of T:
    its sub-cells as masks in cell order, the last one holding j.
    """
    j = len(rows)
    e = s.bit_count()
    b = (j + 1).bit_length()  # counts stay below 2^b
    lower = []
    kj = top = 0
    rest = ~s
    for d, stay, grow in degrees:
        cell = (stay & rest) | (grow & s)
        if d == e:
            top = cell
        elif cell:
            lower.append(cell)
            kj = (kj << b) | (s & cell).bit_count()
    if not top:
        return lower, [1 << j]
    split = {kj: 1 << j}
    while top:
        low = top & -top
        rv = rows[low.bit_length() - 1]
        kv = 0
        for m in lower:
            kv = (kv << b) | (rv & m).bit_count()
        if kv != kj and (kv > kj) != desc:
            return None
        split[kv] = split.get(kv, 0) | low
        top ^= low
    return lower, [split[k] for k in sorted(split, reverse=desc)]


def _involution(rows, cells, a, b):
    """Whether a checked automorphism of disjoint transpositions swaps a
    and b.

    Starts from the swap (a b) and adds swaps pair by pair: the
    unswapped vertices that one end of a swapped pair sees and the other
    does not must go to those that only the other end sees.  An
    automorphism keeps every cell of the invariant partition ``cells``,
    so the two sets are split by cell and each cell's parts, when of one
    size, are paired up in bit order and swapped.  Parts of different
    sizes in some cell, or a result that fails the check on every row,
    are no proof (False), though such an automorphism may still exist.
    """
    n = len(rows)
    image = list(range(n))
    image[a], image[b] = b, a
    pairs = [(a, b)]
    free = ((1 << n) - 1) ^ (1 << a) ^ (1 << b)
    for x, y in pairs:  # grows as swaps are added
        rx, ry = rows[x], rows[y]
        dx, dy = rx & ~ry & free, ry & ~rx & free
        if not dx | dy:
            continue
        free ^= dx | dy
        for c in cells:
            cx, cy = dx & c, dy & c
            if cx.bit_count() != cy.bit_count():
                return False
            for u, w in zip(bits(cx), bits(cy)):
                image[u], image[w] = w, u
                pairs.append((u, w))
    swaps = [1 << x | 1 << y for x, y in pairs]
    for u, row in enumerate(rows):
        for both in swaps:
            if row & both not in (0, both):
                row ^= both
        if row != rows[image[u]]:
            return False
    return True


def _one_orbit(rows, cells, cell, j):
    """Whether ``cell`` is one orbit, proved by a checked involution that
    swaps j with each other vertex of it (see ``_involution``, which
    pairs within the cells of the invariant partition ``cells``); False
    when some vertex has no such proof."""
    return all(_involution(rows, cells, j, v) for v in bits(cell & ~(1 << j)))


def _twin_generators(rows, cells):
    """The transpositions of each cell's lowest vertex with the others,
    when every cell of the stable partition ``cells`` is a twin class;
    otherwise None.

    Two vertices are twins when their rows agree off the two of them, and
    the twins of one vertex are all true or all false twins, so a cell is
    a twin class when its lowest vertex is a twin of each other vertex.
    Any permutation within a twin class is an automorphism, and every
    automorphism keeps each cell, so the transpositions generate the
    whole group, the product of the cells' symmetric groups.
    """
    n = len(rows)
    gens = []
    for c in cells:
        low = c & -c
        u = low.bit_length() - 1
        for v in bits(c ^ low):
            if (rows[u] ^ rows[v]) & ~(low | 1 << v):
                return None
            a = list(range(n))
            a[u], a[v] = v, u
            gens.append(tuple(a))
    return gens


def _accept(rows, stage, desc, leaf):
    """Canonical-augmentation acceptance for the vertex j added last.

    ``rows`` is the child and ``stage`` what ``_degree_stage`` returned
    for it: the window has admitted only children whose new vertex has
    the extremal degree, and the stage those whose new vertex stays in
    the last cell in refinement round 2.  The child finishes round 2 on
    the lower cells and is refined from there, round 3 on, stopping at
    the first round that moves j out of the last cell.  No search runs
    for a ``leaf``, any child whose generators are never read, whose last
    cell ``_one_orbit`` proves one orbit, j alone there included, nor for
    another child whose cells are twin classes, a discrete refinement
    included: ``_twin_generators`` gives its whole group.  (A leaf with
    j alone in the stage's last cell is accepted before it is built; see
    ``_Run.descend``.)  Any other leaf is accepted iff some leaf of the
    search tree ends at j and none has a certificate above the best of
    those, two targeted searches (see ``canon``); any other child is
    decided by the full search, the orbit of the last vertex of its
    canonical labeling.

    Returns (accepted, generators); generators are only meaningful on
    acceptance and feed the child's own subset deduplication, which reads
    only the group they generate.  A leaf returns none, ``[]``.
    """
    lower, split = stage
    nc = len(rows)
    j = nc - 1
    cells, active = _split(rows, lower, lower, nc.bit_length(), desc)
    active += range(len(cells), len(cells) + len(split) - 1)
    cells = _refine(rows, nc, cells + split, desc, keep=j, active=active, alone=leaf)
    if cells is None:
        return False, None
    if leaf:
        if _one_orbit(rows, cells, cells[-1], j):
            # the canonical-last vertex lies in the last cell, all in j's orbit
            return True, []
        # the best leaf ending at j, then any leaf above it (see ``canon``)
        _, best, autos = _search(rows, nc, cells, desc, keep=j)
        if best < 0:
            return False, None
        _, top, _ = _search(rows, nc, cells, desc, above=best, autos=autos)
        return top == best, []
    twins = _twin_generators(rows, cells)
    if twins is not None:
        # each cell one orbit, the last one included
        return True, twins
    perm, _, autos = _search(rows, nc, cells, desc)
    w = perm[nc - 1]
    if w == j:
        return True, autos
    orb = orbits_from_generators(nc, autos)
    return orb[w] == orb[j], autos


class _NoScore:
    """A scorer whose every count is 0 (see the module docstring)."""

    @staticmethod
    def through(rows):
        return lambda s: 0


class _Run:
    def __init__(self, filt, leaf, desc, split=None, scorer=None):
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
        # the per-child tests, in order (see the module docstring)
        self.tests = [("forbidden", partial(PatternCounter(h).through, first=True))
                      for h in filt.forbidden]
        # from this depth on no child has its generators read: a leaf, and
        # under a regular filter a child one vertex short of n, whose last
        # vertex has one forced set
        self.unread = self.n - 1 if self.k is None else self.n - 2
        self.visit = leaf
        self.scorer = scorer if scorer is not None else _NoScore()
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

    def emit(self, count, rows, s):
        """One class: the leaf with these parent rows and attachment set,
        whose score is ``count``."""
        if self.connected and not is_connected(extend_graph(rows, s)):
            self.stats.bump("connectivity")
            return
        self.stats.classes += 1
        if self.visit is not None and self.visit(count, rows, s):
            raise _Stop

    def window(self, j, edges, classes):
        """Admissible attachment sets for vertex j, as a list of boxes.

        A box ``(free, forced, lo, hi)`` holds the sets ``s = forced | t``
        for the submasks t of ``free`` with ``lo <= |s| <= hi``; the boxes
        hold sets of distinct sizes, and None stands for no box.  The
        pushdowns are the degree cap, edge-count reachability and, for a
        regular filter, the deficiencies that the remaining f = n - j - 1
        vertices can still make up.  ``classes`` is the parent's
        ``_degree_classes``.

        Under a fixed edge count the f later sets hold exactly the edges
        still missing, which bounds |s| by the size order below: later
        sets are no smaller than s in ascending order, and at most one
        larger than the one before in ``desc`` order.  A regular filter
        adds the completion floor: at most C(f, 2) edges fall among the
        later vertices, so each takes at least k - f + 1 edges from the
        first j + 1.  These bounds depend on |s| alone and cut only sets
        from which no leaf is reachable, so they lower the node and
        prune counts and change neither the emitted set nor its order.

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
        avail = 0
        for dv, vs in classes.items():
            if dv < r:
                avail |= vs
        forced = 0
        f = self.n - j - 1
        lo, hi = 0, r
        if m is not None:
            left = m - edges
            lo = left - self.future[j + 1]
            hi = min(hi, left)
            # the f later sets hold the left - |s| edges still missing:
            # at least f*|s| of them in ascending order, at most
            # f*|s| + f*(f + 1)/2 in desc order
            if self.desc:
                lo = max(lo, -((f * (f + 1) // 2 - left) // (f + 1)))
            else:
                hi = min(hi, left // (f + 1))
        if k is not None:
            # a vertex short of f + 1 edges needs the new one; a forced
            # vertex has degree k - f - 1 < k = r, so it is in avail
            for dv, vs in classes.items():
                deficit = k - dv
                if deficit > f:
                    if deficit > f + 1:
                        return None
                    forced |= vs
            # the total deficiency left, (j + 1)*k - 2*(edges + |s|), is
            # what the last f vertices take from the first j + 1: at most
            # f*k, which the edge bound above already says (m = n*k/2,
            # future[j + 1] <= f*k), and at least f*(k - f + 1), since at
            # most C(f, 2) edges fall among them
            lo = max(lo, k - f)
            hi = min(hi, ((j + 1) * k - f * (k - f + 1)) // 2 - edges)
        free = avail & ~forced
        d = min(classes) if self.desc else max(classes)
        ext = classes[d]
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

    def descend(self, rows, j, gens, edges, count=0):
        """Descend the node with these rows on j vertices, whose score is
        ``count`` (see the module docstring); a child on n vertices is a
        leaf, and goes to ``self.leaf`` as (score, rows, s)."""
        if j == self.split:
            self.seeds.append((rows, gens, edges, count))
            return
        self.stats.nodes += 1
        if j == self.n:  # a one-vertex run: the root is the leaf
            self.leaf(count, (), 0)
            return
        classes = _degree_classes(rows)
        window = self.window(j, edges, classes)
        if window is None:
            return
        degrees = _child_degrees(classes, self.desc)
        last = j + 1 == self.n
        leaf = j >= self.unread
        tests = [(reason, test(rows)) for reason, test in self.tests]
        through = None
        for s in _attachment_reps(j, gens, window):
            # the first test that drops s; with no test, one truth test
            hit = tests and next((reason for reason, test in tests if test(s)), None)
            if hit:
                self.stats.bump(hit)
                continue
            stage = _degree_stage(rows, s, degrees, self.desc)
            if stage is None:
                self.stats.bump("canonical")
                continue
            if leaf and stage[1][-1] == 1 << j:
                # j alone in the last cell of round 2: the canonical-last
                # vertex, so accepted without building or refining
                child, child_gens = None, []
            else:
                child = _extend(rows, j, s)
                ok, child_gens = _accept(child, stage, self.desc, leaf)
                if not ok:
                    self.stats.bump("canonical")
                    continue
            if through is None:
                through = self.scorer.through(rows)
            score = count + through(s)
            if last:
                self.stats.nodes += 1
                self.leaf(score, rows, s)
            else:
                if child is None:
                    child = _extend(rows, j, s)
                self.descend(child, j + 1, child_gens, edges + s.bit_count(), score)

    def subtree(self, seed, leaf):
        """Descend one seed without emitting: ``leaf`` gets each leaf's
        (score, rows, s) in order; returns the counts of its subtree."""
        rows, gens, edges, count = seed
        sub = _Run(self.filt, None, self.desc, scorer=self.scorer)
        sub.leaf = leaf
        sub.descend(rows, len(rows), gens, edges, count)
        return sub.stats


def _cpu_seconds():
    """CPU seconds of this process and of the children it has reaped."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def check_run(filt, jobs=1, force=False):
    """Refuse the arguments of a run of ``enumerate_graphs``, as it does
    before it visits anything."""
    filt.validate()
    if jobs < 1:
        raise EnumerationError("jobs must be >= 1")
    if filt.n > HARD_CAP and not force:
        raise CapError(f"order {filt.n} beyond enumeration cap {HARD_CAP}")


def enumerate_graphs(filt, leaf=None, desc=False, force=False, jobs=1, scorer=None):
    """Run the generator over the classes of the filter, in tree order.

    The ``leaf`` call sees each class as (score, rows, s), the rows of
    its parent in the tree and the attachment set of its last vertex
    (``extend_graph`` builds it), with no graph built; the score is the
    ``scorer``'s (see the module docstring), or 0 without one.  A leaf
    call returning a truthy value stops the run early.  Orders beyond
    the hard cap (n = 11) require ``force``; without it they raise
    ``CapError``.

    With ``jobs > 1`` the descent stops at depth n - 3 and records the
    accepted graphs there as seeds, each with its score; ``jobs`` forked
    processes descend the seeds' subtrees, taking them in turn from one
    shared queue (see ``parallel``; a lone seed is descended in this
    process), and send each leaf's score with its rows, and the leaves
    are emitted here in seed order.  The leaf call runs in this process
    and sees the classes in serial order, so results and counts are
    those of a serial run (a run stopped early counts more nodes).
    ``cpu_seconds`` in the returned GenStats covers this process and the
    workers.
    """
    check_run(filt, jobs, force)
    t0, cpu0 = time.perf_counter(), _cpu_seconds()
    split = max(1, filt.n - 3) if jobs > 1 else None
    run = _Run(filt, leaf, desc, split=split, scorer=scorer)
    if filt.infeasible():
        run.stats.infeasible = True
    else:
        try:
            # the root is the one vertex joined to nothing
            run.descend((0,), 1, [], 0, run.scorer.through(())(0))
            if jobs > 1:
                from . import parallel

                parallel.parallel_scan(run, jobs)
        except _Stop:
            pass
    run.stats.seconds = time.perf_counter() - t0
    run.stats.cpu_seconds = _cpu_seconds() - cpu0
    return run.stats

