"""Dense simple-graph kernel on integer bitmask adjacency rows.

A graph on n vertices is stored as a tuple of n Python ints; bit v of
``rows[u]`` is set iff uv is an edge.  Arbitrary-precision ints give one
representation that is fast for the search range (n <= 11) and still
workable for construction validation (n up to a few thousand).  There
the triangle scans ask, per vertex, whether its lower neighbours span an
edge: the rows of each run of consecutive labels come from a segment tree
of ORs (``_or_tree``), so the cost follows the number of runs in a
neighbourhood rather than its size; the rest of the census is big-int
AND + popcount.

All operations treat graphs as immutable values; every function returns
fresh objects and never mutates its inputs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import combinations
from operator import mul


class GraphError(ValueError):
    """Raised for invalid graph construction or malformed encodings."""


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph: ``n`` vertices, bitmask adjacency rows."""

    n: int
    rows: tuple

    def degree(self, v):
        return self.rows[v].bit_count()

    def degree_sequence(self):
        return tuple(sorted(r.bit_count() for r in self.rows))

    @property
    def edge_count(self):
        return sum(r.bit_count() for r in self.rows) // 2

    def has_edge(self, u, v):
        return (self.rows[u] >> v) & 1 == 1

    def edges(self):
        for u in range(self.n):
            r = self.rows[u] >> (u + 1)
            v = u + 1
            while r:
                if r & 1:
                    yield (u, v)
                r >>= 1
                v += 1

    def is_regular(self, k=None):
        if self.n == 0:
            return True
        d = self.rows[0].bit_count()
        if k is not None and d != k:
            return False
        return all(r.bit_count() == d for r in self.rows)


def bits(mask):
    """Yield set-bit positions of a nonnegative int, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def from_edges(n, edges):
    """Build a graph from an edge list; duplicates are idempotent."""
    if n < 0:
        raise GraphError("vertex count must be nonnegative")
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"vertex out of range in edge ({u},{v})")
        if u == v:
            raise GraphError(f"self-loop at {u}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def complement(g):
    """Complement off the diagonal; an involution."""
    full = (1 << g.n) - 1
    return Graph(g.n, tuple((full ^ r) & ~(1 << v) for v, r in enumerate(g.rows)))


def induced_subgraph(g, k):
    """Induced subgraph on vertices 0..k-1, which keep their labels."""
    mask = (1 << k) - 1
    return Graph(k, tuple(r & mask for r in g.rows[:k]))


def relabel(g, perm):
    """Relabeled copy; ``perm[i]`` is the old vertex at new position i."""
    pos = [0] * g.n
    for i, v in enumerate(perm):
        pos[v] = i
    rows = [0] * g.n
    for i, v in enumerate(perm):
        r = 0
        for w in bits(g.rows[v]):
            r |= 1 << pos[w]
        rows[i] = r
    return Graph(g.n, tuple(rows))


def disjoint_union(*graphs):
    rows = []
    offset = 0
    for g in graphs:
        rows.extend(r << offset for r in g.rows)
        offset += g.n
    return Graph(offset, tuple(rows))


# ---------------------------------------------------------------------------
# named builders


def empty_graph(n):
    return Graph(n, (0,) * n)


def complete_graph(n):
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def cycle_graph(n):
    if n < 3:
        raise GraphError("cycle length must be at least 3")
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_bipartite(a, b):
    left = ((1 << b) - 1) << a
    right = (1 << a) - 1
    return Graph(a + b, tuple([left] * a + [right] * b))


def star_graph(leaves):
    """Star K_{1,leaves}: vertex 0 is the center."""
    return complete_bipartite(1, leaves)


# ---------------------------------------------------------------------------
# census operations


def count_cliques(g, t):
    """Number of t-vertex cliques (unlabeled subgraph count)."""
    if t < 1:
        raise GraphError("clique size must be >= 1")
    return cliques_within(g.rows, (1 << g.n) - 1, t)


def cliques_within(rows, mask, t):
    """Number of t-cliques among the vertices of ``mask``; 1 for t = 0.

    Each clique is counted once, from its lowest vertex: the candidates
    for the rest are its neighbours above it in ``mask``.
    """
    if t <= 1:
        return mask.bit_count() if t else 1
    total = 0
    while mask:
        low = mask & -mask
        mask ^= low
        total += cliques_within(rows, rows[low.bit_length() - 1] & mask, t - 1)
    return total


def total_cliques(g):
    """Number of cliques with at least 2 vertices."""
    rows = g.rows

    def rec(cand):
        total = 0
        m = cand
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            total += 1 + rec(rows[v] & m)
        return total

    return rec((1 << g.n) - 1) - g.n


def count_stars(g, s):
    """Number of K_{1,s} subgraphs: sum of C(deg v, s)."""
    if s < 1:
        raise GraphError("star size must be >= 1")
    return sum(math.comb(r.bit_count(), s) for r in g.rows)


def count_complete_bipartite(g, a, b):
    """Number of K_{a,b} subgraphs, each copy counted once."""
    if a < 1 or b < 1:
        raise GraphError("biclique sides must be >= 1")
    rows = g.rows
    total = 0
    for side in combinations(range(g.n), a):
        common = (1 << g.n) - 1
        for v in side:
            common &= rows[v]
        total += math.comb(common.bit_count(), b)
    if a == b:
        # each copy seen from both sides
        assert total % 2 == 0
        total //= 2
    return total


def _twin_classes(g):
    """Classes of identical rows: ``(keep, twins)``.

    ``keep`` masks the first vertex of each class, and ``twins`` maps the
    kept vertex of each class of m > 1 vertices to m.  Equal rows force
    non-adjacency, so a class is a set of false twins: odd girth and
    triangle existence are the same on the kept vertices, and a triangle
    of kept vertices stands for the product of its three class sizes.
    """
    first = {}
    twins = {}
    for v, r in enumerate(g.rows):
        u = first.setdefault(r, v)
        if u != v:
            twins[u] = twins.get(u, 1) + 1
    keep = 0
    for u in first.values():
        keep |= 1 << u
    return keep, twins


def _or_tree(rows):
    """Segment tree of ORs over ``rows``, as a flat list.

    Node 1 is the root and node i has children 2i and 2i + 1; leaf
    size + v is ``rows[v]``, where size, half the list, is the least
    power of two not below the number of rows.  Leaves past the last row
    are 0.
    """
    size = 1 << max(len(rows) - 1, 0).bit_length()
    tree = [0] * size + list(rows) + [0] * (size - len(rows))
    for i in range(size - 1, 0, -1):
        tree[i] = tree[2 * i] | tree[2 * i + 1]
    return tree


def _spans_edge(tree, mask):
    """Whether some vertex of ``mask`` has a neighbour in ``mask``.

    The set bits of mask ^ (mask << 1) are the ends of the runs of
    consecutive labels in ``mask``, taken in pairs from the bottom: the
    first label of a run, then the label just past its last.  The rows
    of a run are the OR of the O(log n) nodes of ``tree`` (``_or_tree``)
    that cover it; their union grows run by run and the answer is yes as
    soon as it meets ``mask``.
    """
    size = len(tree) >> 1
    ends = mask ^ (mask << 1)
    union = 0
    while ends:
        start = ends & -ends
        ends ^= start
        stop = ends & -ends
        ends ^= stop
        lo = size + start.bit_length() - 1
        hi = size + stop.bit_length() - 1
        while lo < hi:
            if lo & 1:
                union |= tree[lo]
                lo += 1
            if hi & 1:
                hi -= 1
                union |= tree[hi]
            lo >>= 1
            hi >>= 1
        if union & mask:
            return True
    return False


def triangle_count(g):
    """Triangle census; past one int digit per row, on the twin classes.

    Each triangle is counted once, at its highest vertex u, from the
    neighbours of u below it, so each AND and popcount runs over about u
    bits rather than n.  A graph whose rows fit one int digit is counted
    on its rows: there every AND and popcount costs the same, and the
    class pass would cost more than the smaller quotient saves.  Larger
    graphs are counted on the kept vertices of ``_twin_classes``.  A kept
    u whose kept neighbours below it span no edge (``_spans_edge``) is
    the top of no triangle and is skipped; on the apex graphs that leaves
    about one vertex.  At the others the kept common neighbours X of u
    and v below v weigh |X| + sum over m > 1 of (m - 1)|X & M_m|, where
    M_m masks the kept vertices of the classes of m vertices, and the
    count at v is scaled by the class sizes of u and v.
    """
    rows = g.rows
    total = 0
    if g.n <= sys.int_info.bits_per_digit:
        for u, ru in enumerate(rows):
            rest = ru & ((1 << u) - 1)
            while rest:
                v = rest.bit_length() - 1
                rest ^= 1 << v
                total += (rest & rows[v]).bit_count()
        return total
    keep, twins = _twin_classes(g)
    tree = _or_tree(rows)
    masks = {}  # m - 1 -> M_m
    for v, m in twins.items():
        masks[m - 1] = masks.get(m - 1, 0) | 1 << v
    left = keep
    while left:
        low = left & -left
        left ^= low
        u = low.bit_length() - 1
        rest = rows[u] & keep & (low - 1)
        if not _spans_edge(tree, rest):
            continue
        part = 0
        while rest:
            v = rest.bit_length() - 1
            rest ^= 1 << v
            common = rest & rows[v]
            if common:
                w = common.bit_count()
                for e, mask in masks.items():
                    w += e * (common & mask).bit_count()
                part += twins.get(v, 1) * w
        total += twins.get(u, 1) * part
    return total


def _has_triangle(rows, keep):
    """Whether the vertices of ``keep`` span a triangle.

    Each triangle is looked for at its highest vertex u: it is there iff
    the neighbours of u in ``keep`` below u span an edge (``_spans_edge``
    on one ``_or_tree`` of the rows).  The builders label each part
    contiguously, so such a neighbourhood is a handful of runs, and the
    scan ORs a few dozen tree nodes per vertex instead of reading one row
    per edge.
    """
    tree = _or_tree(rows)
    left = keep
    while left:
        u = left.bit_length() - 1
        left ^= 1 << u
        if _spans_edge(tree, rows[u] & left):
            return True
    return False


def is_triangle_free(g):
    return not _has_triangle(g.rows, _twin_classes(g)[0])


def _odd_layer(rows, keep, s, bound):
    """BFS from ``s`` over the vertices of ``keep``.

    Returns ``(2d + 1, seen)`` for the first layer d that holds an edge,
    checking only layers with 2d + 1 < ``bound``, else ``(None, seen)``;
    ``seen`` is the set of vertices reached, which with an infinite
    ``bound`` and no hit is the component of ``s``.
    """
    seen = layer = 1 << s
    d = 0
    while layer and 2 * d + 1 < bound:
        grow = 2 * d + 3 < bound  # whether the next layer is checked
        nxt = 0
        m = layer
        while m:
            low = m & -m
            r = rows[low.bit_length() - 1]
            m ^= low
            if r & layer:
                return 2 * d + 1, seen
            if grow:
                nxt |= r
        layer = nxt & keep & ~seen
        seen |= layer
        d += 1
    return None, seen


def odd_girth(g):
    """Length of a shortest odd cycle, or None iff bipartite.

    Works on one vertex per identical-row class.  One BFS per component
    first: if no BFS layer holds an edge the graph is bipartite.  Else the
    first layer d that holds one closes an odd walk, so 2d + 1 bounds the
    odd girth from above.  A triangle among the kept vertices makes it 3;
    ``_has_triangle`` looks for one with the tree scan of ``_spans_edge``
    (triangle finding as the first step of a shortest-odd-cycle search:
    Itai and Rodeh, SIAM J. Comput. 7, 1978).  Without one a bound of 5 is
    exact.  Only a bound of 7 or more runs BFS from every kept vertex s
    over the kept vertices from s up, stopping at depth d once 2d + 1
    reaches the best length so far.  An edge inside the layer at distance
    d witnesses an odd closed walk of length 2d + 1, and the lowest vertex
    of a shortest odd cycle attains its length.
    """
    rows = g.rows
    keep, _ = _twin_classes(g)
    left = keep
    while left:
        best, comp = _odd_layer(rows, keep, (left & -left).bit_length() - 1, math.inf)
        if best is not None:
            break
        left &= ~comp
    else:
        return None
    if best == 3 or _has_triangle(rows, keep):
        return 3
    if best == 5:
        return 5
    for s in bits(keep):
        cand, _ = _odd_layer(rows, keep >> s << s, s, best)
        if cand is not None:
            best = cand
    return best


def connected_components(g):
    """Vertex sets of the components, as bitmasks."""
    left = (1 << g.n) - 1
    comps = []
    rows = g.rows
    while left:
        start = left & -left
        seen = start
        frontier = start
        while frontier:
            nxt = 0
            m = frontier
            while m:
                low = m & -m
                v = low.bit_length() - 1
                m ^= low
                nxt |= rows[v]
            frontier = nxt & ~seen
            seen |= frontier
        comps.append(seen)
        left &= ~seen
    return comps


def is_connected(g):
    return len(connected_components(g)) <= 1


# ---------------------------------------------------------------------------
# subgraph containment


def _pattern_order(h):
    """Order pattern vertices: max degree first, then connectivity-first."""
    order = []
    placed = 0
    degs = [r.bit_count() for r in h.rows]
    while len(order) < h.n:
        best_v, best_key = None, None
        for v in range(h.n):
            if (placed >> v) & 1:
                continue
            attached = (h.rows[v] & placed).bit_count()
            key = (attached, degs[v])
            if best_key is None or key > best_key:
                best_key, best_v = key, v
        order.append(best_v)
        placed |= 1 << best_v
    return order


def _embeddings(g, h, anchor=None, first=False):
    """Injective edge-preserving maps of h into g, by backtracking.

    Pattern vertices are placed in ``_pattern_order``; the candidates for
    one are the unused vertices of g of at least its degree that are
    adjacent to the images of its placed neighbours.  With ``anchor``
    set, only maps whose image holds that vertex of g count: the last
    vertex is placed on it if no earlier one was.  The empty pattern has
    one map, the empty one, anchored or not.  With ``first`` set, the
    search stops at the first map and returns 1.
    """
    if h.n > g.n:
        return 0
    order = _pattern_order(h)
    grows = g.rows
    fits = {}  # pattern degree -> the vertices of g of at least that degree
    steps = []  # per placed vertex: itself, its candidate mask, its placed neighbours
    for i, p in enumerate(order):
        d = h.rows[p].bit_count()
        if d not in fits:
            fits[d] = sum(1 << v for v, r in enumerate(grows) if r.bit_count() >= d)
        steps.append((p, fits[d], [q for q in order[:i] if h.rows[p] >> q & 1]))
    last = len(order) - 1
    image = [0] * h.n

    def rec(i, used):
        if i > last:
            return 1
        p, cand, back = steps[i]
        cand &= ~used
        for q in back:
            cand &= grows[image[q]]
        if i == last and anchor is not None and not used >> anchor & 1:
            cand &= 1 << anchor
        total = 0
        while cand:
            low = cand & -cand
            cand ^= low
            image[p] = low.bit_length() - 1
            total += rec(i + 1, used | low)
            if first and total:
                return 1
        return total

    return rec(0, 0)


def contains_subgraph(g, h, anchor=None):
    """True iff h embeds into g as a (not necessarily induced) subgraph.

    With ``anchor`` set, only embeddings whose image contains that vertex
    of g are accepted; the empty pattern is contained with any anchor.
    """
    return _embeddings(g, h, anchor, first=True) == 1


def count_subgraph_embeddings(g, h):
    """Number of injective edge-preserving maps from h into g."""
    return _embeddings(g, h)


# ---------------------------------------------------------------------------
# cycle counting


def _count_cycles_dfs(g, m):
    """Anchored simple-path search; each cycle found twice, halved."""
    rows = g.rows
    total = 0
    for a in range(g.n):
        higher = -1 << (a + 1)  # vertices above the anchor

        def rec(v, depth, visited):
            nonlocal total
            if depth == m - 1:
                if (rows[v] >> a) & 1:
                    total += 1
                return
            cand = rows[v] & higher & ~visited
            mm = cand
            while mm:
                low = mm & -mm
                w = low.bit_length() - 1
                mm ^= low
                rec(w, depth + 1, visited | low)

        start = rows[a] & higher
        while start:
            low = start & -start
            v = low.bit_length() - 1
            start ^= low
            rec(v, 1, (1 << a) | low)
    assert total % 2 == 0
    return total // 2


def path_counts(rows, length):
    """Paths of ``length`` edges, 2 <= length <= 3, between vertex pairs.

    Row a of the returned matrix is a ``memoryview``.  Off the diagonal
    its entry b counts the paths a, ..., b on distinct vertices of the
    graph with these rows; the diagonal keeps the closed walks
    (A^length)_aa, which no path count reads.  With A the adjacency matrix,
    P_2(a, b) = (A^2)_ab = |N(a) & N(b)| and
    P_3(a, b) = (A^3)_ab - [a ~ b](d(a) + d(b) - 1): a walk a x y b
    repeats a vertex only as x = b (d(b) walks) or y = a (d(a) walks),
    both only when a ~ b, and a b a b is both.

    Each row of A^k is one int holding a field per vertex, so the row of
    a in A^(k + 1) is the sum of the A^k rows of the neighbours of a.  A
    field is an unsigned machine int of 1, 2 or 8 bytes, wide enough for
    n^2, which no entry of A^3 reaches: sums never carry from one field
    into the next, and each corrected row is read as its bytes.
    """
    if length not in (2, 3):
        raise GraphError("path length must be 2 or 3")
    n = len(rows)
    code, size = next(
        (c, k) for c, k in (("B", 1), ("H", 2), ("Q", 8)) if n * n >> (8 * k) == 0
    )
    w = 8 * size
    unit = [1 << (w * b) for b in range(n)]
    adj = [_sum_at(r, unit) for r in rows]
    walks = [_sum_at(r, adj) for r in rows]
    if length == 3:
        degs = [r.bit_count() << (w * b) for b, r in enumerate(rows)]
        walks = [
            _sum_at(r, walks) - (r.bit_count() - 1) * adj[a] - _sum_at(r, degs)
            for a, r in enumerate(rows)
        ]
    return [memoryview(row.to_bytes(n * size, sys.byteorder)).cast(code) for row in walks]


def pair_sum(matrix, mask):
    """Sum of ``matrix[a][b]`` over the pairs a < b of set bits of ``mask``."""
    total = 0
    while mask:
        low = mask & -mask
        mask ^= low
        total += _sum_at(mask, matrix[low.bit_length() - 1])
    return total


def _sum_at(mask, vals):
    """Sum of ``vals[b]`` over the set bits b of ``mask``."""
    total = 0
    while mask:
        low = mask & -mask
        mask ^= low
        total += vals[low.bit_length() - 1]
    return total


def count_cycles(g, m):
    """Number of m-cycle subgraphs, m >= 3, each counted once.

    With a2[u][v] = |N(u) & N(v)| (so a2[u][u] = d(u)), exact integer
    closed-walk identities give the short cycles:

    - C4 = sum over u < v of C(a2[u][v], 2), halved: each 4-cycle has two
      diagonals;
    - C5 = (tr A^5 - 5 * sum_u t3(u) (d(u) - 1)) / 10 (Alon, Yuster and
      Zwick 1997), with t3(u) = sum over w in N(u) of a2[u][w] and
      tr A^5 = 2 * sum over edges uw of sum_v a2[u][v] a2[w][v].

    Cycles of 6 or more vertices, of any length, are counted by anchored
    path search.

    This is the one full count and the oracle of the searches.  Those
    send every cycle of 6 or more vertices here and score 4- and 5-cycles
    in a graph g from its parent g - v, v = n - 1, by the identity
    C_m(g) = C_m(g - v) + the m-cycles through v
    (``search.PatternCounter``): this function counts g - v, once per
    run of consecutive graphs sharing it in the counter's one-entry
    cache, and ``path_counts`` gives the cycles through v.  Every count
    is exact in any order of the graphs; only the speed depends on it.
    """
    if m < 3:
        raise GraphError("cycle length must be at least 3")
    if g.n < m:
        return 0
    if m == 3:
        return triangle_count(g)
    if m > 5:
        return _count_cycles_dfs(g, m)
    rows = g.rows
    a2 = [[(ru & rv).bit_count() for rv in rows] for ru in rows]
    if m == 4:
        pairs = sum(c * (c - 1) for u, au in enumerate(a2) for c in au[u + 1:])
        return pairs // 4
    tr5 = 0
    wedges = 0
    for u, au in enumerate(a2):
        t3 = 0
        for w in bits(rows[u]):
            t3 += au[w]
            if w > u:
                tr5 += sum(map(mul, au, a2[w]))
        wedges += t3 * (au[u] - 1)
    return (2 * tr5 - 5 * wedges) // 10


# ---------------------------------------------------------------------------
# graph6 encoding


def _g6_order_bytes(n):
    if n < 0:
        raise GraphError("negative order")
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    raise GraphError("order too large for this graph6 encoder")


def graph6_encode(g):
    """Standard graph6 string (column-packed upper-triangle bits)."""
    flat = "".join(format(g.rows[j] & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, g.n))
    flat += "0" * (-len(flat) % 6)
    body = bytes(int(flat[i:i + 6], 2) + 63 for i in range(0, len(flat), 6))
    return (_g6_order_bytes(g.n) + body).decode("ascii")


def graph6_decode(text):
    """Decode a graph6 string; raises GraphError on malformed input."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    data = s.encode("ascii")
    if not data:
        raise GraphError("empty graph6 string")
    if any(b < 63 or b > 126 for b in data):
        raise GraphError("graph6 byte out of range")
    if data[0] != 126:
        n = data[0] - 63
        body = data[1:]
    else:
        if len(data) >= 2 and data[1] == 126:
            raise GraphError("graph6 orders beyond 258047 unsupported")
        if len(data) < 4:
            raise GraphError("truncated graph6 order")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = data[4:]
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise GraphError("graph6 body length mismatch")
    bits_acc = 0
    for b in body:
        bits_acc = (bits_acc << 6) | (b - 63)
    pad = len(body) * 6 - nbits
    if pad and bits_acc & ((1 << pad) - 1):
        raise GraphError("nonzero graph6 padding bits")
    bits_acc >>= pad
    rows = [0] * n
    pos = nbits - 1
    for j in range(1, n):
        for i in range(j):
            if (bits_acc >> pos) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            pos -= 1
    return Graph(n, tuple(rows))


def format_edge_list(g):
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
