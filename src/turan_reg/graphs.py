"""Dense simple-graph kernel on integer bitmask adjacency rows.

A graph on n vertices is stored as a tuple of n Python ints; bit v of
``rows[u]`` is set iff uv is an edge.  Arbitrary-precision ints give one
representation that is fast for the search range (n <= 11) and still
holds the constructions (n up to a few thousand).  The census here is
plain code for small graphs: clique, triangle and cycle counts and odd
girth by big-int AND + popcount and BFS layers.  The builders do not
census their large graphs: they prove their claims by a generic check of
a certificate against the rows (``constructions``), and the census is
the second route that tests read.

All operations treat graphs as immutable values; every function returns
fresh objects and never mutates its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import and_, mul


class GraphError(ValueError):
    """Raised for invalid graph construction or malformed encodings."""


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph: ``n`` vertices, bitmask adjacency rows."""

    n: int
    rows: tuple

    @property
    def edge_count(self):
        return sum(map(int.bit_count, self.rows)) // 2

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
        degrees = set(map(int.bit_count, self.rows))
        return len(degrees) == 1 and (k is None or k in degrees)


def bits(mask):
    """Yield set-bit positions of a nonnegative int, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _row_union(rows, mask):
    """OR of the rows of the labels in ``mask``."""
    union = 0
    for v in bits(mask):
        union |= rows[v]
    return union


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


# ---------------------------------------------------------------------------
# named builders


def empty_graph(n):
    return from_edges(n, ())


def complete_graph(n):
    if n < 0:
        raise GraphError("vertex count must be nonnegative")
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def cycle_graph(n):
    if n < 3:
        raise GraphError("cycle length must be at least 3")
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_bipartite(a, b):
    if min(a, b) < 0:
        raise GraphError("vertex count must be nonnegative")
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
    return all_cliques_within(g.rows, (1 << g.n) - 1) - g.n


def all_cliques_within(rows, mask):
    """Number of nonempty cliques among the vertices of ``mask``, each
    counted once, from its lowest vertex."""
    total = 0
    while mask:
        low = mask & -mask
        mask ^= low
        total += 1 + all_cliques_within(rows, rows[low.bit_length() - 1] & mask)
    return total


def triangle_count(g):
    """Triangle census.  Each triangle is counted once, at its highest
    vertex u, from the neighbours of u below it, so each AND and popcount
    runs over about u bits rather than n."""
    rows = g.rows
    total = 0
    for u, ru in enumerate(rows):
        rest = ru & ((1 << u) - 1)
        while rest:
            v = rest.bit_length() - 1
            rest ^= 1 << v
            total += (rest & rows[v]).bit_count()
    return total


def is_triangle_free(g):
    return triangle_count(g) == 0


def odd_girth(g):
    """Length of a shortest odd cycle, or None iff bipartite.

    A BFS from each vertex s over the vertices from s up, while it can
    beat the best length so far: an edge inside its layer d closes an odd
    walk of length 2d + 1, and the lowest vertex of a shortest odd cycle
    attains its length.  A BFS that runs out with no such edge has
    reached a bipartite piece of the graph above s; no vertex of it is
    the lowest of an odd cycle, so none is a source later.
    """
    rows = g.rows
    best = None
    left = (1 << g.n) - 1  # sources still to run
    while left:
        low = left & -left  # the source s
        left ^= low
        keep = -low  # the vertices from s up
        seen = layer = low
        d = 0
        while layer and (best is None or 2 * d + 1 < best):
            union = _row_union(rows, layer)
            if union & layer:
                best = 2 * d + 1
                break
            layer = union & keep & ~seen
            seen |= layer
            d += 1
        if not layer:
            left &= ~seen
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
            frontier = _row_union(rows, frontier) & ~seen
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


def contains_subgraph(g, h):
    """True iff h embeds into g as a (not necessarily induced) subgraph."""
    return _embeddings(g, h, first=True) == 1


# ---------------------------------------------------------------------------
# cycle counting


def path_counts(rows, length, w):
    """Paths of ``length`` edges, 2 <= length <= 3, between vertex pairs.

    Row a is one int with a field of ``w`` bits per vertex, which must
    hold n^2: off the diagonal, field b counts the paths a, ..., b on
    distinct vertices of the graph with these rows; the diagonal keeps
    the closed walks (A^length)_aa, which no path count reads.  With A
    the adjacency matrix, P_2(a, b) = (A^2)_ab = |N(a) & N(b)| and
    P_3(a, b) = (A^3)_ab - [a ~ b](d(a) + d(b) - 1): a walk a x y b
    repeats a vertex only as x = b (d(b) walks) or y = a (d(a) walks),
    both only when a ~ b, and a b a b is both.  The row of a in A^2 is
    the sum of the rows of A of the neighbours of a, and P_3's row is
    the sum of their A^2 rows, each with its diagonal d(x) cleared
    (that takes the d(b) walks off), less d(a) - 1 times the row of a in
    A.  No entry of A^3 reaches n^2, so sums never carry from one field
    into the next, and the corrections leave every field nonnegative, so
    none borrows either.
    """
    if length not in (2, 3):
        raise GraphError("path length must be 2 or 3")
    unit = [1 << (w * b) for b in range(len(rows))]
    adj = [_sum_at(r, unit) for r in rows]
    walks = [_sum_at(r, adj) for r in rows]
    if length == 3:
        off = [row - (r.bit_count() << (w * x)) for x, (r, row) in enumerate(zip(rows, walks))]
        walks = [_sum_at(r, off) - (r.bit_count() - 1) * adj[a] for a, r in enumerate(rows)]
    return walks


def _pair_paths(rows, length):
    """The function s -> the sum over a < b in s of the a-b paths of
    ``length`` edges (2 or 3) in the graph with these rows.

    It reads the rows of ``path_counts`` with the diagonal cleared, in
    fields of w = 4 * bit_length(j) bits, j = len(rows): the sum over a
    in s of row a holds, in field b, the paths from s to b.  Masked to
    the fields of s, its fields add up to twice the answer, below j^4 <
    2^w; a multiplication by one unit per field folds them into field
    j - 1, and no partial sum carries.  So s costs one add and one OR
    per vertex, and one multiplication.
    """
    j = len(rows)
    w = 4 * max(j, 1).bit_length()
    field = (1 << w) - 1
    items = [
        (row & ~(field << (w * a)), field << (w * a))
        for a, row in enumerate(path_counts(rows, length, w))
    ]
    ones = ((1 << (w * j)) - 1) // field
    top = w * max(j - 1, 0)

    def through(s):
        total = mask = 0
        while s:
            low = s & -s
            s ^= low
            row, cells = items[low.bit_length() - 1]
            total += row
            mask |= cells
        return ((total & mask) * ones >> top & field) >> 1

    return through


def _sum_at(mask, vals):
    """Sum of ``vals[b]`` over the set bits b of ``mask``."""
    total = 0
    while mask:
        low = mask & -mask
        mask ^= low
        total += vals[low.bit_length() - 1]
    return total


def paths_within(rows, s, length, first=False):
    """Paths of ``length`` >= 1 edges joining two vertices of ``s``.

    Each path is counted once, from its lower end a: a search over
    simple paths from a counts, at its last step, the neighbours of the
    current vertex that lie in ``s`` above a and off the path.  With
    ``first`` set, the search stops as soon as the count is positive.
    """

    def rec(v, left, used, ends):
        if left == 1:
            return (rows[v] & ends & ~used).bit_count()
        total = 0
        nxt = rows[v] & ~used
        while nxt:
            low = nxt & -nxt
            nxt ^= low
            total += rec(low.bit_length() - 1, left - 1, used | low, ends)
            if first and total:
                break
        return total

    total = 0
    while s and not (first and total):
        low = s & -s
        s ^= low
        total += rec(low.bit_length() - 1, length, low, s)
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

    A cycle of 6 or more vertices is counted at its highest vertex v, as a
    path of m - 2 edges below v joining two neighbours of v
    (``paths_within``).

    This is the one full count, but no search scores with it: the
    augmentation tree scores a graph as its parent's count plus the
    m-cycles through the new vertex (``PatternCounter``), which for
    m >= 6 share ``paths_within`` with this function, so an independent
    count checks both there.
    """
    if m < 3:
        raise GraphError("cycle length must be at least 3")
    if g.n < m:
        return 0
    if m == 3:
        return triangle_count(g)
    rows = g.rows
    if m > 5:
        total = 0
        for v in range(m - 1, g.n):
            low = (1 << v) - 1
            total += paths_within([r & low for r in rows[:v]], rows[v] & low, m - 2)
        return total
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
# copies through the new vertex


def _extend(rows, j, s):
    """The rows of a graph on j vertices plus a vertex j joined to ``s``."""
    bit = 1 << j
    new = list(rows)
    m = s
    while m:
        low = m & -m
        new[low.bit_length() - 1] |= bit
        m ^= low
    new.append(s)
    return tuple(new)


def extend_graph(rows, s):
    """The graph with these rows plus a vertex joined to ``s``: a leaf of
    the augmentation tree, from its parent's rows and attachment set."""
    j = len(rows)
    return Graph(j + 1, _extend(rows, j, s))


def _classify_pattern(h):
    degs = sorted(r.bit_count() for r in h.rows)
    m = h.edge_count
    if m == math.comb(h.n, 2):
        return ("clique", h.n)
    if h.n >= 3 and m == h.n and degs[0] == degs[-1] == 2 and is_connected(h):
        return ("cycle", h.n)
    if h.n >= 2 and degs[-1] == h.n - 1 and degs[-2] == 1:
        return ("star", h.n - 1)
    # K_{A,B} with B = N(0): the rows outside B are B, those in B the rest
    b = h.rows[0]
    rest = ((1 << h.n) - 1) ^ b
    if b and all(r == (rest if b >> v & 1 else b) for v, r in enumerate(h.rows)):
        a = rest.bit_count()
        return ("biclique", (min(a, h.n - a), max(a, h.n - a)))
    return ("generic", None)


class PatternCounter:
    """Copies of a pattern graph, counted through the vertex added last.

    ``through(rows)`` answers the one question that both forbidden
    pruning and scoring ask during canonical augmentation: how many
    copies contain a new vertex j = len(rows) joined to a set s of the
    graph with these rows.  It returns the function s -> that number,
    with one formula per kind of pattern:

    - K_t: the (t - 1)-cliques inside s (``cliques_within``);
    - C4 and C5: the sum over a < b in s of the a-b paths of m - 2 edges
      (``_pair_paths``, one packed path matrix per parent);
    - C_m, m >= 6: the paths of m - 2 edges joining two vertices of s
      (``paths_within``);
    - K_{1,p}: C(|s|, p) with j the centre, plus C(d(u), p - 1) for each
      centre u in s;
    - K_{a,b}: for each order (x, y) of the sides, the sum over the sets T
      of x - 1 vertices of C(|s & N(T)|, y), N(T) their common
      neighbours, with j on the side of T;
    - any other pattern: the maps into the child whose image holds j
      (``_embeddings``), over the order of the pattern's automorphism
      group, its maps into itself.

    The counter is a scorer, and with ``first`` a forbidden test (see
    ``enumeration``), so no whole graph is counted.
    """

    def __init__(self, pattern):
        if not pattern.n:
            raise GraphError("a pattern needs at least one vertex")
        self.pattern = pattern
        self.kind, self.param = _classify_pattern(pattern)
        if self.kind == "generic":
            self.aut = _embeddings(pattern, pattern)

    def through(self, rows, first=False):
        """The function s -> the copies through vertex len(rows) joined to s.

        With ``first`` set the function is positive iff there is such a
        copy, and the path and embedding searches stop at the first one.
        """
        kind, p = self.kind, self.param
        if kind == "clique":
            return lambda s: cliques_within(rows, s, p - 1)
        if kind == "cycle" and p < 6:
            return _pair_paths(rows, p - 2)
        if kind == "cycle":
            return lambda s: paths_within(rows, s, p - 2, first)
        if kind == "star":
            leaves = [math.comb(r.bit_count(), p - 1) for r in rows]
            return lambda s: math.comb(s.bit_count(), p) + _sum_at(s, leaves)
        if kind == "biclique":
            a, b = p
            # T: the other x - 1 vertices of j's side; a set, so K_{a,a} counts once
            orders = {(a, b), (b, a)}
            sides = [(reduce(and_, t), y) for x, y in orders for t in combinations(rows, x - 1)]
            return lambda s: sum(math.comb((s & c).bit_count(), y) for c, y in sides)
        h, j = self.pattern, len(rows)
        aut = 1 if first else self.aut
        return lambda s: _embeddings(extend_graph(rows, s), h, j, first) // aut


class CliqueTotal:
    """Cliques of 2 or more vertices, a scorer (see ``enumeration``): those
    through a new vertex joined to s are the nonempty cliques inside s
    (``all_cliques_within``)."""

    @staticmethod
    def through(rows):
        return lambda s: all_cliques_within(rows, s)


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


def graph6_header(text):
    """The order and the body bytes of a graph6 string, the body not yet
    decoded; raises GraphError on a malformed header or byte."""
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
    return n, body


def graph6_decode(text):
    """Decode a graph6 string; raises GraphError on malformed input."""
    n, body = graph6_header(text)
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
