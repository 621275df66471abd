"""Independent brute-force oracles used across the test modules.

Everything here recomputes values by direct enumeration (permutations,
vertex subsets, all labeled graphs) and stays deliberately ignorant of
the package's own algorithms.  The fixed graphs, the edge-list parser
and the invariant check at the top are fixtures the tests share.
"""

import itertools
import random

from turan_reg.graphs import Graph, GraphError, bits, from_edges, relabel


def path_graph(n):
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def petersen_graph():
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    return from_edges(10, edges)


def parse_edge_list(text):
    """Parse "u v" per-line edge text; first line may be the order "n N"."""
    edges = []
    n = None
    maxv = -1
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "n" and len(parts) == 2 and n is None and not edges:
            n = int(parts[1])
            continue
        if len(parts) != 2:
            raise GraphError(f"bad edge line: {line!r}")
        u, v = int(parts[0]), int(parts[1])
        edges.append((u, v))
        maxv = max(maxv, u, v)
    if n is None:
        n = maxv + 1
    return from_edges(n, edges)


def check_invariants(g):
    """Symmetry, empty diagonal, handshaking; raises on violation."""
    for u, r in enumerate(g.rows):
        if r < 0 or r >> g.n:
            raise GraphError(f"row {u} has bits beyond vertex range")
        if (r >> u) & 1:
            raise GraphError(f"self-loop at {u}")
    for u in range(g.n):
        for v in bits(g.rows[u]):
            if not (g.rows[v] >> u) & 1:
                raise GraphError(f"asymmetric edge {u}-{v}")
    if sum(r.bit_count() for r in g.rows) % 2 != 0:
        raise GraphError("odd degree sum")


def all_labeled_graphs(n):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for bitsv in range(1 << len(pairs)):
        rows = [0] * n
        for idx, (i, j) in enumerate(pairs):
            if (bitsv >> idx) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        yield Graph(n, tuple(rows))


def random_graph(rng, n, p=None):
    if p is None:
        p = rng.random()
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return from_edges(n, edges)


def random_graph_with_twins(rng, n_max):
    """A random graph on up to 10 vertices grown to at most ``n_max`` by
    copies of random vertices, each a false twin (same neighbourhood) or
    a true twin (also adjacent to its source), then randomly relabeled."""
    n0 = rng.randint(1, 10)
    rows = list(random_graph(rng, n0).rows)
    for _ in range(rng.randint(0, n_max - n0)):
        s = rng.randrange(len(rows))
        v = len(rows)
        row = rows[s] | (1 << s) if rng.random() < 0.5 else rows[s]
        rows.append(row)
        for w in bits(row):
            rows[w] |= 1 << v
    n = len(rows)
    perm = list(range(n))
    rng.shuffle(perm)
    return relabel(Graph(n, tuple(rows)), perm)


def blow_up(base, sizes, rng=None):
    """``base`` with vertex i blown up into ``sizes[i]`` false twins.  The
    classes take consecutive labels in the order of ``base``, or random
    labels when ``rng`` is given."""
    n = sum(sizes)
    labels = list(range(n))
    if rng is not None:
        rng.shuffle(labels)
    classes = []
    for size in sizes:
        classes.append(labels[:size])
        del labels[:size]
    masks = [sum(1 << v for v in c) for c in classes]
    rows = [0] * n
    for i, c in enumerate(classes):
        row = 0
        for j in bits(base.rows[i]):
            row |= masks[j]
        for v in c:
            rows[v] = row
    return Graph(n, tuple(rows))


def random_blowup(rng, n):
    """A random graph on 8 to 12 vertices with each vertex blown up into a
    class of false twins (an independent set sharing its neighbourhood),
    n >= 19 vertices in all, randomly relabeled.  Four base vertices get
    classes of 1, 2, 3 and 5 vertices; the others share the rest, at
    least one each."""
    base = random_graph(rng, rng.randint(8, 12))
    sizes = [1, 2, 3, 5] + [1] * (base.n - 4)
    for _ in range(n - sum(sizes)):
        sizes[rng.randrange(4, base.n)] += 1
    rng.shuffle(sizes)
    return blow_up(base, sizes, rng)


def class_sizes(rng, k, n):
    """k random positive sizes that sum to n."""
    sizes = [1] * k
    for _ in range(n - k):
        sizes[rng.randrange(k)] += 1
    return sizes


def with_triangle(g, attach=0, first=False):
    """``g`` plus a triangle on three new vertices, the first of them also
    joined to the vertices of ``attach``.  The new vertices take the top
    labels, or the three lowest with ``first``.  For an independent
    ``attach`` in a triangle-free ``g`` the triangle is the only one."""
    n = g.n
    rows = [r | (attach >> v & 1) << n for v, r in enumerate(g.rows)]
    rows += [attach | 0b110 << n, 0b101 << n, 0b011 << n]
    h = Graph(n + 3, tuple(rows))
    if not first:
        return h
    return relabel(h, [n, n + 1, n + 2] + list(range(n)))


def near_bipartite_with_twins(rng, n0, p, inside, twins):
    """A random bipartite graph on n0 vertices (cross edges with
    probability p) plus ``inside`` random edges within the sides, grown by
    ``twins`` false twins (copies of the row of a random vertex), then
    randomly relabeled.  With no inside edge it is bipartite; each inside
    edge closes odd cycles whose length the density sets."""
    side = [rng.randrange(2) for _ in range(n0)]
    pairs = list(itertools.combinations(range(n0), 2))
    edges = [(u, v) for u, v in pairs if side[u] != side[v] and rng.random() < p]
    same = [(u, v) for u, v in pairs if side[u] == side[v]]
    edges += rng.sample(same, min(inside, len(same)))
    rows = list(from_edges(n0, edges).rows)
    for _ in range(twins):
        s = rng.randrange(len(rows))
        v = len(rows)
        rows.append(rows[s])
        for w in bits(rows[s]):
            rows[w] |= 1 << v
    n = len(rows)
    perm = list(range(n))
    rng.shuffle(perm)
    return relabel(Graph(n, tuple(rows)), perm)


def triangle_count_oracle(g):
    """Triangles by a per-edge popcount of the two full rows, each edge
    once, with no twin reduction."""
    rows = g.rows
    total = 0
    for u in range(g.n):
        ru = rows[u]
        m = ru >> (u + 1) << (u + 1)
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            total += (ru & rows[v] & m).bit_count()
    return total


def odd_girth_oracle(g):
    """Shortest odd cycle by a plain BFS from every vertex on the full
    rows, or None: the minimum over sources of 2d + 1 for the first BFS
    layer d that holds an edge.  No twin pass, no bound between sources."""
    rows = g.rows
    best = None
    for s in range(g.n):
        seen = layer = 1 << s
        d = 0
        while layer:
            nxt = 0
            m = layer
            while m:
                low = m & -m
                nxt |= rows[low.bit_length() - 1]
                m ^= low
            if nxt & layer:
                if best is None or 2 * d + 1 < best:
                    best = 2 * d + 1
                break
            layer = nxt & ~seen
            seen |= layer
            d += 1
    return best


def brute_cert(g):
    """Maximum packed adjacency bitstring over all n! relabelings."""
    n = g.n
    best = -1
    for perm in itertools.permutations(range(n)):
        cert = 0
        for i in range(n):
            ri = g.rows[perm[i]]
            for j in range(i + 1, n):
                cert = (cert << 1) | ((ri >> perm[j]) & 1)
        if cert > best:
            best = cert
    return best


def brute_orbit_partition(g):
    n = g.n
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for perm in itertools.permutations(range(n)):
        ok = True
        for i in range(n):
            ri = g.rows[i]
            for j in range(i + 1, n):
                if ((ri >> j) & 1) != ((g.rows[perm[i]] >> perm[j]) & 1):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            for v in range(n):
                a, b = find(v), find(perm[v])
                if a != b:
                    parent[max(a, b)] = min(a, b)
    return tuple(find(v) for v in range(n))


def naive_cycle_count(g, m):
    """m-cycle subgraphs by scanning vertex subsets and closed orderings."""
    count = 0
    for sub in itertools.combinations(range(g.n), m):
        for perm in itertools.permutations(sub[1:]):
            cyc = (sub[0],) + perm
            if all(g.has_edge(cyc[i], cyc[(i + 1) % m]) for i in range(m)):
                count += 1
    # every cycle appears twice with the smallest vertex first
    assert count % 2 == 0
    return count // 2


def two_coloring(g):
    """Proper 2-coloring as a list of 0/1, or None if not bipartite."""
    color = [-1] * g.n
    for s in range(g.n):
        if color[s] != -1:
            continue
        color[s] = 0
        queue = [s]
        while queue:
            u = queue.pop()
            for v in bits(g.rows[u]):
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    return None
    return color


def naive_path_counts(g, length):
    """Matrix of a-b paths with ``length`` edges, a != b, by scanning the
    orderings of the inner vertices; the diagonal is 0."""
    paths = [[0] * g.n for _ in range(g.n)]
    for a, b in itertools.permutations(range(g.n), 2):
        others = [x for x in range(g.n) if x not in (a, b)]
        for inner in itertools.permutations(others, length - 1):
            seq = (a,) + inner + (b,)
            if all(g.has_edge(seq[i], seq[i + 1]) for i in range(length)):
                paths[a][b] += 1
    return paths


def naive_embedding_count(g, h):
    """Injective edge-preserving maps counted by raw permutation scan."""
    count = 0
    hedges = [(i, j) for i in range(h.n) for j in range(i + 1, h.n) if h.has_edge(i, j)]
    for image in itertools.permutations(range(g.n), h.n):
        if all(g.has_edge(image[i], image[j]) for i, j in hedges):
            count += 1
    return count


def naive_contains(g, h):
    return h.n <= g.n and naive_embedding_count(g, h) > 0


def seeded_rng():
    return random.Random(987123)


def child_ok_oracle(filt, rows, j, s, edges, desc=False):
    """Whether attaching set ``s`` to a new vertex j keeps the filter reachable
    and gives the new vertex the extremal degree of the child.

    The per-candidate test of the generator before it built only
    admissible sets: the degree cap, edge-count reachability and, for a
    regular filter, every deficiency the remaining vertices must make up.
    The degree test comes from canonical acceptance: the new vertex has
    the largest degree of the child, or the smallest with ``desc``.
    """
    n = filt.n
    r = filt.max_degree if filt.max_degree is not None else n - 1
    if filt.regular_k is not None:
        r = min(r, filt.regular_k)
    k = filt.regular_k
    m = n * k // 2 if k is not None else filt.edge_count
    size = s.bit_count()
    if size > r:
        return False
    child_degrees = [rows[v].bit_count() + ((s >> v) & 1) for v in range(j)]
    if desc and any(d < size for d in child_degrees):
        return False
    if not desc and any(d > size for d in child_degrees):
        return False
    if any((s >> v) & 1 and rows[v].bit_count() >= r for v in range(j)):
        return False
    if m is not None:
        future = sum(min(i, r) for i in range(j + 1, n))
        if edges + size > m or edges + size + future < m:
            return False
    if k is not None:
        f = n - j - 1
        deficits = [k - rows[v].bit_count() - ((s >> v) & 1) for v in range(j)]
        deficits.append(k - size)
        if max(deficits) > f:
            return False
        total = sum(deficits)
        if total > f * k or (total - f * k) % 2 != 0:
            return False
    return True


def split_round(rows, cells, desc):
    """One refinement round that splits every cell against every cell,
    keyed by the tuple of counts."""
    new = []
    for c in cells:
        keys = {}
        for v in c:
            key = tuple(sum((rows[v] >> u) & 1 for u in d) for d in cells)
            keys.setdefault(key, []).append(v)
        new.extend(keys[k] for k in sorted(keys, reverse=desc))
    return new


def refine_oracle(rows, cells, desc):
    """Stable refinement by ``split_round`` until a round changes nothing."""
    while True:
        new = split_round(rows, cells, desc)
        if len(new) == len(cells):
            return new
        cells = new


def degree_cells(rows, desc):
    """The partition by degree, in cell order: the first refinement round
    of the one-cell partition."""
    by_degree = {}
    for v, row in enumerate(rows):
        by_degree.setdefault(row.bit_count(), []).append(v)
    return [by_degree[d] for d in sorted(by_degree, reverse=desc)]
