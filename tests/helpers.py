"""Independent brute-force oracles used across the test modules.

Everything here recomputes values by direct enumeration (permutations,
vertex subsets, all labeled graphs) and stays deliberately ignorant of
the package's own algorithms.
"""

import itertools
import random

from turan_reg.graphs import Graph, from_edges


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


def child_ok_oracle(filt, rows, j, s, edges):
    """Whether attaching set ``s`` to a new vertex j keeps the filter reachable.

    The per-candidate test of the generator before it built only
    admissible sets: the degree cap, edge-count reachability and, for a
    regular filter, every deficiency the remaining vertices must make up.
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
