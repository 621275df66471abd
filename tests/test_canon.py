import hashlib
import random

import pytest

from helpers import (
    all_labeled_graphs,
    automorphism_generators,
    automorphism_group_order,
    brute_cert,
    brute_orbit_partition,
    degree_cells,
    ir_leaves,
    path_graph,
    petersen_graph,
    random_graph,
    random_graph_with_twins,
    refine_oracle,
    seeded_rng,
    splitter_round,
    targeted_search_graphs,
)

from turan_reg import canon
from turan_reg.canon import (
    _refine,
    _row_split,
    _search,
    _split,
    canon_core,
    canonical_form,
    orbits_from_generators,
)
from turan_reg.graphs import (
    bits,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    from_edges,
    relabel,
)


def test_label_examples():
    c5 = cycle_graph(5)
    shuffled = from_edges(5, [(2, 4), (4, 1), (1, 3), (3, 0), (0, 2)])
    assert canonical_form(c5) == canonical_form(shuffled)
    assert canonical_form(c5) != canonical_form(path_graph(5))


def test_eleven_classes_on_four_vertices():
    labels = {canon_core(g.rows, g.n)[1] for g in all_labeled_graphs(4)}
    assert len(labels) == 11


def test_partition_matches_brute_force():
    # exhaustive through n=5: identical class partition as the n! oracle
    for n in range(1, 6):
        by_brute = {}
        for g in all_labeled_graphs(n):
            by_brute.setdefault(brute_cert(g), set()).add(canon_core(g.rows, g.n)[1])
        fast = [next(iter(v)) for v in by_brute.values()]
        assert all(len(v) == 1 for v in by_brute.values())
        assert len(set(fast)) == len(by_brute)


def test_partition_matches_brute_force_sampled():
    rng = seeded_rng()
    for _ in range(80):
        n = rng.randint(6, 7)
        g = random_graph(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        h = relabel(g, perm)
        assert canonical_form(g) == canonical_form(h)
        assert brute_cert(g) == brute_cert(h)


def test_distinct_for_nonisomorphic_sampled():
    rng = seeded_rng()
    for _ in range(40):
        n = rng.randint(5, 7)
        g, h = random_graph(rng, n), random_graph(rng, n)
        same_fast = canon_core(g.rows, n)[1] == canon_core(h.rows, n)[1]
        assert same_fast == (brute_cert(g) == brute_cert(h))


def test_orbits_complete():
    rng = seeded_rng()
    for _ in range(120):
        n = rng.randint(2, 7)
        g = random_graph(rng, n)
        _, _, autos = canon_core(g.rows, g.n)
        assert tuple(orbits_from_generators(n, autos)) == brute_orbit_partition(g)


def test_desc_variant_same_partition():
    rng = seeded_rng()
    for _ in range(60):
        n = rng.randint(3, 7)
        g = random_graph(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        h = relabel(g, perm)
        assert canon_core(g.rows, n, desc=True)[1] == canon_core(h.rows, n, desc=True)[1]


def test_canonical_form_is_isomorphic():
    rng = seeded_rng()
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 8))
        cf = canonical_form(g)
        assert sorted(map(int.bit_count, cf.rows)) == sorted(map(int.bit_count, g.rows))
        assert canonical_form(cf) == canonical_form(g)


def test_group_orders():
    assert automorphism_group_order(cycle_graph(5)) == 10
    assert automorphism_group_order(complete_graph(4)) == 24
    assert automorphism_group_order(complete_bipartite(3, 3)) == 72
    assert automorphism_group_order(petersen_graph()) == 120
    assert automorphism_group_order(path_graph(4)) == 2


def test_generators_are_automorphisms():
    rng = seeded_rng()
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 8))
        for a in automorphism_generators(g):
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    assert g.rows[u] >> v & 1 == g.rows[a[u]] >> a[v] & 1


# SHA-256 of one "n desc perm cert" line per graph and order, over 2000
# seeded random graphs with n <= 13 and injected twins: pinned so that a
# change of the canonical form itself shows, not only of the partition
# into classes that it induces.  The second digest, of one "n desc
# generators" line each, pins the automorphisms the search returns: a
# search that prunes with automorphisms not fixing every cell of the
# current partition keeps perm and cert but returns other generators.
CANON_GOLDEN = "26ea60bdc1b80f35c98fe50f135d65ddda17664285709f626d6a9a5f4e54e77d"
AUTOS_GOLDEN = "9c1028c02eab96f5280c8595cfae44590e080ada3b2a500a81665cc821b7dc4b"


def test_canon_core_golden():
    rng = random.Random(20261018)
    h, h_autos = hashlib.sha256(), hashlib.sha256()
    for _ in range(2000):
        g = random_graph_with_twins(rng, 13)
        for desc in (False, True):
            perm, cert, autos = canon_core(g.rows, g.n, desc)
            h.update(f"{g.n} {int(desc)} {perm} {cert}\n".encode())
            h_autos.update(f"{g.n} {int(desc)} {autos}\n".encode())
    assert h.hexdigest() == CANON_GOLDEN
    assert h_autos.hexdigest() == AUTOS_GOLDEN


def test_refine_matches_full_splitting():
    # splitting only against the cells the last round created gives the
    # partition, in the same cell order, that splitting against every cell
    # gives; also from the degree partition without its last cell as a
    # splitter, and after individualizing a vertex with active=(idx,)
    rng = random.Random(4242)
    for _ in range(300):
        g = random_graph_with_twins(rng, 18)
        one = [(1 << g.n) - 1]
        for desc in (False, True):
            stable = _refine(g.rows, g.n, one, desc)
            assert stable == refine_oracle(g.rows, one, desc)
            # from the degree partition, every cell active but the last
            cells = degree_cells(g.rows, desc)
            assert _refine(g.rows, g.n, cells, desc, active=range(len(cells) - 1)) == stable
            idx = next((i for i, c in enumerate(stable) if c & (c - 1)), None)
            if idx is None:
                continue
            for v in bits(stable[idx]):
                cells = stable[:idx] + [1 << v, stable[idx] ^ 1 << v] + stable[idx + 1:]
                want = refine_oracle(g.rows, cells, desc)
                assert _refine(g.rows, g.n, cells, desc, active=(idx,)) == want
                # the mask round by v's row, then refinement from its splitters
                split, active = _row_split(cells, g.rows[v], desc)
                assert (split, active) == _split(g.rows, cells, [1 << v, 0], g.n.bit_length(), desc)
                assert _refine(g.rows, g.n, split, desc, active=active) == want


def test_one_splitter_keys_match_packed_keys():
    # a round with one splitter keys each vertex by its count alone; the
    # packed key of the same count with an empty second splitter (a zero
    # field, first or last) orders the sub-cells the same way, and both
    # agree with sorting count tuples, as do rounds with more splitters
    # (two-vertex cells are compared splitter by splitter)
    rng = random.Random(5151)
    for _ in range(300):
        g = random_graph_with_twins(rng, 18)
        b = g.n.bit_length()
        perm = list(range(g.n))
        rng.shuffle(perm)
        cells = []
        for v in perm:  # a random ordered partition
            if cells and rng.random() < 0.6:
                cells[rng.randrange(len(cells))] |= 1 << v
            else:
                cells.append(1 << v)
        for desc in (False, True):
            for m in (rng.getrandbits(g.n), rng.choice(cells), 1 << rng.randrange(g.n)):
                got = _split(g.rows, cells, [m], b, desc)
                assert got == _split(g.rows, cells, [m, 0], b, desc)
                assert got == _split(g.rows, cells, [0, m], b, desc)
                assert got == splitter_round(g.rows, cells, [m], desc)
                if m and not m & (m - 1):
                    assert got == _row_split(cells, g.rows[m.bit_length() - 1], desc)
            for k in (2, 3):
                several = [rng.choice((rng.getrandbits(g.n), rng.choice(cells))) for _ in range(k)]
                got = _split(g.rows, cells, several, b, desc)
                assert got == splitter_round(g.rows, cells, several, desc)


@pytest.mark.parametrize("desc", [False, True], ids=["asc", "desc"])
def test_targeted_search_vs_ir_leaves(desc, monkeypatch):
    # against every leaf of the unpruned tree below the stable partition:
    # the full search finds the best certificate; with ``keep=j``, j in
    # the last cell, the best over the leaves ending at j, or -1 with no
    # such leaf, and automorphisms that fix j; with ``above=c``, started
    # from those automorphisms, it visits leaves up to the first that
    # exceeds c and returns there, or visits them all
    visited = []
    pack = canon._pack_cert

    def recording(rows, perm):
        visited.append(pack(rows, perm))
        return visited[-1]

    monkeypatch.setattr(canon, "_pack_cert", recording)
    none = stopped = 0
    for g in targeted_search_graphs(random.Random(3203)):
        n, rows = g.n, g.rows
        cells = _refine(rows, n, [(1 << n) - 1], desc)
        if len(cells) == n:
            continue
        leaves = ir_leaves(rows, n, cells, desc)
        top = max(cert for _, cert in leaves)
        assert _search(rows, n, cells, desc)[1] == top
        for j in bits(cells[-1]):
            want = max((cert for perm, cert in leaves if perm[-1] == j), default=-1)
            perm, best, autos = _search(rows, n, cells, desc, keep=j)
            assert best == want, (rows, j)
            if best < 0:
                none += 1
            else:
                assert perm[-1] == j and (perm, best) in leaves
            for a in autos:
                assert a[j] == j
                assert [sum(1 << a[w] for w in bits(rows[u])) for u in range(n)] == [
                    rows[a[u]] for u in range(n)
                ]
            for c in {-1, want, top - 1, top, *(cert for _, cert in leaves[::3])}:
                visited.clear()
                _, got, _ = _search(rows, n, cells, desc, above=c, autos=autos)
                assert (got > c) == (top > c), (rows, j, c)
                assert all(cert <= c for cert in visited[:-1])
                if got > c:
                    stopped += 1
                    assert visited[-1] == got
                else:
                    assert got == top
    assert none and stopped, (none, stopped)

