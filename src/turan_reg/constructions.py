"""Deterministic generators for the extremal and equality constructions.

Every builder returns the graph together with a machine-readable
certificate listing the properties it claims (order, regularity, odd
girth, triangle census, embeddings) and the measured values; a violated
property aborts construction with that property named.  Verification
always goes through a generic check of a certificate against the rows,
never through the builder's own bookkeeping: a blow-up's part map is a
homomorphism onto its target graph (``_maps_onto``), an exhibited cycle
is a cycle (``_is_cycle``).  A claim that its certificate does not prove
is measured by the census of ``graphs``, so a refusal names the value.

Matchings that the underlying results merely assert to exist are pinned
down as rotations (i paired with i+c, indices cyclic), which keeps every
output reproducible; where a simple rotation schedule cannot realize the
required deletion the builder reports infeasibility instead of
searching.  A deletion ORs its shifts into one mask and touches each row
once, clearing a rotation of that mask.

Each graph family has one builder.  ``apex``, ``split-apex-equality``
and ``triangle-min-extremal`` are all ``apex_construction``: the last
two are its window point and its point n = 2k+1.  ``pentagon-blowup``
is ``odd_girth_blowup`` at ell = 2.

A ``BUILDERS`` entry is (builder, sweep grid).  The builder's
signature names the parameters it takes: ``PARAMS`` reads them once,
and ``build`` and the ``construct`` options follow it.  Given the sweep
check's arguments as keywords, the grid yields the parameters of each
point.  Builders that share code share a grid; the pentagon's is the
odd-girth grid at ell = 2.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from operator import or_

from .formulas import conjectured_triangle_min, triangle_window
from .graphs import (
    Graph,
    cliques_within,
    complement,
    complete_graph,
    cycle_graph,
    induced_subgraph,
    is_triangle_free,
    odd_girth,
    triangle_count,
)


class ConstructionError(ValueError):
    """Invalid parameters or a failed self-validation check."""

    def __init__(self, message, prop=None):
        super().__init__(message)
        self.prop = prop


@dataclass
class ConstructionResult:
    graph: Graph
    certificate: dict


def _certify(name, params, graph, checks, regular=None):
    """Evaluate (property, expected, actual) triples; abort on mismatch.

    Each row's popcount is read once, for the size and, when the builder
    claims a ``regular`` degree, for a "regular" check placed after the
    first check (the order).
    """
    degrees = list(map(int.bit_count, graph.rows))
    if regular is not None:
        checks = [checks[0], ("regular", True, set(degrees) <= {regular}), *checks[1:]]
    report = []
    for prop, expected, actual in checks:
        ok = expected == actual
        report.append(
            {"property": prop, "expected": expected, "actual": actual, "ok": ok}
        )
        if not ok:
            raise ConstructionError(
                f"{name}: property {prop!r} violated "
                f"(expected {expected!r}, measured {actual!r})",
                prop=prop,
            )
    cert = {
        "name": name,
        "params": params,
        "order": graph.n,
        "size": sum(degrees) // 2,
        "checks": report,
    }
    return ConstructionResult(graph, cert)


def _maps_onto(rows, sizes, target):
    """Whether the parts, runs of consecutive labels of the ``sizes``,
    which must sum to len(rows), map the graph of ``rows`` onto the graph
    whose rows over the part indices are ``target``: the OR of the rows of
    part i misses every part not next to i.  Bits past len(rows) are not
    read, so a prefix of the rows is checked as the graph it induces."""
    if sum(sizes) != len(rows):
        return False
    ends = list(accumulate(sizes, initial=0))
    masks = [(1 << b) - (1 << a) for a, b in zip(ends, ends[1:])]
    every = (1 << len(sizes)) - 1
    for a, b, near in zip(ends, ends[1:], target):
        union = reduce(or_, rows[a:b], 0)
        far = every & ~near
        while far:
            j = far.bit_length() - 1
            far ^= 1 << j
            if union & masks[j]:
                return False
    return True


def _is_cycle(rows, cycle):
    """Whether the vertex list ``cycle`` is a cycle of the graph: at
    least three distinct vertices, each adjacent to the next and the
    last to the first."""
    return len(set(cycle)) == len(cycle) >= 3 and all(
        rows[u] >> v & 1 for u, v in zip(cycle, cycle[1:] + cycle[:1])
    )


def _shift_masks(shifts, size):
    """The shifts as one ``size``-bit mask (bit c % size), and its
    reflection (bit -c % size)."""
    fwd = rev = 0
    for c in shifts:
        fwd |= 1 << c % size
        rev |= 1 << -c % size
    return fwd, rev


def _rotations(mask, size):
    """The ``size``-bit mask rotated up by i, for i = 0, 1, ..., size - 1:
    a window of ``size`` bits slid down two copies of it."""
    twice = mask | mask << size
    full = (1 << size) - 1
    return [twice >> (size - i) & full for i in range(size)]


def _delete_rotations(rows, a, b, size, shifts):
    """Delete, for each shift c, the matching a + i -- b + (i + c) % size
    (0 <= i < size) from the bitmask rows, in place.

    The shifts are ORed into one ``size``-bit mask, and its reflection
    holds the shifts -c.  Row a + i loses the mask rotated up by i, moved
    to b; row b + i loses the reflection rotated up by i, moved to a.  So
    each row is touched once, whatever the number of shifts.
    """
    if not size:
        return
    fwd, rev = _shift_masks(shifts, size)
    for i, (f, r) in enumerate(zip(_rotations(fwd, size), _rotations(rev, size))):
        rows[a + i] &= ~(f << b)
        rows[b + i] &= ~(r << a)


# ---------------------------------------------------------------------------
# blow-ups along an odd cycle


def _blowup_part_sizes(ell, x, y):
    """The 2*ell+1 part sizes: x, x + y, x, x - y repeating, begun at
    x + y for even ell and at x for odd ell, so the first and last parts
    agree in size."""
    start = 1 - ell % 2
    return [(x, x + y, x, x - y)[i % 4] for i in range(start, start + 2 * ell + 1)]


def _build_cycle_blowup(sizes, matchings_removed):
    """Blow-up of an odd cycle, its parts runs of labels of the ``sizes``,
    with rotational matchings removed between the first and last part
    (their sizes must agree), and an odd cycle through one vertex of each."""
    starts = list(accumulate(sizes[:-1], initial=0))
    masks = [((1 << s) - 1) << a for a, s in zip(starts, sizes)]
    rows = []
    for i, s in enumerate(sizes):
        rows += [masks[i - 1] | masks[(i + 1) % len(sizes)]] * s
    # remove rotational matchings between part 0 and the last part, whose
    # sizes ``_blowup_part_sizes`` makes equal and larger than y
    _delete_rotations(rows, 0, starts[-1], sizes[0], range(matchings_removed))
    # vertex 0 lost the last part's first matchings_removed vertices
    cycle = starts[:-1] + [starts[-1] + matchings_removed]
    return Graph(len(rows), tuple(rows)), cycle


def odd_girth_blowup(n, ell):
    """Regular graph of odd order n with odd girth exactly 2*ell+1.

    Writes n = (2*ell+1)x + y with x > y >= 0, joins consecutive stable
    sets around the (2*ell+1)-cycle with the parity-balanced size pattern
    and removes y rotational matchings between the first and last part.
    """
    if ell < 2:
        raise ConstructionError("ell must be >= 2")
    if n % 2 == 0:
        raise ConstructionError("order must be odd")
    m_len = 2 * ell + 1
    x, y = divmod(n, m_len)
    if x <= y:
        raise ConstructionError(
            f"n={n}: need x > y in n = {m_len}x + y (got x={x}, y={y})"
        )
    sizes = _blowup_part_sizes(ell, x, y)
    g, cycle = _build_cycle_blowup(sizes, y)
    # a map onto C_{m_len} takes any odd cycle to an odd closed walk of
    # C_{m_len}, so no odd cycle is shorter than the exhibited one
    proved = _maps_onto(g.rows, sizes, cycle_graph(m_len).rows) and _is_cycle(g.rows, cycle)
    odd = m_len if proved else odd_girth(g)
    return _certify(
        "odd-girth-blowup",
        {"n": n, "ell": ell, "x": x, "y": y, "part_sizes": sizes},
        g,
        [
            ("order", n, g.n),
            ("degree", 2 * x, g.rows[0].bit_count()),
            ("odd-girth", m_len, odd),
            # no triangle iff the odd girth is not 3
            ("triangle-free", True, odd != 3),
        ],
        regular=2 * x,
    )


def _odd_girth_grid(n_max, ell_max=8, spots=()):
    """Every order up to n_max that each ell up to ell_max admits, then
    the (n, ell) spots."""
    for ell in range(2, ell_max + 1):
        m_len = 2 * ell + 1
        for n in range(m_len, n_max + 1, 2):
            x, y = divmod(n, m_len)
            if x > y:
                yield {"n": n, "ell": ell}
    for n, ell in spots:
        yield {"n": n, "ell": ell}


def circulant_small_odd(n):
    """Odd-difference circulant for the leftover small odd orders."""
    if n % 2 == 0 or not 5 <= n <= 19 or n == 15:
        raise ConstructionError("order must be odd, 5 <= n <= 19 and not 15")
    k_half = n // 5
    diffs = [2 * h + 1 for h in range(k_half)]
    # row i is the mask of the differences +-d rotated up by i
    fwd, rev = _shift_masks(diffs, n)
    g = Graph(n, tuple(_rotations(fwd | rev, n)))
    return _certify(
        "circulant-small-odd",
        {"n": n, "differences": diffs},
        g,
        [
            ("order", n, g.n),
            ("degree", 2 * k_half, g.rows[0].bit_count()),
            ("triangle-free", True, is_triangle_free(g)),
        ],
        regular=2 * k_half,
    )


# ---------------------------------------------------------------------------
# the apex construction around a balanced bipartite core


def _apex_rows(p, half, q):
    """The rows of ``apex_construction`` on 2p + 1 vertices: the sides
    0..p-1 and p..2p-1, the apex 2p joined to the first ``half`` vertices
    of each, q + 1 rotations deleted between those blocks and q between
    the other two."""
    side, apex = (1 << p) - 1, 1 << 2 * p
    rows = [side << p | apex] * half + [side << p] * (p - half)
    rows += [side | apex] * half + [side] * (p - half) + [((1 << half) - 1) * (1 | 1 << p)]
    _delete_rotations(rows, 0, p, half, range(q + 1))
    _delete_rotations(rows, half, p + half, p - half, range(q))
    return rows


def apex_construction(n, k):
    """k-regular graph of odd order n whose every triangle uses one vertex.

    An apex joins k/2 vertices of each side of K_{p,p} (n = 2p+1).  A
    (q+1)-regular rotational bipartite graph between the apex's two
    neighbor blocks and a q-regular one between the non-neighbor blocks
    are deleted (q = p - k), leaving a k-regular graph.  Every triangle
    is the apex and an edge inside its neighborhood, so there are
    exactly (k/2)(k/2 - q - 1), about n^2/50 at the bottom of the degree
    window.  At n = 2k+1 (q = 0) this is the unique triangle-minimizing
    k-regular graph on 2k+1 vertices.
    """
    if k not in triangle_window(n):
        raise ConstructionError(
            f"(n={n}, k={k}) outside the window: n odd, k even, "
            f"2*floor(n/5) < k <= 2*floor(n/4)"
        )
    p = (n - 1) // 2
    q = p - k
    half = k // 2
    # the window gives k >= (n+1)/3, so rotations 0..q fit in the block
    if q + 1 > half:
        raise ConstructionError("matching schedule infeasible", prop="matchings")
    apex = n - 1
    rows = _apex_rows(p, half, q)
    g = Graph(n, tuple(rows))
    # with the rows off the apex mapped onto K2 every triangle holds the
    # apex, and the triangles are the edges inside its neighbourhood
    if _maps_onto(g.rows[:apex], (p, p), complete_graph(2).rows):
        off_odd_girth = None
        triangles = cliques_within(rows, rows[apex], 2)
    else:
        off_odd_girth = odd_girth(induced_subgraph(g, apex))
        triangles = triangle_count(g)
    return _certify(
        "apex",
        {"n": n, "k": k, "p": p, "q": q},
        g,
        [
            ("order", n, g.n),
            ("apex-deleted-bipartite", None, off_odd_girth),
            ("triangles", conjectured_triangle_min(n, k), triangles),
        ],
        regular=k,
    )


def _window_grid(n_max, spots=()):
    """Each (n, k) in the triangle window up to n_max, then spot n at its first degree."""
    for n in range(n_max + 1):
        for k in triangle_window(n):
            yield {"n": n, "k": k}
    for n in spots:
        yield {"n": n, "k": triangle_window(n).start}


# ---------------------------------------------------------------------------
# multipartite regular construction


def _multipartite_decompose(n, r):
    for x in range(n // (r - 1) - (n // (r - 1)) % 2, 0, -2):
        y = n - (r - 1) * x
        # the core K_{x,..,x} on r - 2 parts has degree (r - 3)x, which
        # bounds the y-factor it loses
        if 0 <= y <= 2 * r - 3 and (r - 3) * x >= y:
            return x, y
    raise ConstructionError(f"no valid even-x decomposition for n={n}, r={r}")


def _core_y_factor_layers(t, x, y):
    """Rotation layers removing a y-factor from complete t-partite K_{x,..,x}.

    Layers are cyclic 2-factors (shift c: part a vertex i to part a+1
    vertex i+c) plus, for odd y, one half-shift perfect matching.  Shift
    x/2 is reserved for the matching; for two parts the shifts c and x-c
    coincide, halving the supply.
    """
    two_factors_needed = y // 2
    shifts = []
    limit = (x + 1) // 2 if t == 2 else x
    start = 1 if t == 2 else 0
    for c in range(start, limit):
        if len(shifts) == two_factors_needed:
            break
        if c == x // 2:
            continue
        shifts.append(c)
    if len(shifts) < two_factors_needed:
        raise ConstructionError(
            f"y-factor schedule infeasible: {two_factors_needed} cyclic "
            f"2-factors needed, {len(shifts)} shifts available (t={t}, x={x})"
        )
    return shifts, y % 2 == 1


def multipartite_regular(n, r):
    """(r-2)x-regular (r-1)-partite graph on n = (r-1)x + y vertices.

    A complete (r-2)-partite core K_{x,...,x} loses a y-factor realized
    by rotation layers and is then completely joined to a stable set of
    size x+y.

    The shifts are ORed into a forward x-bit mask and its reflection.
    Each core row is written once: the complete row of its part, XORed
    with, for vertex i of part a, the forward mask rotated up by i into
    part a + 1, the reflection rotated up by i into part a - 1 and, for
    odd y, the bit of its half-shift partner.  XOR removes an edge only if no
    two layers share a pair, which the masks show before any row is
    touched: a repeated shift, for two parts (where a + 1 = a - 1) two
    shifts c, c' with c + c' = 0 mod x, or shift x/2 beside the matching.
    """
    if r < 4:
        raise ConstructionError("r must be >= 4")
    x, y = _multipartite_decompose(n, r)
    t = r - 2
    core = t * x
    shifts, need_matching = _core_y_factor_layers(t, x, y)
    hhalf = x // 2
    fwd, rev = _shift_masks(shifts, x)
    if (
        fwd.bit_count() < len(shifts)
        or (t == 2 and fwd & rev)
        or (need_matching and fwd >> hhalf & 1)
    ):
        raise ConstructionError("y-factor touched a non-edge", prop="y-factor")
    # vertex i of a part loses rotation i of each mask, in the next part
    # and in the previous; the half-shift matching pairs part a vertex
    # x/2 + i with part a + 1 vertex i, so vertex i also loses bit
    # (i + x/2) % x, in the next part on the upper half and in the
    # previous on the lower
    ups, downs = _rotations(fwd, x), _rotations(rev, x)
    if need_matching:
        ups[hhalf:] = [f | 1 << i for i, f in enumerate(ups[hhalf:])]
        downs[:hhalf] = [b | 1 << hhalf + i for i, b in enumerate(downs[:hhalf])]
    core_mask = (1 << core) - 1
    top_mask = ((1 << (x + y)) - 1) << core
    part_masks = [((1 << x) - 1) << (a * x) for a in range(t)]
    rows = []
    for a in range(t):
        complete = core_mask ^ part_masks[a] | top_mask
        up, down = (a + 1) % t * x, (a - 1) % t * x
        rows += [complete ^ (f << up | b << down) for f, b in zip(ups, downs)]
    rows += [core_mask] * (x + y)
    g = Graph(n, tuple(rows))
    # the parts are stable iff they map the graph onto K_{t+1}
    parts = [x] * t + [x + y]
    parts_stable = _maps_onto(g.rows, parts, complete_graph(t + 1).rows)
    return _certify(
        "multipartite-regular",
        {"n": n, "r": r, "x": x, "y": y, "parts": parts},
        g,
        [
            ("order", n, g.n),
            ("degree", t * x, g.rows[0].bit_count()),
            ("parts-stable", True, parts_stable),
        ],
        regular=t * x,
    )


def _multipartite_grid(n_max, r_max=8):
    """Every (n, r) up to (n_max, r_max) that has a decomposition; the
    builder still refuses the points whose y-factor schedule fails."""
    for r in range(4, r_max + 1):
        for n in range(3 * (r - 1), n_max + 1):
            try:
                _multipartite_decompose(n, r)
            except ConstructionError:
                continue
            yield {"n": n, "r": r}


# ---------------------------------------------------------------------------
# bipartite-with-matching family


def _bipartite_with_pairs(big, small, pairs):
    """The rows of K_{big,small}, the big side 0..big-1 first, plus the
    edges 2i -- 2i+1 for i < pairs."""
    rows = [((1 << small) - 1) << big] * big + [(1 << big) - 1] * small
    for v in range(2 * pairs):
        rows[v] |= 1 << (v ^ 1)
    return rows


def kbe_graph(x, y):
    """Complete bipartite K_{2x,y} plus a perfect matching in the 2x side."""
    if x < 1:
        raise ConstructionError("x must be >= 1")
    if not 0 <= y <= 2 * x:
        raise ConstructionError("y must satisfy 0 <= y <= 2x")
    n = 2 * x + y
    g = Graph(n, tuple(_bipartite_with_pairs(2 * x, y, x)))
    return _certify(
        "kbe",
        {"x": x, "y": y},
        g,
        [
            ("order", n, g.n),
            ("size", 2 * x * y + x, g.edge_count),
        ],
    )


def odd_half_construction(n):
    """Near-n/2-regular graph of odd order embedding in some K^=_{2a,a}.

    K_{x+1,x} with floor((x+1)/2) extra disjoint edges in the larger
    side; for even x a maximum matching among the degree-(x+1) vertices
    is removed to restore regularity.
    """
    if n % 2 == 0 or n < 5:
        raise ConstructionError("order must be odd and >= 5")
    x = (n - 1) // 2
    big, small, pairs = x + 1, x, (x + 1) // 2
    rows = _bipartite_with_pairs(big, small, pairs)
    small_mask = ((1 << small) - 1) << big
    big_mask = (1 << big) - 1
    if x % 2 == 0:
        # degree-(x+1) vertices: the 2*pairs matched big-side vertices and
        # all small-side vertices; remove the rotational matching between
        # them (2*pairs = x = small side size)
        _delete_rotations(rows, 0, big, 2 * pairs, (0,))
        degree = x
    else:
        degree = x + 1
    g = Graph(n, tuple(rows))
    # explicit embedding into K^=_{2a,a} with a = x: big side vertex i
    # sits at matched position i, small side vertex big+j at position 2a+j;
    # cross edges always embed, so only the inner structure needs checking
    embeds = True
    for v in range(big):
        inner = g.rows[v] & big_mask
        partner = v ^ 1
        if inner not in (0, 1 << partner) or (inner and partner >= big):
            embeds = False
    for v in range(big, n):
        if g.rows[v] & small_mask:
            embeds = False
    return _certify(
        "odd-half",
        {"n": n, "x": x, "embedding_a": x},
        g,
        [
            ("order", n, g.n),
            ("degree", degree, g.rows[0].bit_count()),
            ("kbe-subgraph", True, embeds),
        ],
        regular=degree,
    )


def star_partitions(n, least=1):
    """Each multiset of leaf counts a_i >= least with sum(a_i + 1) = n,
    once, as a nondecreasing list."""
    if n == 0:
        yield []
    for first in range(least, n):
        for rest in star_partitions(n - first - 1, first):
            yield [first] + rest


def star_forest_complement(n, parts):
    """Complement of the disjoint union of stars S_{a_i+1}."""
    if any(a < 1 for a in parts):
        raise ConstructionError("star leaf counts must be >= 1")
    if sum(a + 1 for a in parts) != n:
        raise ConstructionError("star orders must partition n exactly")
    rows = [0] * n
    start = 0
    for a in parts:
        center = start
        cmask = 1 << center
        for leaf in range(start + 1, start + a + 1):
            rows[leaf] = cmask
            rows[center] |= 1 << leaf
        start += a + 1
    g = complement(Graph(n, tuple(rows)))
    max_deg = max((r.bit_count() for r in g.rows), default=0)
    return _certify(
        "star-forest-complement",
        {"n": n, "parts": list(parts)},
        g,
        [
            ("order", n, g.n),
            ("max-degree-bound", True, max_deg <= n - 2),
        ],
    )


# name -> (builder, sweep grid); see the module docstring for the
# names that share a builder
BUILDERS = {
    "pentagon-blowup": (
        lambda n: odd_girth_blowup(n, 2),
        lambda n_max: ({"n": p["n"]} for p in _odd_girth_grid(n_max, ell_max=2)),
    ),
    "circulant-small-odd": (
        circulant_small_odd, lambda: ({"n": n} for n in (5, 7, 9, 11, 13, 17, 19))
    ),
    "odd-girth-blowup": (odd_girth_blowup, _odd_girth_grid),
    "apex": (apex_construction, _window_grid),
    "multipartite-regular": (multipartite_regular, _multipartite_grid),
    "kbe": (
        kbe_graph,
        lambda x_max=8: ({"x": x, "y": y} for x in range(1, x_max + 1) for y in range(2 * x + 1)),
    ),
    "odd-half": (
        odd_half_construction, lambda n_max: ({"n": n} for n in range(5, n_max + 1, 2))
    ),
    "triangle-min-extremal": (
        lambda k: apex_construction(2 * k + 1, k),
        lambda k_max, spots=(): ({"k": k} for k in [*range(4, k_max + 1, 2), *spots]),
    ),
    "split-apex-equality": (apex_construction, _window_grid),
    "star-forest-complement": (
        star_forest_complement,
        lambda n_max: (
            {"n": n, "parts": parts} for n in range(2, n_max + 1) for parts in star_partitions(n)
        ),
    ),
}

# name -> the parameter names its builder's signature lists
PARAMS = {name: tuple(inspect.signature(fn).parameters) for name, (fn, _) in BUILDERS.items()}


def _entry(name):
    if name not in BUILDERS:
        raise ConstructionError(f"unknown construction {name!r}")
    return BUILDERS[name]


def build(name, **params):
    """Run the named builder on exactly the parameters it takes; its
    certificate carries ``name``."""
    fn, _ = _entry(name)
    argnames = PARAMS[name]
    missing = [a for a in argnames if a not in params]
    if missing:
        raise ConstructionError(f"{name} needs parameters {missing}")
    extra = sorted(set(params) - set(argnames))
    if extra:
        raise ConstructionError(f"{name} takes parameters {list(argnames)}, not {extra}")
    result = fn(**params)
    result.certificate["name"] = name
    return result


def grid(name, args):
    """The parameters of each point of the named builder's sweep grid,
    for the sweep check's arguments ``args`` (without ``name``); an
    argument the grid does not take, or a missing one, is refused with
    the arguments it takes."""
    _, sweep = _entry(name)
    signature = inspect.signature(sweep)
    try:
        signature.bind(**args)
    except TypeError as exc:
        takes = ", ".join(signature.parameters) or "no arguments"
        raise ConstructionError(f"{name} sweep grid: {exc} (takes {takes})") from None
    return sweep(**args)
