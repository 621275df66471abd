"""Closed-form evaluators and counting identities.

Pure arithmetic companions to the exhaustive searches: degree bounds for
regular hosts avoiding odd cycles, the triangle-count identity linking a
graph with its complement, the pentagon census of star-forest
complements, and the conjectured triangle minimum for regular graphs of
odd order.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .graphs import triangle_count, complement


class FormulaError(ValueError):
    pass


@dataclass(frozen=True)
class FamilySpec:
    """A forbidden odd-cycle pattern.

    kind: "triangle" (K3), "odd-cycle" (the single cycle C_{2l-1}) or
    "odd-cycle-family" (every odd cycle C_3..C_{2l-1}).
    """

    kind: str
    ell: int = 2

    def __post_init__(self):
        if self.kind not in ("triangle", "odd-cycle", "odd-cycle-family"):
            raise FormulaError(f"unknown family kind {self.kind!r}")
        if self.ell < 2:
            raise FormulaError("family parameter must be >= 2")
        if self.kind == "triangle" and self.ell != 2:
            raise FormulaError("triangle family fixes ell = 2")


@dataclass(frozen=True)
class ClosedFormValue:
    value: int
    exact: bool


def exr_closed_form(n, fam):
    """Closed-form regular degree bound for avoiding the given family.

    Even order gives n//2; odd order gives 2*floor(n/(2l+1)).  The value
    is exact for the triangle (every n) and asymptotic for longer
    cycles, reflected in the ``exact`` flag.
    """
    if n < 3:
        raise FormulaError("order must be >= 3")
    if not isinstance(fam, FamilySpec):
        raise FormulaError("family spec required")
    if n % 2 == 0:
        value = n // 2
    else:
        value = 2 * (n // (2 * fam.ell + 1))
    return ClosedFormValue(value=value, exact=fam.ell == 2)


def goodman_defect(g):
    """k3(G) + k3(co-G) + wedge term minus C(n,3); zero for every graph."""
    n = g.n
    wedges2 = sum(d * (n - 1 - d) for d in (r.bit_count() for r in g.rows))
    assert wedges2 % 2 == 0
    return triangle_count(g) + triangle_count(complement(g)) + wedges2 // 2 - comb(n, 3)


def c5_star_forest_count(n, parts):
    """Pentagon count of the complement of a disjoint union of stars.

    ``parts`` lists the leaf counts a_i >= 1 of stars S_{a_i+1}; their
    orders must partition n exactly.  The pair sums run over ordered
    pairs, which is the reading consistent with both closed forms of the
    extremal pentagon count.
    """
    if any(a < 1 for a in parts):
        raise FormulaError("star leaf counts must be >= 1")
    if sum(a + 1 for a in parts) != n:
        raise FormulaError("star orders must partition n exactly")

    def c(a, b):  # zero-extended for the tiny orders
        return comb(a, b) if a >= b else 0

    big_a = sum(parts)
    sum_sq = sum(a * a for a in parts)
    sum_c2 = sum(comb(a, 2) for a in parts)
    pair_aa = big_a * big_a - sum_sq
    pair_c2a = sum(comb(a, 2) * (big_a - a) for a in parts)
    return (
        12 * c(n, 5)
        - 6 * big_a * c(n - 2, 3)
        + 2 * sum_c2 * c(n - 3, 2)
        + 2 * pair_aa * (n - 4)
        - 2 * pair_c2a
    )


def ex_c5_closed_form(r):
    """Maximum pentagon count on r+2 vertices with degree cap r."""
    if r < 6:
        raise FormulaError("closed form stated for r >= 6")
    if r % 2 == 1:
        return 12 * comb(r + 1, 5)
    return r * (r * r - 4) * (r * r - 5 * r + 9) // 10


def gls_critical_range(n, r):
    """Edge window (m_low, m_high]; the critical regime for clique maxima.

    Below m_low the extremal pattern is disjoint (r+1)-cliques plus a
    colex graph; the returned high end is the regular-graph edge count.
    """
    if n < 1:
        raise FormulaError("order must be >= 1")
    if r < 1:
        raise FormulaError("degree cap must be >= 1")
    a, b = divmod(n, r + 1)
    return a * comb(r + 1, 2) + comb(b, 2), n * r // 2


def triangle_window(n):
    """The degrees k of the conjectured triangle minimum at order n: the
    even k with 2*floor(n/5) < k <= 2*floor(n/4) for odd n, none for even
    n.  Its ``start`` is the window's first degree either way."""
    first = 2 * (n // 5) + 2
    return range(first, 2 * (n // 4) + 1 if n % 2 else first, 2)


def conjectured_triangle_min(n, k):
    """Conjectured triangle minimum for k-regular graphs of odd order n."""
    if k not in triangle_window(n):
        raise FormulaError(f"(n={n}, k={k}) outside the conjectured window")
    p = (n - 1) // 2
    q = p - k
    return (k // 2) * (k // 2 - q - 1)
