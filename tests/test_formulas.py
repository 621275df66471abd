import pytest

from helpers import random_graph, seeded_rng

from turan_reg.formulas import (
    FamilySpec,
    FormulaError,
    c5_star_forest_count,
    conjectured_triangle_min,
    ex_c5_closed_form,
    exr_closed_form,
    gls_critical_range,
    goodman_defect,
    triangle_window,
)
from turan_reg.constructions import star_forest_complement
from turan_reg.graphs import (
    complete_graph,
    count_cycles,
    cycle_graph,
    empty_graph,
)


def test_family_spec():
    assert FamilySpec("odd-cycle-family", 4).ell == 4
    with pytest.raises(FormulaError):
        FamilySpec("triangle", 3)
    with pytest.raises(FormulaError):
        FamilySpec("odd-cycle", 1)
    with pytest.raises(FormulaError):
        FamilySpec("pentagon")


def test_exr_closed_form_examples():
    k3 = FamilySpec("triangle")
    assert exr_closed_form(10, k3).value == 5
    assert exr_closed_form(10, k3).exact
    assert exr_closed_form(7, k3).value == 2
    r = exr_closed_form(25, FamilySpec("odd-cycle", 3))
    assert r.value == 6 and not r.exact


def test_exr_parity():
    k3 = FamilySpec("triangle")
    for n in range(5, 200, 2):
        assert exr_closed_form(n, k3).value % 2 == 0


def test_goodman_examples():
    assert goodman_defect(complete_graph(4)) == 0
    assert goodman_defect(empty_graph(5)) == 0
    assert goodman_defect(cycle_graph(5)) == 0


def test_goodman_random():
    rng = seeded_rng()
    for _ in range(500):
        g = random_graph(rng, rng.randint(1, 30))
        assert goodman_defect(g) == 0


def test_c5_star_forest_examples():
    assert c5_star_forest_count(9, [8]) == 672
    assert c5_star_forest_count(10, [1, 1, 1, 1, 1]) == 1584
    assert c5_star_forest_count(5, [4]) == 0
    g = star_forest_complement(5, [4]).graph
    assert count_cycles(g, 5) == 0
    with pytest.raises(FormulaError):
        c5_star_forest_count(9, [5])
    with pytest.raises(FormulaError):
        c5_star_forest_count(4, [0, 2])


def test_c5_star_forest_vs_census():
    # a few partitions here; the exhaustive n <= 10 sweep runs in acceptance
    for n, parts in [(7, [2, 1, 1]), (8, [3, 3]), (9, [1, 2, 3]), (10, [9])]:
        g = star_forest_complement(n, parts).graph
        assert c5_star_forest_count(n, parts) == count_cycles(g, 5)


def test_ex_c5_closed_form():
    assert ex_c5_closed_form(7) == 672
    assert ex_c5_closed_form(6) == 288
    assert ex_c5_closed_form(8) == 1584
    with pytest.raises(FormulaError):
        ex_c5_closed_form(5)


def test_gls_critical_range():
    assert gls_critical_range(6, 4) == (10, 12)
    assert gls_critical_range(8, 4) == (13, 16)
    assert gls_critical_range(5, 4) == (10, 10)
    for n in (0, -3):
        with pytest.raises(FormulaError, match="order must be >= 1"):
            gls_critical_range(n, 4)


def test_conjectured_triangle_min():
    assert conjectured_triangle_min(9, 4) == 2
    assert conjectured_triangle_min(13, 6) == 6
    assert conjectured_triangle_min(21, 10) == 20
    assert 4 not in triangle_window(11)
    with pytest.raises(FormulaError):
        conjectured_triangle_min(11, 4)
    with pytest.raises(FormulaError):
        conjectured_triangle_min(9, 3)


def test_triangle_window():
    """The even k with 2*floor(n/5) < k <= 2*floor(n/4) for odd n, none
    for even n; ``start`` is the first degree in both cases."""
    assert list(triangle_window(9)) == [4]
    assert list(triangle_window(41)) == [18, 20]
    assert list(triangle_window(7)) == [] and list(triangle_window(40)) == []
    assert triangle_window(101).start == triangle_window(100).start == 42
    for n in range(1, 400):
        brute = [k for k in range(n) if n % 2 and k % 2 == 0 and 2 * (n // 5) < k <= 2 * (n // 4)]
        assert list(triangle_window(n)) == brute, n
