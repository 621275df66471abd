"""The builders' whole-mask rotation passes against their per-pair loops."""

from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from helpers import delete_rotations_oracle, multipartite_rows_oracle  # noqa: E402

from turan_reg import constructions  # noqa: E402
from turan_reg.constructions import ConstructionError, _delete_rotations  # noqa: E402


@st.composite
def deletions(draw):
    """Random rows, two blocks of ``size`` labels (they may overlap) and
    shifts that repeat, reach past ``size`` or are negative."""
    size = draw(st.integers(0, 24))
    a = draw(st.integers(0, 12))
    b = draw(st.integers(0, 30))
    n = max(a, b) + size + draw(st.integers(0, 3))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
    shifts = draw(st.lists(st.integers(-2 * size - 2, 3 * size + 3), max_size=8))
    return rows, a, b, size, shifts


@settings(derandomize=True, max_examples=400, deadline=None)
@given(deletions())
def test_delete_rotations_vs_oracle(case):
    rows, a, b, size, shifts = case
    expected = list(rows)
    delete_rotations_oracle(expected, a, b, size, shifts)
    _delete_rotations(rows, a, b, size, shifts)
    assert rows == expected


# (n, r) -> (x, y): two parts with even and odd y, three and five parts
# with odd y
POINTS = {(14, 4): (4, 2), (23, 4): (6, 5), (27, 4): (8, 3), (19, 5): (4, 3), (45, 5): (10, 5),
          (53, 7): (8, 5)}


def _outcome(fn, n, r):
    try:
        return fn(n, r)
    except ConstructionError as exc:
        return str(exc), exc.prop


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from(sorted(POINTS)), st.data())
def test_multipartite_schedules_vs_oracle(point, data):
    """Any schedule of y // 2 shifts, feasible or not, gives the rows of
    the per-layer construction or its refusal: the static check on the
    masks refuses exactly the schedules whose layers share a pair."""
    n, r = point
    x, y = POINTS[point]
    assert constructions._multipartite_decompose(n, r) == (x, y)
    shifts = data.draw(st.lists(st.integers(-x, 2 * x), min_size=y // 2, max_size=y // 2))
    with mock.patch.object(
        constructions, "_core_y_factor_layers", lambda t, x, y: (shifts, y % 2 == 1)
    ):
        built = _outcome(lambda n, r: constructions.multipartite_regular(n, r).graph.rows, n, r)
        assert built == _outcome(multipartite_rows_oracle, n, r)
