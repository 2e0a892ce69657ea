"""Solver checks against small LPs with hand-computable optima.

The solver is intentionally self-contained so that the occupation LP
can be cross-checked against an independent construction; the last test
pins that independence down.
"""

import hashlib
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minwork.simplex import SimplexResult, solve_simplex


def test_equality_only():
    # min x + y  s.t.  x + 2y = 4: put everything on y
    res = solve_simplex(c=[1.0, 1.0], A_eq=[[1.0, 2.0]], b_eq=[4.0])
    assert res.optimal
    assert res.value == pytest.approx(2.0, abs=1e-12)
    np.testing.assert_allclose(res.x, [0.0, 2.0], atol=1e-12)


def test_inequality_binding():
    # min -x  s.t.  x <= 3
    res = solve_simplex(c=[-1.0], A_ub=[[1.0]], b_ub=[3.0])
    assert res.optimal
    assert res.value == pytest.approx(-3.0, abs=1e-12)


def test_mixed_constraints():
    # min 2x + y  s.t.  x + y = 1, x - y <= 0: optimum at x = 0, y = 1
    res = solve_simplex(
        c=[2.0, 1.0], A_eq=[[1.0, 1.0]], b_eq=[1.0], A_ub=[[1.0, -1.0]], b_ub=[0.0]
    )
    assert res.optimal
    np.testing.assert_allclose(res.x, [0.0, 1.0], atol=1e-12)
    assert res.value == pytest.approx(1.0, abs=1e-12)


def test_negative_rhs_is_normalized():
    # x - y = -2 with x, y >= 0: min y hits y = 2
    res = solve_simplex(c=[0.0, 1.0], A_eq=[[1.0, -1.0]], b_eq=[-2.0])
    assert res.optimal
    np.testing.assert_allclose(res.x, [0.0, 2.0], atol=1e-12)


def test_infeasible():
    res = solve_simplex(c=[1.0, 1.0], A_eq=[[1.0, 1.0], [1.0, 1.0]], b_eq=[1.0, 2.0])
    assert res.status == "infeasible"
    assert res.x is None and res.value is None


def test_unbounded():
    # min -x with no constraint touching x beyond x >= 0
    res = solve_simplex(c=[-1.0, 0.0], A_eq=[[0.0, 1.0]], b_eq=[1.0])
    assert res.status == "unbounded"


def test_redundant_equality_rows():
    # second row is the first times two; rank deficiency must not upset
    # phase one
    res = solve_simplex(
        c=[1.0, 1.0, 0.0],
        A_eq=[[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]],
        b_eq=[1.0, 2.0],
    )
    assert res.optimal
    assert res.value == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(res.x, [0.0, 0.0, 1.0], atol=1e-12)


def test_degenerate_vertex_terminates():
    # classic cycling-prone instance; Bland's entering rule must leave it
    c = [-0.75, 150.0, -0.02, 6.0]
    A_ub = [
        [0.25, -60.0, -0.04, 9.0],
        [0.5, -90.0, -0.02, 3.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
    b_ub = [0.0, 0.0, 1.0]
    res = solve_simplex(c=c, A_ub=A_ub, b_ub=b_ub)
    assert res.optimal
    assert res.value == pytest.approx(-0.05, abs=1e-9)


def test_zero_objective_reports_feasible_point():
    res = solve_simplex(c=[0.0, 0.0], A_eq=[[1.0, 1.0]], b_eq=[1.0])
    assert res.optimal
    assert res.value == pytest.approx(0.0, abs=1e-15)
    assert res.x.sum() == pytest.approx(1.0, abs=1e-12)


def test_requires_constraints():
    with pytest.raises(ValueError):
        solve_simplex(c=[1.0])


def test_rejects_constraints_of_the_wrong_width():
    # a one-column row must not broadcast across two variables
    with pytest.raises(ValueError, match="do not fit 2 variables"):
        solve_simplex(c=[1.0, 1.0], A_eq=[[1.0]], b_eq=[1.0])
    with pytest.raises(ValueError, match="do not fit 2 variables"):
        solve_simplex(c=[1.0, 1.0], A_ub=[[1.0, 1.0]], b_ub=[1.0, 2.0])


@pytest.mark.parametrize("bad", ["c", "A_eq", "b_eq", "A_ub", "b_ub"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_rejects_non_finite_data(bad, value):
    data = {"c": [1.0, 1.0], "A_eq": [[1.0, 1.0]], "b_eq": [1.0], "A_ub": [[1.0, 0.0]], "b_ub": [2.0]}
    arr = np.array(data[bad])
    arr.flat[0] = value
    data[bad] = arr
    with pytest.raises(ValueError, match="must be finite"):
        solve_simplex(**data)


def test_result_shape():
    res = solve_simplex(c=[1.0, 2.0, 3.0], A_eq=[[1.0, 1.0, 1.0]], b_eq=[1.0])
    assert isinstance(res, SimplexResult)
    assert res.x.shape == (3,)
    assert np.all(res.x >= 0.0)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_random_feasible_systems(data):
    # build A x0 = b from a known nonnegative x0, so feasibility is
    # guaranteed; any optimum must then be no worse than x0
    m = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, 6))
    unit = st.floats(min_value=-2.0, max_value=2.0)
    A = np.array(data.draw(st.lists(st.lists(unit, min_size=n, max_size=n), min_size=m, max_size=m)))
    x0 = np.array(data.draw(st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n)))
    c = np.array(data.draw(st.lists(unit, min_size=n, max_size=n)))
    b = A @ x0
    res = solve_simplex(c=c, A_eq=A, b_eq=b)
    assert res.status in ("optimal", "unbounded")
    if res.status == "optimal":
        assert np.all(res.x >= -1e-9)
        assert np.max(np.abs(A @ res.x - b)) < 1e-7 * (1.0 + np.abs(b).max())
        assert res.value <= c @ x0 + 1e-7


def test_no_external_lp_dependency():
    # the whole point of this module is an independent simplex route
    src = (pathlib.Path(__file__).parent.parent / "src" / "minwork" / "simplex.py").read_text()
    assert "linprog" not in src
    assert "scipy" not in src


def _pinned_systems():
    """About 500 seeded equality systems, some with inequality rows: built
    feasible from a known point, or with a perturbed rhs that is often
    infeasible, or with integer rows that make degenerate, redundant
    constraints; free directions with negative cost make some unbounded."""
    rng = np.random.default_rng(20201)
    for k in range(500):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 9))
        A = rng.uniform(-2.0, 2.0, (m, n))
        if k % 5 == 0:
            A = np.round(A)
        x0 = rng.uniform(0.0, 3.0, n) * (rng.uniform(0.0, 1.0, n) < 0.7)
        c = rng.uniform(-2.0, 2.0, n)
        b = A @ x0
        if k % 7 == 0:
            b = b + rng.uniform(-1.0, 1.0, m)
        ub = {}
        if k % 3 == 0:
            k_ub = int(rng.integers(1, 4))
            ub = {"A_ub": rng.uniform(-2.0, 2.0, (k_ub, n)), "b_ub": rng.uniform(-1.0, 3.0, k_ub)}
        yield c, A, b, ub


PINNED_STATUSES = {"optimal": 316, "infeasible": 86, "unbounded": 98}
PINNED_DIGEST = "e52343f0d3baf46c021e370d3aa4e55c011a1a57eeb4fc91fec4d6948baee101"


def test_simplex_pinned_outputs():
    # Status, solution bytes and value of every system, hashed. The digest
    # was recorded on the commit before the pricing and ratio test ran on
    # Python floats and the pivot became one rank-1 update, and holds on
    # both: the pivots and their floating-point operations did not change.
    # A simplex that refactors its basis changes it and re-records it.
    h = hashlib.sha256()
    statuses = {}
    for c, A, b, ub in _pinned_systems():
        res = solve_simplex(c, A_eq=A, b_eq=b, **ub)
        statuses[res.status] = statuses.get(res.status, 0) + 1
        h.update(res.status.encode())
        if res.optimal:
            h.update(res.x.tobytes())
            h.update(np.float64(res.value).tobytes())
    assert statuses == PINNED_STATUSES
    assert h.hexdigest() == PINNED_DIGEST
