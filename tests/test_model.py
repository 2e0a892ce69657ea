"""Kernel and admissibility checks, plus randomized invariants."""

import copy
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minwork.model import (
    Action,
    Availability,
    NumericalFailure,
    PolicyX,
    PolicyY,
    ServerSpec,
    SystemState,
    activity_transition,
    admissible_actions_x,
    admissible_actions_y,
    audit,
    load_spec,
    x_transition,
    y_index,
    y_state,
    ybar_kernel,
    ybar_matrix,
    _kernel_matrices,
)
from minwork.chain import stationary_pmf_y
from minwork.synthesis import lift_policy

A, B = Availability.A, Availability.B
WORK, REST = Action.WORK, Action.REST


@st.composite
def specs(draw, max_n=4):
    n = draw(st.integers(min_value=1, max_value=max_n))
    unit = st.floats(min_value=0.01, max_value=0.99)
    mu = draw(st.lists(unit, min_size=n, max_size=n))
    up = draw(st.lists(unit, min_size=n - 1, max_size=n - 1)) + [0.0]
    dn = [0.0] + draw(st.lists(unit, min_size=n - 1, max_size=n - 1))
    return ServerSpec(n_s=n, mu=np.array(mu), rho_up=np.array(up), rho_down=np.array(dn))


lams = st.floats(min_value=0.01, max_value=0.99)


def test_audit_raises_on_the_first_check_over_its_bound():
    audit("demo", ("a", 1e-10, 1e-9), ("b", 0.0, 0.0))
    with pytest.raises(NumericalFailure, match=r"^demo audit: b 2\.000e-09 exceeds 1e-09$"):
        audit("demo", ("a", 1e-9, 1e-9), ("b", 2e-9, 1e-9), ("c", 1.0, 1e-9))
    # a NaN compares False against any bound and fails all the same
    with pytest.raises(NumericalFailure, match=r"^demo audit: a nan exceeds 1$"):
        audit("demo", ("a", float("nan"), 1.0))


def test_admissible_actions():
    assert admissible_actions_x(SystemState(3, A, 0)) == {REST}
    assert admissible_actions_x(SystemState(3, B, 2)) == {WORK}
    assert admissible_actions_x(SystemState(3, A, 2)) == {WORK, REST}
    assert admissible_actions_y(A) == {WORK, REST}
    assert admissible_actions_y(B) == {WORK}


def test_busy_empty_pair_is_excluded():
    # (B, 0) is not a state: the only way to keep w = B is an incomplete
    # task, and that task occupies the queue.
    spec = ServerSpec(2, np.array([0.5, 0.5]), np.array([0.5, 0.0]), np.array([0.0, 0.5]))
    for a in (WORK, REST):
        for x in (SystemState(1, A, 1), SystemState(2, B, 3)):
            if a not in admissible_actions_x(x):
                continue
            for nxt in x_transition(spec, 0.3, x, a):
                assert not (nxt.w == B and nxt.q == 0)


def test_spec_validation():
    ok = dict(n_s=2, mu=[0.5, 0.5], rho_up=[0.5, 0.0], rho_down=[0.0, 0.5])
    ServerSpec(**ok)
    with pytest.raises(ValueError):
        ServerSpec(**{**ok, "mu": [0.5, 1.0]})
    with pytest.raises(ValueError):
        ServerSpec(**{**ok, "mu": [0.5]})
    with pytest.raises(ValueError):
        ServerSpec(**{**ok, "rho_up": [0.5, 0.1]})  # top entry must be 0
    with pytest.raises(ValueError):
        ServerSpec(**{**ok, "rho_down": [0.1, 0.5]})  # bottom entry must be 0
    with pytest.raises(ValueError):
        ServerSpec(**{**ok, "n_s": 0})
    with pytest.raises(ValueError, match="n_s must be a positive integer, got True"):
        ServerSpec(n_s=True, mu=[0.5], rho_up=[0.0], rho_down=[0.0])  # a bool is an int to isinstance
    # short forms omit the forced boundary zeros
    s = ServerSpec(n_s=2, mu=[0.5, 0.5], rho_up=[0.5], rho_down=[0.5])
    assert s.rho_up[-1] == 0.0 and s.rho_down[0] == 0.0


def test_spec_is_immutable(spec5):
    mu = np.array([0.5, 0.5])
    spec = ServerSpec(n_s=2, mu=mu, rho_up=[0.5], rho_down=[0.5])
    for arr in (spec.mu, spec.rho_up, spec.rho_down):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.25
    # the spec keeps its own copy: the caller's array stays writeable and
    # changing it does not reach the spec
    mu[0] = 0.25
    assert spec.mu[0] == 0.5
    _kernel_matrices(spec)
    for twin in (copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
        assert not twin.mu.flags.writeable
        assert "_kernels" not in vars(twin)
        np.testing.assert_array_equal(twin.rho_down, spec.rho_down)


def test_policy_is_immutable(spec5):
    a = np.array([1.0, 1.0, 1.0, 1.0, 0.0])
    phi = PolicyY(a)
    before = hash(phi)
    with pytest.raises(ValueError, match="read-only"):
        phi.work_prob[4] = 1.0
    # the policy keeps its own copy: the caller's array stays writeable and
    # changing it reaches neither the policy nor its hash
    a[4] = 1.0
    assert phi.work_prob[4] == 0.0 and hash(phi) == before


def test_policy_copies_are_validated(spec5):
    # copies and unpickled policies are built anew: their arrays are
    # read-only and they carry no law kept on the policy they copy
    phi = PolicyY([0.3, 1.0, 0.2, 0.7, 0.1])
    stationary_pmf_y(spec5, phi)
    for twin in (copy.deepcopy(phi), pickle.loads(pickle.dumps(phi))):
        assert twin == phi
        assert not twin.work_prob.flags.writeable
        assert "_law" not in vars(twin)
    theta = lift_policy(phi)
    for twin in (copy.deepcopy(theta), pickle.loads(pickle.dumps(theta))):
        assert twin == theta
        assert not twin.table.flags.writeable


@pytest.mark.parametrize("name", ["spec2", "spec5"])
def test_kernels_built_once_per_spec(name, request):
    spec = request.getfixturevalue(name)
    pw, pr = _kernel_matrices(spec)
    again = _kernel_matrices(spec)
    assert again[0] is pw and again[1] is pr
    for k in (pw, pr):
        assert not k.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            k[0, 0] = 0.0
    n = spec.n_s
    for i in range(2 * n):
        y = y_state(n, i)
        for a in admissible_actions_y(y.w):
            np.testing.assert_array_equal((pw if a == WORK else pr)[i], ybar_kernel(spec, y, a))


def test_activity_transition_examples(spec2):
    np.testing.assert_allclose(activity_transition(spec2, 1, WORK), [0.7, 0.3])
    np.testing.assert_allclose(activity_transition(spec2, 1, REST), [1.0, 0.0])
    np.testing.assert_allclose(activity_transition(spec2, 2, WORK), [0.0, 1.0])
    np.testing.assert_allclose(activity_transition(spec2, 2, REST), [0.4, 0.6])
    with pytest.raises(ValueError):
        activity_transition(spec2, 3, WORK)


def test_x_transition_work_example(spec2):
    # mu1 = 0.75, lam = 0.2, rho_up(1) = 0.3; worked out by hand
    out = x_transition(spec2, 0.2, SystemState(1, A, 1), WORK)
    expect = {
        SystemState(1, A, 1): 0.75 * 0.2 * 0.7,
        SystemState(2, A, 1): 0.75 * 0.2 * 0.3,
        SystemState(1, A, 0): 0.75 * 0.8 * 0.7,
        SystemState(2, A, 0): 0.75 * 0.8 * 0.3,
        SystemState(1, B, 2): 0.25 * 0.2 * 0.7,
        SystemState(2, B, 2): 0.25 * 0.2 * 0.3,
        SystemState(1, B, 1): 0.25 * 0.8 * 0.7,
        SystemState(2, B, 1): 0.25 * 0.8 * 0.3,
    }
    assert set(out) == set(expect)
    for k, v in expect.items():
        assert out[k] == pytest.approx(v, abs=1e-15)


def test_x_transition_rest_example(spec2):
    out = x_transition(spec2, 0.2, SystemState(2, A, 3), REST)
    expect = {
        SystemState(2, A, 4): 0.2 * 0.6,
        SystemState(1, A, 4): 0.2 * 0.4,
        SystemState(2, A, 3): 0.8 * 0.6,
        SystemState(1, A, 3): 0.8 * 0.4,
    }
    assert set(out) == set(expect)
    for k, v in expect.items():
        assert out[k] == pytest.approx(v, abs=1e-15)


def test_x_transition_rejects_inadmissible(spec2):
    with pytest.raises(ValueError):
        x_transition(spec2, 0.2, SystemState(1, A, 0), WORK)
    with pytest.raises(ValueError):
        x_transition(spec2, 0.2, SystemState(1, B, 1), REST)


def test_ybar_kernel_rows(spec2):
    from minwork.model import ServerState

    # Work from (1, A): availability next step is A w.p. mu(1)
    row = ybar_kernel(spec2, ServerState(1, A), WORK)
    np.testing.assert_allclose(
        row, [0.75 * 0.7, 0.75 * 0.3, 0.25 * 0.7, 0.25 * 0.3], atol=1e-15
    )
    # Rest from (2, A): stays available, activity may fall
    row = ybar_kernel(spec2, ServerState(2, A), REST)
    np.testing.assert_allclose(row, [0.4, 0.6, 0.0, 0.0], atol=1e-15)


def test_ybar_matrix_accepts_plain_arrays(spec2):
    m1 = ybar_matrix(spec2, PolicyY(np.array([1.0, 0.5])))
    m2 = ybar_matrix(spec2, np.array([1.0, 0.5]))
    np.testing.assert_array_equal(m1, m2)


@pytest.mark.parametrize("wp", [[1.5, np.nan], [0.5, -0.25], [np.nan, 0.5]])
def test_ybar_matrix_rejects_plain_arrays_outside_unit_interval(wp):
    # a plain vector is checked as a PolicyY is, not turned into negative
    # entries or NaN rows
    spec = ServerSpec(n_s=2, mu=[0.5, 0.5], rho_up=[0.5], rho_down=[0.5])
    with pytest.raises(ValueError, match=r"work probabilities must lie in \[0, 1\]"):
        ybar_matrix(spec, wp)
    with pytest.raises(ValueError, match="policy must give 2 work probabilities"):
        ybar_matrix(spec, [0.5, 0.5, 0.5])


def test_y_index_round_trip():
    for n in (1, 3, 5):
        seen = set()
        for w in (A, B):
            for s in range(1, n + 1):
                i = y_index(n, s, w)
                assert y_state(n, i) == (s, w)
                seen.add(i)
        assert seen == set(range(2 * n))


def test_policy_validation():
    with pytest.raises(ValueError):
        PolicyY(np.array([0.5, 1.2]))
    with pytest.raises(ValueError):
        PolicyY(np.array([]))
    phi = PolicyY(np.array([0.25, 1.0]))
    assert phi(1, A) == 0.25 and phi(1, B) == 1.0
    np.testing.assert_array_equal(phi.full, [0.25, 1.0, 1.0, 1.0])
    assert phi.in_phi_r_plus()
    assert phi.in_phi_r_eps(0.25) and not phi.in_phi_r_eps(0.3)

    theta = lift_policy(phi)
    assert theta.work_prob(1, A, 0) == 0.0
    assert theta.work_prob(1, B, 4) == 1.0
    assert theta.work_prob(1, A, 4) == 0.25
    tbl = theta.table
    assert tbl.shape == (2, 2, 2)
    np.testing.assert_array_equal(tbl[0], 0.0)


@pytest.mark.parametrize(("s", "w"), [(0, A), (-1, A), (3, A), (0, B), (3, B), (1, 2)])
def test_reduced_state_accessors_reject_states_out_of_range(s, w):
    # s - 1 = -1 would index the last entry; each names the state instead
    msg = re.escape(f"({s}, {w}) is not a reduced state for n_s=2: s must lie in 1..n_s")
    with pytest.raises(ValueError, match=msg):
        PolicyY(np.array([0.25, 1.0]))(s, w)
    with pytest.raises(ValueError, match=msg):
        y_index(2, s, w)


@pytest.mark.parametrize(("s", "w", "q"), [(0, A, 0), (1, A, -1), (3, A, 1), (1, B, 0), (1, 2, 1)])
def test_policy_x_work_prob_rejects_states_out_of_range(s, w, q):
    # q = -1 would read the last table row and s = 0 the last column
    theta = lift_policy(PolicyY(np.array([0.25, 1.0])))
    with pytest.raises(ValueError, match=rf"\({s}, {w}, {q}\) is not a state for n_s=2: s must lie in 1..n_s"):
        theta.work_prob(s, w, q)


def test_policy_x_validation():
    good = np.zeros((3, 2, 2))
    good[1:, 1] = 1.0
    good[1, 0] = [0.5, 0.25]
    good[2, 0] = [1.0, 0.0]
    pol = PolicyX(good)
    assert pol.work_prob(1, A, 0) == 0.0
    assert pol.work_prob(1, A, 1) == 0.5
    assert pol.work_prob(1, A, 7) == 1.0  # clamped to the last level
    np.testing.assert_array_equal(pol.levels(4)[3:], [good[2], good[2]])
    good[2, 0, 0] = 0.0  # the policy keeps its own read-only copy
    assert pol.work_prob(1, A, 7) == 1.0
    with pytest.raises(ValueError):
        pol.table[1, 0, 0] = 0.0

    bad = good.copy()
    bad[0, 0, 1] = 0.3  # must rest on an empty queue
    with pytest.raises(ValueError, match="empty-queue rows must rest"):
        PolicyX(bad)
    bad = good.copy()
    bad[2, 1, 0] = 0.9  # busy states must work
    with pytest.raises(ValueError, match="busy rows must work"):
        PolicyX(bad)
    bad = good.copy()
    bad[1, 0, 1] = np.nan
    with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
        PolicyX(bad)
    for shape in ((2, 3, 2), (1, 2, 2), (2, 2, 0), (2, 2)):
        with pytest.raises(ValueError, match="table must have shape"):
            PolicyX(np.zeros(shape))


def test_policies_compare_and_hash_by_value():
    phi = PolicyY(np.array([0.5, 0.25]))
    same = PolicyY([0.5, 0.25])
    assert phi == same and hash(phi) == hash(same)
    assert phi != PolicyY(np.array([0.5, 0.3]))
    assert phi != PolicyY(np.array([0.5, 0.25, 1.0]))
    assert PolicyY(np.array([-0.0, 1.0])) == PolicyY(np.array([0.0, 1.0]))
    assert hash(PolicyY(np.array([-0.0, 1.0]))) == hash(PolicyY(np.array([0.0, 1.0])))
    assert phi != phi.work_prob.tolist()

    theta = lift_policy(phi)
    assert theta == lift_policy(same) and hash(theta) == hash(lift_policy(same))
    assert {theta: "lifted"}[lift_policy(same)] == "lifted"
    assert theta != lift_policy(PolicyY(np.array([0.5, 0.3])))
    deeper = PolicyX(np.concatenate([theta.table, theta.table[1:]]))
    assert theta != deeper  # the same work probabilities at every q, one more row
    assert theta != phi


@settings(max_examples=60, deadline=None)
@given(spec=specs(), lam=lams, data=st.data())
def test_x_transition_is_pmf(spec, lam, data):
    s = data.draw(st.integers(1, spec.n_s))
    w = data.draw(st.sampled_from([A, B]))
    q = data.draw(st.integers(1 if w == B else 0, 3))
    work = data.draw(st.booleans())
    x = SystemState(s, w, q)
    a = WORK if work else REST
    if a not in admissible_actions_x(x):
        a = next(iter(admissible_actions_x(x)))
    out = x_transition(spec, lam, x, a)
    total = sum(out.values())
    assert total == pytest.approx(1.0, abs=1e-12)
    for nxt, p in out.items():
        assert p > 0.0
        assert abs(nxt.q - q) <= 1
        assert 1 <= nxt.s <= spec.n_s
        # busy next step means the server worked and did not finish
        if nxt.w == B:
            assert a == WORK


@settings(max_examples=60, deadline=None)
@given(spec=specs(), data=st.data())
def test_ybar_matrix_is_stochastic(spec, data):
    wp = data.draw(
        st.lists(st.floats(0.0, 1.0), min_size=spec.n_s, max_size=spec.n_s)
    )
    P = ybar_matrix(spec, PolicyY(np.array(wp)))
    assert P.shape == (spec.n_y, spec.n_y)
    assert np.all(P >= 0.0)
    np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(spec=specs(), lam=lams, data=st.data())
def test_x_marginal_matches_ybar_row(spec, lam, data):
    # with q > 0 the server component of X moves exactly like Ybar
    s = data.draw(st.integers(1, spec.n_s))
    w = data.draw(st.sampled_from([A, B]))
    a = WORK if w == B else data.draw(st.sampled_from([WORK, REST]))
    out = x_transition(spec, lam, SystemState(s, w, 2), a)
    marg = np.zeros(spec.n_y)
    for nxt, p in out.items():
        marg[y_index(spec.n_s, nxt.s, nxt.w)] += p
    from minwork.model import ServerState

    np.testing.assert_allclose(marg, ybar_kernel(spec, ServerState(s, w), a), atol=1e-13)


def test_load_spec_round_trip(config_path, spec5):
    spec = load_spec(config_path)
    assert spec == spec5 and hash(spec) == hash(spec5)
    assert {spec5: "example"}[spec] == "example"
    assert pickle.loads(pickle.dumps(spec)) == spec5
    mu = spec5.mu.copy()
    mu[2] += 0.01
    assert spec != ServerSpec(spec5.n_s, mu, spec5.rho_up, spec5.rho_down)
    assert spec != "example1"
    up = spec5.rho_up.copy()
    up[-1] = -0.0  # a signed-zero boundary is accepted and equals the default
    signed = ServerSpec(spec5.n_s, spec5.mu, up, spec5.rho_down)
    assert signed == spec5 and hash(signed) == hash(spec5)


def test_load_spec_errors(tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_text("n_s: 2\nmu: [0.5, 0.5]\n")
    with pytest.raises(ValueError, match="missing keys"):
        load_spec(p)
    p.write_text("- just\n- a list\n")
    with pytest.raises(ValueError, match="mapping"):
        load_spec(p)
    p.write_text("{a: [unclosed")
    with pytest.raises(ValueError, match="YAML"):
        load_spec(p)
    with pytest.raises(OSError):
        load_spec(tmp_path / "absent.yaml")
    p.write_text("n_s: true\nmu: [0.5]\nrho_up: [0.0]\nrho_down: [0.0]\n")
    with pytest.raises(ValueError, match="n_s must be a positive integer, got True"):
        load_spec(p)
