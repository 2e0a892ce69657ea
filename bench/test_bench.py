"""Tests of the benchmark's reference computations and checkers.

    python3 -m pytest -q bench/test_bench.py

Each checker must accept an output that matches the reference and
reject one that is deliberately wrong.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import reference as ref  # noqa: E402
import workloads as W  # noqa: E402
from compare import verdict  # noqa: E402
from tracing import Tracer, layer_metrics, program_api  # noqa: E402


@pytest.fixture(scope="module")
def api():
    return program_api()


@pytest.fixture(scope="module")
def spec(api):
    return api.load_spec(ROOT / W.CONFIG)


# -- reference computations --------------------------------------------------


def test_threshold_points_and_hull(spec):
    points = ref.threshold_points(spec)
    assert len(points) == spec.n_s + 1
    assert points[0] == pytest.approx((0.0, 0.0), abs=1e-15)
    assert points[-1] == pytest.approx((0.05, 1.0), abs=1e-12)  # always work: stuck at s = 5
    assert max(p[0] for p in points) == pytest.approx(0.3, abs=1e-12)
    assert ref.hull_value(points, 0.15) == pytest.approx(12 / 37, abs=1e-12)
    assert ref.hull_value(points, 0.0) == 0.0


def test_hull_value_is_lower_envelope():
    points = [(1.0, 1.0), (0.5, 0.1), (1.0, 0.5)]
    assert ref.hull_value(points, 0.25) == pytest.approx(0.05)
    assert ref.hull_value(points, 0.75) == pytest.approx(0.3)
    assert ref.hull_value(points, 1.0) == pytest.approx(0.5)
    assert ref.hull_value(points, 1.5) == math.inf


def test_stationary_balances_a_dense_chain():
    rng = np.random.default_rng(0)
    P = rng.uniform(0.1, 1.0, (6, 6))
    P /= P.sum(axis=1, keepdims=True)
    pi = ref.stationary(P)
    assert pi @ P == pytest.approx(pi, abs=1e-15)
    assert pi.sum() == pytest.approx(1.0, abs=1e-15)


def test_stationary_falls_back_when_state_zero_is_transient():
    P = np.array([[0.5, 0.5, 0.0], [0.0, 0.3, 0.7], [0.0, 0.6, 0.4]])
    pi = ref.stationary(P)
    assert pi == pytest.approx([0.0, 6 / 13, 7 / 13], abs=1e-12)


def test_lifted_chain_conserves_flow_and_variance(spec):
    chain = ref.lifted_chain(spec, W.LAM, [1.0, 1.0, 1.0, 1.0, 0.0])
    assert chain.tail_mass < 1e-12
    assert chain.max_row_error < 1e-14
    assert chain.service_rate == pytest.approx(W.LAM, abs=1e-12)
    # completions = arrivals - change in queue length, and the queue is
    # positive recurrent, so completions have the Bernoulli arrivals'
    # asymptotic variance
    assert chain.done_variance() == pytest.approx(W.LAM * (1 - W.LAM), rel=1e-9)
    assert chain.work_variance() > 0.0
    assert chain.visit_variance(0) > 0.0


# -- policy-tight ------------------------------------------------------------


def _policy_case(spec):
    """A policy-tight workload with a loose delta, and an output built
    from the reference that its checker must accept."""
    w = W.PolicyTight()
    w.delta = 0.2
    inputs = {"spec": spec}
    refs = w.reference(inputs)
    wp = (1.0, 1.0, 1.0, 1.0, 0.0)
    chain = ref.lifted_chain(spec, W.LAM, wp)
    nu_bar = 0.16
    out = {
        "work_prob": wp,
        "nu_bar": nu_bar,
        "predicted": ref.hull_value(refs["points"], nu_bar) + 0.01,
        "verified": chain.utilization,
        "tail_mass": 1e-14,
        "q_max": 512,
    }
    return w, inputs, refs, out


def _errors(w, inputs, refs, out):
    tally = W.Tally()
    w.check(inputs, refs, out, tally)
    return tally


def test_policy_checker_accepts_reference_output(spec):
    w, inputs, refs, out = _policy_case(spec)
    tally = _errors(w, inputs, refs, out)
    assert tally.errors == [] and (tally.attempted, tally.failed) == (1, 0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("verified", 12 / 37 + 0.2 + 1e-3),  # above frontier(lambda) + delta
        ("verified", 12 / 37 - 1e-3),  # below the infimum
        ("predicted", 12 / 37 - 1e-3),
        ("tail_mass", 1e-9),
        ("work_prob", (0.0, 1.0, 1.0, 1.0, 0.0)),  # never works at (1, A)
    ],
)
def test_policy_checker_rejects(spec, field, value):
    w, inputs, refs, out = _policy_case(spec)
    out[field] = value
    assert _errors(w, inputs, refs, out).errors


def test_policy_checker_rejects_oracle_disagreement(spec):
    w, inputs, refs, out = _policy_case(spec)
    out["verified"] += 1e-6
    assert any("reference chain" in e for e in _errors(w, inputs, refs, out).errors)


def test_policy_checker_counts_a_raise_as_failed(spec):
    w, inputs, refs, _ = _policy_case(spec)
    tally = _errors(w, inputs, refs, {"error": "NumericalFailure: tail mass"})
    assert (tally.attempted, tally.failed, tally.errors) == (1, 1, [])


# -- model-sweep -------------------------------------------------------------


@pytest.fixture(scope="module")
def sweep(api):
    w = W.ModelSweep()
    inputs = w.setup(api, ROOT, 7)
    refs = w.reference(inputs)
    return w, inputs, refs, w.run_round(api, inputs, refs)


def test_sweep_checker_accepts_program_round(sweep):
    w, inputs, refs, out = sweep
    tally = _errors(w, inputs, refs, out)
    assert tally.errors == []
    assert tally.attempted == w.models * (1 + 24) + len(W.FAULT_PANEL)
    # every failure is a fixed fault-panel case
    assert tally.failed == len(W.FAULT_PANEL)


def test_sweep_fault_panel_fails_every_way(sweep):
    w, inputs, refs, out = sweep
    labels = [W.classify_case(o, *c) for o, c in zip(out["panel"], refs["panel"])]
    assert labels == ["raised", "wrong-extraction", "hull-miss", "false-infeasible"]


def test_sweep_checker_rejects_wrong_frontier(sweep):
    w, inputs, refs, out = sweep
    hull, cases = out["models"][0]
    bad = dict(hull, values=[v + 1e-6 for v in hull["values"]])
    wrong = {"models": [(bad, cases)] + out["models"][1:], "panel": out["panel"]}
    assert _errors(w, inputs, refs, wrong).errors


def test_classify_case():
    nu, hull, floor = 0.2, 0.5, 0.01
    assert W.classify_case({"value": hull + 5e-7}, nu, 0.0, hull, 0.0) is None
    assert W.classify_case({"value": hull + 2e-6}, nu, 0.0, hull, 0.0) == "hull-miss"
    assert W.classify_case({"infeasible": True}, nu, 0.0, hull, 0.0) == "false-infeasible"
    assert W.classify_case({"error": "NumericalFailure"}, nu, 0.01, hull, floor) == "raised"
    # infeasible with eps > 0 is wrong only when a witness policy shows nu is reachable
    assert W.classify_case({"infeasible": True}, nu, 0.01, hull, floor) == "false-infeasible"
    assert W.classify_case({"infeasible": True}, 0.005, 0.01, hull, floor) is None
    good = {"value": 0.6, "rates": (nu, 0.6)}
    assert W.classify_case(good, nu, 0.01, hull, floor) is None
    assert W.classify_case(dict(good, value=hull - 1e-6), nu, 0.01, hull, floor) == "below-hull"
    assert W.classify_case(dict(good, rates=(nu + 2e-8, 0.6)), nu, 0.01, hull, floor) == "wrong-extraction"
    assert W.classify_case(dict(good, rates=(nu, 0.6 + 2e-8)), nu, 0.01, hull, floor) == "wrong-extraction"


# -- simulate-long and simulate-wide -----------------------------------------


def _sim_case(spec, name):
    w = W.WORKLOADS[name]
    inputs = {"spec": spec, "seed": 0}
    refs = w.reference(inputs)
    chain = refs["chain"]
    counted = w.horizon - w.horizon // 10
    se_u = math.sqrt(refs["var_work"] / (w.reps * counted))
    se_s = math.sqrt(refs["var_done"] / (w.reps * counted))
    out = {
        "tau": refs["tau"],
        "oracle": (chain.utilization, chain.service_rate, float(chain.pi[0])),
        "sim": (chain.utilization + se_u, W.LAM - se_s, counted),
    }
    kac = 1.0 / chain.pi[0]
    se_k = 0.0
    if w.hit_reps:
        se_k = math.sqrt(refs["var_visit"] / (w.hit_reps * w.hit_horizon)) * kac * kac
        out["hit"] = (kac + se_k, 1000, False)
    return w, inputs, refs, out, (se_u, se_s, se_k)


@pytest.mark.parametrize("name", ["simulate-long", "simulate-wide"])
def test_sim_checker_accepts_one_se(spec, name):
    w, inputs, refs, out, _ = _sim_case(spec, name)
    tally = _errors(w, inputs, refs, out)
    assert tally.errors == [] and tally.failed == 0


@pytest.mark.parametrize("name", ["simulate-long", "simulate-wide"])
@pytest.mark.parametrize("which", ["utilization", "service"])
def test_sim_checker_rejects_five_se(spec, name, which):
    w, inputs, refs, out, (se_u, se_s, _) = _sim_case(spec, name)
    util, served, counted = out["sim"]
    out["sim"] = (util + 4 * se_u, served, counted) if which == "utilization" else (util, served - 4 * se_s, counted)
    assert _errors(w, inputs, refs, out).errors


def test_sim_checker_rejects_kac_five_se(spec):
    w, inputs, refs, out, (_, _, se_k) = _sim_case(spec, "simulate-wide")
    out["hit"] = (out["hit"][0] + 4 * se_k, 1000, False)
    assert any("Kac" in e for e in _errors(w, inputs, refs, out).errors)


def test_sim_checker_rejects_oracle_flow_violation(spec):
    w, inputs, refs, out, _ = _sim_case(spec, "simulate-long")
    u, _, mass = out["oracle"]
    out["oracle"] = (u, W.LAM + 1e-8, mass)
    assert _errors(w, inputs, refs, out).errors


# -- tracing and comparison --------------------------------------------------


def test_tracer_records_boundaries_and_restores(api, spec):
    import minwork.synthesis as synthesis

    original = synthesis.solve_lp
    tracer = Tracer()
    restore = tracer.install()
    traced_api = program_api(tracer)
    try:
        tracer.enabled, tracer.round = True, 1
        traced_api.frontier(spec)
        traced_api.solve_lp(spec, 0.15, 0.01)
        tracer.enabled = False
        traced_api.solve_lp(spec, 0.15, 0.01)
    finally:
        restore()
    assert synthesis.solve_lp is original
    names = [s[0] for s in tracer.spans]
    assert names.count("frontier.lp") == 1 and names.count("simplex") == 1
    assert names.count("chain.stationary") == spec.n_s + 1
    m = layer_metrics(tracer.spans, [1.0], [0.5])
    assert m["frontier.lp.calls"]["value"] == 1 and m["frontier.hull.calls"]["value"] == 1
    assert m["trace.overhead_s"]["value"] == 0.5
    assert m["sim.mc.ns_per_step"]["value"] == 0.0


def test_verdict():
    parent = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.0]
    assert verdict(parent, [v * 0.5 for v in parent], "lower", 0.1) == ("gain", 10)
    assert verdict(parent, [v * 1.3 for v in parent], "lower", 0.1)[0] == "regression"
    assert verdict(parent, list(parent), "lower", 0.1)[0] == "within bound"
    noisy = [1.0, 1.5, 0.7, 1.3, 0.8, 1.0, 1.4, 0.6, 1.2, 0.9]
    assert verdict(noisy, list(noisy), "lower", 0.1)[0] == "unresolved"
