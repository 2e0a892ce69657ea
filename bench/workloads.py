"""The benchmark's workloads.

Each workload makes its inputs from the seed (`setup`), computes its
own reference values apart from the program (`reference`), calls the
program for one round (`run_round`, the only timed part) and checks a
round's outputs (`check`). Every round of a run repeats the same
operations on the same inputs, so the failed share of a run does not
depend on how many rounds fit into it.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

import reference as ref

LAM = 0.15
CONFIG = "configs/example1.yaml"
# Monte Carlo checks allow Z standard errors; the standard errors are
# exact asymptotic ones from the reference chain, not estimated.
Z = 4.0
# Outcomes of the program that end an operation without a result.
PROGRAM_ERRORS = (RuntimeError, ValueError)


class Tally:
    """Operations attempted and failed, with a label per failure, and the
    checks that did not hold on operations that did not fail."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = Counter()
        self.errors = []

    def op(self, failure: str | None = None):
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            self.failures[failure] += 1

    def add(self, other: "Tally", times: int):
        """Count other's operations `times` over (equal rounds)."""
        self.attempted += other.attempted * times
        self.failed += other.failed * times
        for label, n in other.failures.items():
            self.failures[label] += n * times
        self.errors.extend(e for e in other.errors if e not in self.errors)

    def require(self, ok, message: str):
        if not ok and message not in self.errors:
            self.errors.append(message)


def _error(exc) -> str:
    return f"{type(exc).__name__}: {exc}"


# -- policy-tight -----------------------------------------------------------


class PolicyTight:
    """One certified synthesize(example1, lambda=0.15, delta=0.04)."""

    name = "policy-tight"
    delta = 0.04

    def setup(self, api, root, seed):
        return {"spec": api.load_spec(root / CONFIG)}

    def reference(self, inputs):
        points = ref.threshold_points(inputs["spec"])
        return {"points": points, "frontier_lam": ref.hull_value(points, LAM), "chains": {}}

    def run_round(self, api, inputs, refs):
        try:
            res = api.synthesize(inputs["spec"], LAM, self.delta)
        except PROGRAM_ERRORS as exc:
            return {"error": _error(exc)}
        return {
            "work_prob": tuple(float(p) for p in res.policy.base.work_prob),
            "nu_bar": res.nu_star_rate,
            "predicted": res.predicted_utilization,
            "verified": res.verified_utilization,
            "tail_mass": res.tail_mass,
            "q_max": res.q_max_used,
        }

    def check(self, inputs, refs, out, tally):
        if "error" in out:
            tally.op("synthesize raised")
            return
        tally.op()
        spec, u, d = inputs["spec"], refs["frontier_lam"], self.delta
        tally.require(u - 1e-9 <= out["verified"] <= u + d, f"verified utilization {out['verified']:.9g} outside [{u:.9g}, {u + d:.9g}]")
        tally.require(out["predicted"] >= u - 1e-9, f"predicted utilization {out['predicted']:.9g} below frontier {u:.9g}")
        hull_nu = ref.hull_value(refs["points"], out["nu_bar"])
        tally.require(out["predicted"] >= hull_nu - 1e-9, f"LP value {out['predicted']:.9g} below the hull {hull_nu:.9g} at its service rate")
        wp = out["work_prob"]
        tally.require(wp[0] > 0.0, "policy never works at (1, A)")
        base_rate = ref.policy_rates(spec, wp)[0]
        tally.require(base_rate > LAM, f"base policy serves at {base_rate:.9g}, not above lambda")
        tally.require(out["tail_mass"] < 1e-10, f"oracle tail mass {out['tail_mass']:.3e}")
        if wp[0] <= 0.0 or base_rate <= LAM:
            return  # no stationary law to compare with
        if wp not in refs["chains"]:
            refs["chains"][wp] = ref.lifted_chain(spec, LAM, wp)
        chain = refs["chains"][wp]
        tally.require(chain.tail_mass < ref.TAIL_TOL, f"reference chain tail mass {chain.tail_mass:.3e}")
        tally.require(
            abs(chain.utilization - out["verified"]) <= 1e-8,
            f"verified utilization {out['verified']:.12g} differs from the reference chain's {chain.utilization:.12g}",
        )


# -- model-sweep ------------------------------------------------------------


def random_spec(api, rng, n):
    return api.ServerSpec(
        n_s=n,
        mu=rng.uniform(0.02, 0.95, n),
        rho_up=rng.uniform(0.02, 0.5, n - 1),
        rho_down=rng.uniform(0.02, 0.5, n - 1),
    )


SWEEP_FRACTIONS = tuple(np.linspace(0.1, 0.9, 8))
SWEEP_EPS = (0.0, 1e-2, 1e-4)
# LP cases that fail on every run because of the simplex fault, one per way
# it shows: (n_s, model key, grid index, eps). Model k of size n is drawn
# from default_rng([2020, n, k]); none of it depends on the seed.
FAULT_PANEL = (
    (7, 0, 3, 0.0),  # raises NumericalFailure
    (6, 6, 7, 1e-4),  # extracted policy serves at 0.889, not 0.800
    (9, 0, 0, 0.0),  # misses the hull by more than 1e-6
    (9, 0, 6, 0.0),  # reports a feasible LP infeasible
)


def _solve_case(api, spec, nu, eps):
    """One LP, and at eps > 0 the extracted policy and its rates."""
    try:
        res = api.solve_lp(spec, nu, eps)
    except PROGRAM_ERRORS as exc:
        return {"error": _error(exc)}
    if not res.feasible:
        return {"infeasible": True}
    out = {"value": res.value}
    if eps > 0.0:
        phi = api.policy_from_occupation(res.measure)
        out["work_prob"] = tuple(float(p) for p in phi.work_prob)
        try:
            out["rates"] = (api.service_rate(spec, phi), api.utilization_rate_y(spec, phi))
        except PROGRAM_ERRORS as exc:
            out["rates_error"] = _error(exc)
    return out


def classify_case(out, nu, eps, hull, floor_rate):
    """The simplex fault's label for a failed LP case, or None if it holds.

    floor_rate is the service rate of the policy that works only at
    (1, A), with probability eps; any target between it and nu* is
    feasible, so an infeasible answer there is wrong.
    """
    if "error" in out:
        return "raised"
    if "infeasible" in out:
        return "false-infeasible" if eps == 0.0 or nu >= floor_rate else None
    if eps == 0.0:
        return "hull-miss" if abs(out["value"] - hull) > 1e-6 else None
    if out["value"] < hull - 1e-9:
        return "below-hull"
    if "rates_error" in out:
        return "extraction-raised"
    sr, ur = out["rates"]
    if abs(sr - nu) > 1e-8 or abs(ur - out["value"]) > 1e-8:
        return "wrong-extraction"
    return None


class ModelSweep:
    """Seeded random models; per model the frontier and a grid of LPs."""

    name = "model-sweep"
    models = 16
    n_s = 3

    def setup(self, api, root, seed):
        rng = np.random.default_rng(seed)
        specs = [random_spec(api, rng, self.n_s) for _ in range(self.models)]
        panel = [random_spec(api, np.random.default_rng([2020, n, k]), n) for n, k, _, _ in FAULT_PANEL]
        return {"specs": specs, "panel": panel}

    def reference(self, inputs):
        def model_ref(spec):
            points = ref.threshold_points(spec)
            nu_star = max(p[0] for p in points)
            floor = {eps: ref.policy_rates(spec, np.eye(1, spec.n_s)[0] * eps)[0] for eps in SWEEP_EPS if eps > 0.0}
            cases = []
            for frac in SWEEP_FRACTIONS:
                nu = frac * nu_star
                hull = ref.hull_value(points, nu)
                cases.extend((nu, eps, hull, floor.get(eps, 0.0)) for eps in SWEEP_EPS)
            return {"points": points, "nu_star": nu_star, "cases": cases}

        models = [model_ref(spec) for spec in inputs["specs"]]
        panel = []
        for spec, (_, _, i, eps) in zip(inputs["panel"], FAULT_PANEL):
            m = model_ref(spec)
            panel.append(next(c for c in m["cases"][3 * i : 3 * i + 3] if c[1] == eps))
        return {"models": models, "panel": panel}

    def run_round(self, api, inputs, refs):
        rows = []
        for spec, m in zip(inputs["specs"], refs["models"]):
            try:
                f = api.frontier(spec)
                hull = {"breakpoints": f.breakpoints, "nu_star": f.nu_star, "values": [f(c[0]) for c in m["cases"][::3]]}
            except PROGRAM_ERRORS as exc:
                hull = {"error": _error(exc)}
            rows.append((hull, [_solve_case(api, spec, nu, eps) for nu, eps, _, _ in m["cases"]]))
        panel = [_solve_case(api, spec, c[0], c[1]) for spec, c in zip(inputs["panel"], refs["panel"])]
        return {"models": rows, "panel": panel}

    def check(self, inputs, refs, out, tally):
        for spec, m, (hull, cases) in zip(inputs["specs"], refs["models"], out["models"]):
            if "error" in hull:
                tally.op("frontier raised")
            else:
                tally.op()
                tally.require(abs(hull["nu_star"] - m["nu_star"]) <= 1e-9, f"nu* {hull['nu_star']!r} != reference {m['nu_star']!r}")
                for x, y in hull["breakpoints"][1:]:
                    tally.require(
                        any(abs(x - px) <= 1e-9 and abs(y - py) <= 1e-9 for px, py in m["points"]),
                        f"hull point ({x!r}, {y!r}) is no threshold rate pair of the reference",
                    )
                for value, c in zip(hull["values"], m["cases"][::3]):
                    tally.require(abs(value - c[2]) <= 1e-9, f"frontier({c[0]!r}) = {value!r}, reference hull {c[2]!r}")
            for case_out, case in zip(cases, m["cases"]):
                self._check_case(spec, case_out, case, tally)
        for spec, case_out, case in zip(inputs["panel"], out["panel"], refs["panel"]):
            self._check_case(spec, case_out, case, tally)

    @staticmethod
    def _check_case(spec, out, case, tally):
        nu, eps, hull, floor_rate = case
        label = classify_case(out, nu, eps, hull, floor_rate)
        tally.op(label)
        if label is None and "rates" in out:
            sr, ur = ref.policy_rates(spec, out["work_prob"])
            tally.require(
                abs(sr - out["rates"][0]) <= 1e-9 and abs(ur - out["rates"][1]) <= 1e-9,
                f"rates {out['rates']!r} of an extracted policy differ from the reference ({sr!r}, {ur!r})",
            )


# -- simulate-long and simulate-wide ----------------------------------------


class Simulate:
    """`minwork simulate --lambda 0.15` at a given size: the lifted tau* threshold policy,
    its oracle values and a seeded simulation, optionally with return
    times to (1, A, 0)."""

    def __init__(self, name, horizon, reps, hit_horizon=0, hit_reps=0):
        self.name = name
        self.horizon, self.reps = horizon, reps
        self.hit_horizon, self.hit_reps = hit_horizon, hit_reps

    def setup(self, api, root, seed):
        return {"spec": api.load_spec(root / CONFIG), "seed": seed}

    def reference(self, inputs):
        spec = inputs["spec"]
        points = ref.threshold_points(spec)
        tau = 1 + max(range(len(points)), key=lambda i: (points[i][0], -i))
        work_prob = (np.arange(1, spec.n_s + 1) < tau).astype(float)
        chain = ref.lifted_chain(spec, LAM, work_prob)
        return {
            "tau": tau,
            "chain": chain,
            "var_work": chain.work_variance(),
            "var_done": chain.done_variance(),
            "var_visit": chain.visit_variance(0) if self.hit_reps else 0.0,
        }

    def run_round(self, api, inputs, refs):
        spec, seed = inputs["spec"], inputs["seed"]
        _, tau = api.max_service_rate(spec)
        theta = api.lift_policy(api.threshold_policy(spec.n_s, tau))
        out = {"tau": tau}
        try:
            pmf = api.truncated_stationary_auto(spec, LAM, theta)
            out["oracle"] = (
                api.truncated_utilization(pmf, theta),
                api.truncated_service_rate(spec, pmf, theta),
                pmf.mass(1, api.Availability.A, 0),
            )
        except PROGRAM_ERRORS as exc:
            out["oracle_error"] = _error(exc)
        cfg = api.SimConfig(horizon=self.horizon, replications=self.reps, seed=seed)
        try:
            res = api.simulate(spec, LAM, theta, cfg)
            out["sim"] = (res.empirical_utilization, res.empirical_service_rate, cfg.horizon - cfg.burn_in)
        except PROGRAM_ERRORS as exc:
            out["sim_error"] = _error(exc)
        if self.hit_reps:
            target = api.SystemState(1, api.Availability.A, 0)
            hcfg = api.SimConfig(horizon=self.hit_horizon, replications=self.hit_reps, seed=seed + 1)
            try:
                hit = api.hitting_time_stats(spec, LAM, theta, target, hcfg)
                out["hit"] = (hit.mean, hit.count, hit.censored)
            except PROGRAM_ERRORS as exc:
                out["hit_error"] = _error(exc)
        return out

    def check(self, inputs, refs, out, tally):
        chain = refs["chain"]
        tally.require(out["tau"] == refs["tau"], f"tau* {out['tau']} != reference {refs['tau']}")
        tally.require(chain.tail_mass < ref.TAIL_TOL, f"reference chain tail mass {chain.tail_mass:.3e}")
        u_ref, pi0 = chain.utilization, float(chain.pi[0])
        if "oracle_error" in out:
            tally.op("oracle raised")
            u = u_ref
        else:
            tally.op()
            u, served, mass0 = out["oracle"]
            tally.require(abs(u - u_ref) <= 1e-9, f"oracle utilization {u!r} != reference {u_ref!r}")
            tally.require(abs(served - LAM) <= 1e-9, f"oracle served rate {served!r} != lambda")
            tally.require(abs(mass0 - pi0) <= 1e-9, f"oracle mass at (1, A, 0) {mass0!r} != reference {pi0!r}")
        if "sim_error" in out:
            tally.op("simulate raised")
        else:
            tally.op()
            util, served, counted = out["sim"]
            se_u = math.sqrt(refs["var_work"] / (self.reps * counted))
            se_s = math.sqrt(refs["var_done"] / (self.reps * counted))
            tally.require(abs(util - u) <= Z * se_u, f"MC utilization {util!r} is {abs(util - u) / se_u:.2f} SE from the oracle's {u!r}")
            tally.require(abs(served - LAM) <= Z * se_s, f"MC service rate {served!r} is {abs(served - LAM) / se_s:.2f} SE from lambda")
        if self.hit_reps:
            if "hit_error" in out:
                tally.op("hitting_time_stats raised")
                return
            tally.op()
            mean, count, censored = out["hit"]
            kac = 1.0 / pi0
            # the visit frequency 1/mean has the asymptotic variance of the
            # visit indicator; the delta method carries it to the mean
            se = math.sqrt(refs["var_visit"] / (self.hit_reps * self.hit_horizon)) * kac * kac
            tally.require(not censored and count > 0, "a replication never returned to (1, A, 0)")
            tally.require(abs(mean - kac) <= Z * se, f"mean return time {mean!r} is {abs(mean - kac) / se:.2f} SE from Kac's {kac!r}")


WORKLOADS = {
    w.name: w
    for w in (
        PolicyTight(),
        ModelSweep(),
        Simulate("simulate-long", horizon=200_000, reps=5),
        Simulate("simulate-wide", horizon=10_000, reps=64, hit_horizon=100_000, hit_reps=2),
    )
}
