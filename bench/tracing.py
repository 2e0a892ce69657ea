"""The program as the benchmark sees it, and the tracer that wraps it.

`program_api` returns the public functions the workloads call. With a
tracer, `install` also wraps each function where another module of the
program imported it (for example `minwork.synthesis.solve_lp` or
`minwork.sim.truncated_stationary`), so a span is recorded at every
module boundary the call crosses. Nothing under `src/` changes: only
the attributes of the imported modules are replaced, in this process.

Spans are kept in memory as (name, parent, start, end, round, status,
info) and written out with the result when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from statistics import median

# (calling module, attribute, span name) for every call the program makes
# across one of its own module boundaries.
INTERNAL_BOUNDARIES = (
    ("minwork.frontier", "solve_simplex", "simplex"),
    ("minwork.frontier", "threshold_rates", "chain.stationary"),
    ("minwork.frontier", "stationary_pmf_y", "chain.stationary"),
    ("minwork.synthesis", "frontier", "frontier.hull"),
    ("minwork.synthesis", "solve_lp", "frontier.lp"),
    ("minwork.synthesis", "service_rate", "chain.stationary"),
    ("minwork.synthesis", "truncated_stationary_auto", "sim.oracle.auto"),
    ("minwork.sim", "truncated_stationary", "sim.oracle"),
    ("minwork.sim", "stationary_pmf_y", "chain.stationary"),
)

# (defining module, attribute, span name) for the calls the benchmark makes.
API = (
    ("minwork.model", "load_spec", None),
    ("minwork.model", "ServerSpec", None),
    ("minwork.model", "SystemState", None),
    ("minwork.model", "Availability", None),
    ("minwork.model", "NumericalFailure", None),
    ("minwork.chain", "max_service_rate", "chain.stationary"),
    ("minwork.chain", "threshold_policy", None),
    ("minwork.chain", "service_rate", "chain.stationary"),
    ("minwork.chain", "utilization_rate_y", "chain.stationary"),
    ("minwork.frontier", "frontier", "frontier.hull"),
    ("minwork.frontier", "solve_lp", "frontier.lp"),
    ("minwork.frontier", "policy_from_occupation", None),
    ("minwork.synthesis", "synthesize", "synthesis"),
    ("minwork.synthesis", "lift_policy", None),
    ("minwork.sim", "SimConfig", None),
    ("minwork.sim", "truncated_stationary_auto", "sim.oracle.auto"),
    ("minwork.sim", "truncated_utilization", None),
    ("minwork.sim", "truncated_service_rate", None),
    ("minwork.sim", "simulate", "sim.mc"),
    ("minwork.sim", "hitting_time_stats", "sim.hit"),
)


def _oracle_info(args, kwargs, result):
    n = args[0].n_s
    q = args[3] if len(args) > 3 else kwargs["q_max"]
    return {"q_max": int(q), "states": int(n * (1 + 2 * q))}


def _steps_info(position):
    def info(args, kwargs, result):
        cfg = args[position] if len(args) > position else kwargs["cfg"]
        return {"steps": int(cfg.horizon * cfg.replications)}

    return info


def _lp_info(args, kwargs, result):
    return {} if result.feasible else {"infeasible": 1}


SPAN_INFO = {
    "sim.oracle": _oracle_info,
    "sim.mc": _steps_info(3),
    "sim.hit": _steps_info(4),
    "frontier.lp": _lp_info,
}


class _ModuleView:
    """A module with some attributes replaced."""

    def __init__(self, module, **replaced):
        self._module = module
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Records spans while `enabled`; wrappers cost one flag test when off."""

    def __init__(self):
        self.enabled = False
        self.round = -1
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        info = SPAN_INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, self.round, "ok", None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = "raised"
                raise
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if info is not None:
                span[6] = info(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every internal boundary in place; return an undo function."""
        undo = []
        for mod_name, attr, name in INTERNAL_BOUNDARIES:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            setattr(mod, attr, self.wrap(name, original))
            undo.append((mod, attr, original))
        sim = importlib.import_module("minwork.sim")
        # sim calls scipy's sparse solver as `spla.spsolve`; give it a view of
        # scipy.sparse.linalg whose spsolve is wrapped.
        original_spla = sim.spla
        sim.spla = _ModuleView(original_spla, spsolve=self.wrap("sim.oracle.solve", original_spla.spsolve))
        undo.append((sim, "spla", original_spla))

        def restore():
            for mod, attr, original in reversed(undo):
                setattr(mod, attr, original)

        return restore

    def records(self):
        keys = ("name", "parent", "start", "end", "round", "status", "info")
        return [dict(zip(keys, span)) for span in self.spans]


def program_api(tracer: Tracer | None = None) -> types.SimpleNamespace:
    api = {}
    for mod_name, attr, name in API:
        fn = getattr(importlib.import_module(mod_name), attr)
        api[attr] = tracer.wrap(name, fn) if (tracer is not None and name is not None) else fn
    return types.SimpleNamespace(**api)


# name -> unit, in the order BENCHMARK.json lists them; counts and
# seconds are per round of the workload.
LAYER_METRICS = {
    "frontier.hull.calls": "count",
    "frontier.hull.s": "s",
    "frontier.lp.calls": "count",
    "frontier.lp.s": "s",
    "frontier.lp.ms_per_solve": "ms",
    "frontier.lp.raised": "count",
    "frontier.lp.infeasible": "count",
    "simplex.calls": "count",
    "simplex.s": "s",
    "chain.stationary.calls": "count",
    "chain.stationary.s": "s",
    "synthesis.s": "s",
    "synthesis.lp_calls": "count",
    "synthesis.oracle_calls": "count",
    "synthesis.self_s": "s",
    "sim.oracle.calls": "count",
    "sim.oracle.s": "s",
    "sim.oracle.states": "count",
    "sim.oracle.ns_per_state": "ns",
    "sim.oracle.max_q": "jobs",
    "sim.oracle.solve_s": "s",
    "sim.oracle.build_s": "s",
    "sim.mc.steps": "count",
    "sim.mc.s": "s",
    "sim.mc.ns_per_step": "ns",
    "sim.hit.steps": "count",
    "sim.hit.ns_per_step": "ns",
    "trace.overhead_s": "s",
}


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(spans, traced_s, untraced_s) -> dict:
    """Per-layer figures from the spans of the traced rounds, per round.

    A layer with no work in this workload reads 0. trace.overhead_s is
    the median traced round minus the median untraced round.
    """
    by_name = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def dur(i):
        return spans[i][3] - spans[i][2]

    def total(name):
        return sum(dur(i) for i in by_name.get(name, ()))

    def count(name, pred=lambda i: True):
        return sum(1 for i in by_name.get(name, ()) if pred(i))

    def info_sum(name, key):
        return sum((spans[i][6] or {}).get(key, 0) for i in by_name.get(name, ()))

    synth = set(by_name.get("synthesis", ()))

    def under_synthesis(i):
        parent = spans[i][1]
        while parent >= 0:
            if parent in synth:
                return True
            parent = spans[parent][1]
        return False

    children_s = sum(dur(i) for i, span in enumerate(spans) if span[1] in synth)
    oracle_s = total("sim.oracle")
    solve_s = total("sim.oracle.solve")
    oracle_states = info_sum("sim.oracle", "states")
    mc_steps = info_sum("sim.mc", "steps")
    hit_steps = info_sum("sim.hit", "steps")
    lp_calls = count("frontier.lp")
    raw = {
        "frontier.hull.calls": count("frontier.hull"),
        "frontier.hull.s": total("frontier.hull"),
        "frontier.lp.calls": lp_calls,
        "frontier.lp.s": total("frontier.lp"),
        "frontier.lp.raised": count("frontier.lp", lambda i: spans[i][5] == "raised"),
        "frontier.lp.infeasible": info_sum("frontier.lp", "infeasible"),
        "simplex.calls": count("simplex"),
        "simplex.s": total("simplex"),
        "chain.stationary.calls": count("chain.stationary"),
        "chain.stationary.s": total("chain.stationary"),
        "synthesis.s": total("synthesis"),
        "synthesis.lp_calls": count("frontier.lp", under_synthesis),
        "synthesis.oracle_calls": count("sim.oracle", under_synthesis),
        "synthesis.self_s": total("synthesis") - children_s,
        "sim.oracle.calls": count("sim.oracle"),
        "sim.oracle.s": oracle_s,
        "sim.oracle.states": oracle_states,
        "sim.oracle.solve_s": solve_s,
        "sim.oracle.build_s": oracle_s - solve_s,
        "sim.mc.steps": mc_steps,
        "sim.mc.s": total("sim.mc"),
    }
    traced_rounds = len(traced_s)
    out = {name: value / traced_rounds for name, value in raw.items()}
    out["frontier.lp.ms_per_solve"] = _ratio(raw["frontier.lp.s"], lp_calls, 1e3)
    out["sim.oracle.ns_per_state"] = _ratio(oracle_s, oracle_states, 1e9)
    out["sim.oracle.max_q"] = max((spans[i][6]["q_max"] for i in by_name.get("sim.oracle", ())), default=0)
    out["sim.mc.ns_per_step"] = _ratio(raw["sim.mc.s"], mc_steps, 1e9)
    out["sim.hit.steps"] = hit_steps / traced_rounds
    out["sim.hit.ns_per_step"] = _ratio(total("sim.hit"), hit_steps, 1e9)
    out["trace.overhead_s"] = median(traced_s) - median(untraced_s)
    return {name: {"value": out[name], "unit": unit} for name, unit in LAYER_METRICS.items()}
