"""The names the benchmark's tracer wraps must exist in the program.

bench/tracing.py replaces module attributes by name. A refactor that
renames or stops calling one of them would break the traced benchmark
run, so this test resolves every name and runs a traced oracle call.
"""

import ast
import importlib
import pathlib
import re
import types

import scipy.sparse.linalg

from minwork.chain import threshold_policy
from minwork.synthesis import lift_policy, synthesize

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _tracing():
    # executed from source, so no bytecode cache is written under bench/
    path = ROOT / "bench" / "tracing.py"
    module = types.ModuleType("bench_tracing")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_traced_names_resolve():
    tracing = _tracing()
    for mod_name, attr, _ in tracing.INTERNAL_BOUNDARIES + tracing.API:
        assert hasattr(importlib.import_module(mod_name), attr), f"{mod_name}.{attr}"


def test_noqa_reexports_are_traced_names():
    # an import marked unused ("noqa: F401") in src/minwork is kept only
    # for the tracer to wrap under that module; any other one is dead code
    wrapped = {(m, a) for m, a, _ in _tracing().INTERNAL_BOUNDARIES}
    marked = set()
    for path in sorted((ROOT / "src" / "minwork").glob("*.py")):
        for line in path.read_text().splitlines():
            if re.search(r"#\s*noqa\b.*\bF401\b", line):
                (node,) = ast.parse(line.split("#", 1)[0].strip()).body
                marked |= {(f"minwork.{path.stem}", alias.asname or alias.name) for alias in node.names}
    assert marked <= wrapped, sorted(marked - wrapped)


def test_tracer_installs_records_and_restores(spec5):
    tracing = _tracing()
    sim = importlib.import_module("minwork.sim")
    before = {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in tracing.INTERNAL_BOUNDARIES}
    tracer = tracing.Tracer()
    restore = tracer.install()
    try:
        api = tracing.program_api(tracer)
        tracer.enabled = True
        tracer.round = 0
        api.truncated_stationary_auto(spec5, 0.15, lift_policy(threshold_policy(5, 5)))
    finally:
        restore()
    names = [r["name"] for r in tracer.records()]
    assert names[:3] == ["sim.oracle.auto", "sim.oracle", "sim.oracle.solve"]
    assert tracer.records()[1]["info"] == {"q_max": 512, "states": 5 * (1 + 2 * 512)}
    after = {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in tracing.INTERNAL_BOUNDARIES}
    assert after == before
    assert sim.spla is scipy.sparse.linalg


def test_policy_tight_reads_certified_tail(spec5):
    # the policy-tight workload reads these two fields of the result and
    # requires an oracle tail mass below 1e-10
    workloads = (ROOT / "bench" / "workloads.py").read_text()
    assert '"tail_mass": res.tail_mass' in workloads and '"q_max": res.q_max_used' in workloads
    res = synthesize(spec5, 0.15, 0.04)
    assert res.tail_mass < 1e-10
    assert isinstance(res.q_max_used, int) and res.q_max_used >= 1
