"""End-to-end command checks: output files, exit codes, determinism."""

import csv
import json

import numpy as np
import pytest

from minwork.chain import threshold_rates
from minwork.cli import main
from minwork.frontier import frontier
from minwork.model import load_spec


def run(*args):
    return main([str(a) for a in args])


def test_rates_table_and_csv(config_path, tmp_path, capsys):
    assert run("rates", "--config", config_path, "--out", tmp_path) == 0
    out = capsys.readouterr().out
    assert "tau" in out and "maximal service rate 0.3000 at tau=5" in out
    spec = load_spec(config_path)
    with open(tmp_path / "rates.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    for row in rows:
        nu, u = threshold_rates(spec, int(row["tau"]))
        # files carry full precision, not the 4-digit table rounding
        assert float(row["service_rate"]) == pytest.approx(nu, abs=1e-15)
        assert float(row["utilization"]) == pytest.approx(u, abs=1e-15)


def test_frontier_csv_round_trip(config_path, tmp_path, capsys):
    assert run("frontier", "--config", config_path, "--out", tmp_path) == 0
    f = frontier(load_spec(config_path))
    with open(tmp_path / "frontier_breakpoints.csv") as fh:
        rows = list(csv.DictReader(fh))
    got = [(float(r["service_rate"]), float(r["utilization"])) for r in rows]
    assert got == pytest.approx([bp for bp in f.breakpoints], abs=1e-15)
    with open(tmp_path / "frontier_curve.csv") as fh:
        curve = list(csv.DictReader(fh))
    assert len(curve) == 101
    ys = [float(r["utilization"]) for r in curve]
    assert all(ys[i] <= ys[i + 1] + 1e-12 for i in range(len(ys) - 1))


def test_policy_json(config_path, tmp_path, capsys):
    assert run("policy", "--config", config_path, "--lambda", 0.15, "--delta", 0.1,
               "--out", tmp_path) == 0
    blob = json.loads((tmp_path / "policy.json").read_text())
    assert blob["eps"] == pytest.approx(0.1)
    assert blob["nu_bar"] == pytest.approx(0.1546875, abs=1e-12)
    assert len(blob["work_prob"]) == 5
    f = frontier(load_spec(config_path))
    assert blob["verified_utilization"] <= f(0.15) + 0.1 + 1e-8
    assert blob["tail_mass"] < 1e-6
    assert blob["mean_queue"] == pytest.approx(43.3, abs=0.1)
    assert 0.0 < blob["tail_decay"] < 1.0
    out = capsys.readouterr().out
    assert "work probabilities" in out
    assert f"above level K={blob['q_max']}" in out


def test_simulate_default_policy_deterministic(config_path, tmp_path, capsys):
    args = ("simulate", "--config", config_path, "--lambda", 0.15,
            "--horizon", 50000, "--reps", 2, "--seed", 7, "--out", tmp_path)
    assert run(*args) == 0
    assert "oracle (exact QBD)" in capsys.readouterr().out
    first = (tmp_path / "simulation.csv").read_text()
    assert run(*args) == 0
    assert (tmp_path / "simulation.csv").read_text() == first
    rows = list(csv.DictReader(first.splitlines()))
    # two replications plus the pooled row
    assert len(rows) == 3
    assert rows[-1]["rep"] == "pooled"
    capsys.readouterr()


def test_simulate_extracted_policy_with_trace(config_path, tmp_path, capsys):
    assert run("simulate", "--config", config_path, "--lambda", 0.15,
               "--eps", 1e-3, "--nu-bar", 0.25, "--horizon", 20000,
               "--reps", 1, "--trace", "--out", tmp_path) == 0
    trace = list(csv.DictReader((tmp_path / "trace.csv").read_text().splitlines()))
    assert len(trace) == 20000
    q = np.array([int(r["q"]) for r in trace])
    done = np.array([int(r["completion"]) for r in trace])
    arrival = np.array([int(r["arrival"]) for r in trace])
    np.testing.assert_array_equal(q[1:], q[:-1] - done[:-1] + arrival[:-1])
    capsys.readouterr()


def test_exit_codes(config_path, tmp_path, capsys):
    # --eps and --nu-bar must come together
    assert run("simulate", "--config", config_path, "--lambda", 0.15, "--eps", 1e-3) == 2
    # service rate beyond the achievable maximum
    assert run("simulate", "--config", config_path, "--lambda", 0.15,
               "--eps", 1e-3, "--nu-bar", 0.35) == 3
    # a policy serving below the arrival rate fails the oracle's flow audit
    capsys.readouterr()
    assert run("simulate", "--config", config_path, "--lambda", 0.15,
               "--eps", 1e-3, "--nu-bar", 0.14) == 1
    assert "served-rate residual" in capsys.readouterr().err
    # arrival rate not stabilizable
    assert run("policy", "--config", config_path, "--lambda", 0.4) == 3
    # missing and malformed configs
    assert run("rates", "--config", tmp_path / "absent.yaml") == 2
    bad = tmp_path / "bad.yaml"
    bad.write_text("n_s: [not, a, count]\n")
    assert run("rates", "--config", bad) == 2
    # out-of-range numbers
    assert run("policy", "--config", config_path, "--lambda", 1.5) == 2
    assert run("simulate", "--config", config_path, "--lambda", 0.15,
               "--horizon", 3) == 2
    capsys.readouterr()


def test_policy_tight_delta_exit_codes(config_path, capsys):
    assert run("policy", "--config", config_path, "--lambda", 0.15, "--delta", 0.005) == 0
    assert "exact QBD oracle" in capsys.readouterr().out
    # the oracle's flow audit fails: a numerical failure, named
    assert run("policy", "--config", config_path, "--lambda", 0.15, "--delta", 1e-6) == 1
    assert "served-rate residual" in capsys.readouterr().err


def test_verify_subset(config_path, tmp_path, capsys):
    assert run("verify", "--config", config_path, "--only", "C4", "C6",
               "--out", tmp_path) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 2
    assert "2/2 checks passed" in out
    blob = json.loads((tmp_path / "verify.json").read_text())
    assert [c["id"] for c in blob] == ["C4", "C6"]
    assert all(c["passed"] for c in blob)
    assert all(c["values"]["seconds"] >= 0.0 for c in blob)


def test_verify_unknown_check(config_path, capsys):
    assert run("verify", "--config", config_path, "--only", "C99") == 2
    capsys.readouterr()
