"""End-to-end command checks: output files, exit codes, determinism."""

import csv
import json
import re
import warnings

import numpy as np
import pytest

from minwork import verify
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
    out = capsys.readouterr().out
    assert "oracle (exact QBD)" in out
    assert "simulated 100000 steps in " in out and " ns per step)" in out
    assert re.search(r"utilization \S+ \(se \d\.\d\de-\d\d\), service rate \S+ \(se \d\.\d\de-\d\d\)", out)
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


def test_simulate_one_replication_has_no_standard_error(config_path, capsys):
    assert run("simulate", "--config", config_path, "--lambda", 0.15, "--horizon", 1000, "--reps", 1) == 0
    out = capsys.readouterr().out
    assert "(se n/a), service rate" in out and out.count("(se n/a)") == 2
    assert "nan" not in out


def test_exit_codes(config_path, tmp_path, capsys):
    # --eps and --nu-bar must come together
    assert run("simulate", "--config", config_path, "--lambda", 0.15, "--eps", 1e-3) == 2
    # service rate beyond the achievable maximum
    assert run("simulate", "--config", config_path, "--lambda", 0.15,
               "--eps", 1e-3, "--nu-bar", 0.35) == 3
    # a policy serving below the arrival rate cannot stabilize the queue
    capsys.readouterr()
    assert run("simulate", "--config", config_path, "--lambda", 0.15,
               "--eps", 1e-3, "--nu-bar", 0.14) == 3
    assert "serves 0.14 per step at a nonempty queue" in capsys.readouterr().err
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


@pytest.mark.parametrize("lam", [0.2, 0.15, 0.1])
def test_simulate_null_recurrent_policy_exits_3(config_path, capsys, lam):
    # the LP policy at nu_bar = lambda serves lambda up to round-off on
    # either side; each reads as not stabilizing, with no warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run("simulate", "--config", config_path, "--lambda", lam,
                   "--eps", 1e-3, "--nu-bar", lam) == 3
    assert not caught
    assert f"serves {lam:g} per step at a nonempty queue, not more than the arrival rate {lam:g}" in capsys.readouterr().err


@pytest.mark.parametrize("args, flag", [
    (("policy", "--lambda", 0.15, "--delta", "nan"), "--delta"),
    (("policy", "--lambda", "nan"), "--lambda"),
    (("simulate", "--lambda", 0.15, "--eps", 1e-3, "--nu-bar", "nan"), "--nu-bar"),
    (("simulate", "--lambda", 0.15, "--eps", 1e-3, "--nu-bar", "inf"), "--nu-bar"),
    (("simulate", "--lambda", 0.15, "--eps", "nan", "--nu-bar", 0.2), "--eps"),
    (("simulate", "--lambda", 0.15, "--reps", 0), "--reps"),
    (("verify", "--lambda", "inf"), "--lambda"),
    (("verify", "--seed", -1), "--seed"),
])
def test_out_of_range_flags_exit_2_naming_the_flag(config_path, capsys, args, flag):
    assert run(args[0], "--config", config_path, *args[1:]) == 2
    assert f"argument {flag}: must " in capsys.readouterr().err


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
    # each check's line ends with the wall seconds that verify.json holds
    lines = [ln for ln in out.splitlines() if ln.startswith("[PASS]")]
    for ln, c in zip(lines, blob):
        assert re.search(r" \[\d+\.\d{3} s\]$", ln), ln
        assert ln.endswith(f" [{c['values']['seconds']:.3f} s]")


def test_verify_unknown_check(config_path, capsys):
    assert run("verify", "--config", config_path, "--only", "C99") == 2
    capsys.readouterr()


def test_verify_lambda_sets_c9_and_c11_not_c10(config_path, capsys):
    # C10's targets are set for lambda 0.15; it runs there whatever --lambda says
    lines = []
    for lam in (0.2, 0.1):
        assert run("verify", "--config", config_path, "--lambda", lam, "--only", "C10") == 0
        lines.append(re.sub(r" \[\d+\.\d{3} s\]$", "", capsys.readouterr().out.splitlines()[0]))
    assert lines[0] == lines[1] and lines[0].startswith("[PASS] C10 distributional convergence: ")


def test_verify_names_a_check_that_raises(config_path, capsys, monkeypatch):
    def fail(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(verify, "qbd_stationary", fail)
    assert run("verify", "--config", config_path, "--only", "C10") == 4
    assert capsys.readouterr().out.startswith("[FAIL] C10 distributional convergence: error: boom [")
