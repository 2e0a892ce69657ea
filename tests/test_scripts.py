"""The scripts under scripts/ run at their defaults."""

import pathlib
import runpy
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def test_convergence_study_defaults(monkeypatch, capsys):
    script = SCRIPTS / "convergence_study.py"
    monkeypatch.setattr(sys, "argv", [str(script)])
    runpy.run_path(str(script), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines[2:]]  # after the frontier line and the header
    assert lines[1].split()[0] == "nu_bar"
    assert len(rows) == 8 and all(len(row) == 6 for row in rows)
    dists = [float(row[3]) for row in rows]
    assert all(b <= a for a, b in zip(dists, dists[1:]))


@pytest.mark.parametrize("flag, value", [("--eps", "nan"), ("--eps", "2"), ("--points", "0"), ("--lambda", "inf")])
def test_convergence_study_rejects_out_of_range_flags(monkeypatch, capsys, flag, value):
    script = SCRIPTS / "convergence_study.py"
    monkeypatch.setattr(sys, "argv", [str(script), flag, value])
    with pytest.raises(SystemExit) as info:
        runpy.run_path(str(script), run_name="__main__")
    assert info.value.code == 2
    out = capsys.readouterr()
    assert f"argument {flag}: must " in out.err and out.out == ""
