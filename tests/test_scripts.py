"""The scripts under scripts/ run at their defaults."""

import pathlib
import runpy
import sys

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
