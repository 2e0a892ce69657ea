"""README's Python example runs as printed, its commands parse, and it
documents every exported name, so a renamed name cannot leave it
stale."""

import pathlib
import re
import shlex

import minwork
from minwork import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_readme_example_runs(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) == 1
    monkeypatch.chdir(ROOT)  # the example loads configs/ relative to the checkout
    exec(compile(blocks[0], "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert 0.0 < float(lines[3].split()[0]) < 1.0  # the simulated utilization


def test_exported_names_resolve_and_are_documented():
    readme = (ROOT / "README.md").read_text()
    for name in minwork.__all__:
        assert getattr(minwork, name) is not None
        assert re.search(rf"\b{name}\b", readme), name


def test_readme_commands_parse():
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```sh\n(.*?)```", readme, flags=re.DOTALL)
    commands = [line for block in blocks for line in block.splitlines() if line.startswith("minwork ")]
    assert len(commands) >= 5
    for line in commands:
        cli._parser().parse_args(shlex.split(line)[1:])
