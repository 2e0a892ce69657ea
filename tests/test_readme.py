"""README's Python example runs as printed, so a renamed name cannot
leave it stale."""

import pathlib
import re

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
