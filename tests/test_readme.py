"""The README's examples run as written."""

import re
from pathlib import Path

from dagrl.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def first_python_block(heading: str) -> str:
    section = README.read_text(encoding="utf-8").split(f"\n{heading}\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_use_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--out", "data", "--graphs-per-block", "8"]) == 0
    capsys.readouterr()
    exec(compile(first_python_block("## Library use"), str(README), "exec"), {})
    accuracy = float(capsys.readouterr().out)
    assert 0.0 <= accuracy <= 1.0
