"""The public surface matches the package and its README."""

import pathlib
import re

import clnce

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in clnce.__all__ if not hasattr(clnce, name)]
    assert missing == []


def test_readme_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library use"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    block, count = re.subn(r"\bepochs=\d+", "epochs=1", block)
    assert count == 1, "the example should set epochs once"
    exec(compile(block, str(README), "exec"), {})
    accuracy = float(capsys.readouterr().out.strip())
    assert 0.0 <= accuracy <= 1.0
