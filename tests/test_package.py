"""The public surface matches the package and its README."""

import ast
import pathlib
import re

import clnce

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
PACKAGE = pathlib.Path(clnce.__file__).resolve().parent


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


def test_no_dead_module_level_definitions():
    """Every module-level function and class is named somewhere in the
    package besides its own definition: called, referenced or imported."""
    defined, used = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined += [(path.name, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert [f"{module}:{name}" for module, name in defined if name not in used] == []


def test_oracles_use_only_public_names():
    """An oracle that reaches a private helper of the package, by import or
    through a module attribute, would check that helper against itself."""
    oracles = pathlib.Path(__file__).resolve().parent / "oracles.py"
    tree = ast.parse(oracles.read_text(encoding="utf-8"))
    private, bound = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "clnce":
            private += [a.name for a in node.names if a.name.startswith("_")]
            bound |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0]
                      for a in node.names if a.name.split(".")[0] == "clnce"}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name) and node.value.id in bound):
            private.append(f"{node.value.id}.{node.attr}")
    assert private == []
