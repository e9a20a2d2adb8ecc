"""The public surface matches the package and its README."""

import ast
import pathlib
import re
import shlex
import subprocess
import sys
import types

import clnce
from clnce import pipeline
from clnce.cli import build_parser

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
PACKAGE = pathlib.Path(clnce.__file__).resolve().parent


def test_all_is_the_names_the_package_imports():
    """``__all__`` is every name that ``__init__.py`` binds with a
    ``from .x import ...`` statement, and ``__version__``; no submodule."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    assert sorted(clnce.__all__) == sorted([*imported, "__version__"])
    assert not [name for name in clnce.__all__
                if isinstance(getattr(clnce, name), types.ModuleType)]


def test_mutation_defects_each_name_one_snippet():
    """Every ``DEFECTS`` entry of ``tests/mutants.py`` names a module of the
    package in which its snippet occurs exactly once, and no name is repeated
    in the dict literal, where a repeat would drop the earlier defect."""
    tree = ast.parse((ROOT / "tests" / "mutants.py").read_text(encoding="utf-8"))
    table = next(node.value for node in tree.body
                 if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "DEFECTS")
    names = [ast.literal_eval(key) for key in table.keys]
    assert sorted(name for name in set(names) if names.count(name) > 1) == []
    for name, entry in zip(names, table.values):
        module, snippet, _ = ast.literal_eval(entry)
        source = PACKAGE / f"{module}.py"
        assert source.is_file(), name
        assert source.read_text(encoding="utf-8").count(snippet) == 1, name


def test_readme_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library use"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    block, count = re.subn(r"\bepochs=\d+", "epochs=1", block)
    assert count == 1, "the example should set epochs once"
    exec(compile(block, str(README), "exec"), {})
    accuracy = float(capsys.readouterr().out.strip())
    assert 0.0 <= accuracy <= 1.0


def test_readme_command_lines_parse():
    """Every ``clnce ...`` line of the README's ``sh`` blocks, with its
    backslash continuations joined, parses under the CLI's parser, and every
    subcommand has one."""
    text = README.read_text(encoding="utf-8")
    lines = [line for block in re.findall(r"```sh\n(.*?)```", text, re.S)
             for line in block.replace("\\\n", " ").splitlines() if line.startswith("clnce ")]
    commands = [build_parser().parse_args(shlex.split(line)[1:]).command for line in lines]
    assert sorted(set(commands)) == sorted(
        ["train", "eval", "infoplane", "verify-bounds", "make-clusters", "make-data"])


def test_readme_cluster_spec_table_matches_spec_keys():
    """Each row of the README's cluster-spec table names, in backticks, its
    sources or synthetic mode, their required keys, and their optional keys
    with the default after the last comma in parentheses; together the rows
    cover every source and mode of ``pipeline.SPEC_KEYS`` once."""
    text = README.read_text(encoding="utf-8")
    table = text[text.index("| `source` |"):].split("\n\n")[0].splitlines()
    modes = pipeline.SPEC_KEYS["synthetic"]["mode"].tables
    readme_default = {"empty": (), "the run seed": pipeline._CALLER_SEED}
    covered = []
    for row in table[2:]:
        names, required, optional = row.strip("| ").split(" | ")
        names = re.findall(r"`(\w+)`", names)
        if names[0] == "synthetic":
            names, tables = names[2:], [modes[names[2]]]
        else:
            tables = [pipeline.SPEC_KEYS[name] for name in names]
        got = {key: pipeline._REQUIRED for key in re.findall(r"`(\w+)`", required)}
        for key, kind in re.findall(r"`(\w+)` \(([^)]*)\)", optional):
            default = kind.rsplit(", ", 1)[1].split(";")[0]
            got[key] = (readme_default[default] if default in readme_default
                        else ast.literal_eval(default))
        for name, keys in zip(names, tables):
            assert list(got.items()) == list(keys.items()), name
        covered += names
    assert sorted(covered) == sorted([*pipeline.SPEC_KEYS.keys() - {"synthetic"}, *modes])


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


def test_no_fixed_width_string_dtypes():
    """No package source names a fixed-width numpy string dtype ("U2", "<S8",
    ``np.str_``, ``np.bytes_``): such a cell drops its trailing NULs, so a
    string read or stored through one is not the string the file held."""
    named = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and re.fullmatch(r"[<>|=]?[US]\d*", node.value)
                    or isinstance(node, ast.Attribute) and node.attr in ("str_", "bytes_")):
                named.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert named == []


def test_dataclasses_set_only_their_fields():
    """A package dataclass assigns, in its methods, only the fields it
    declares, whether through ``self.x = ...`` or through
    ``object.__setattr__(self, name, ...)``. That name is a string, or the
    variable of a ``for`` loop over a literal of strings; any other name
    counts as undeclared."""
    undeclared = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(cls, ast.ClassDef) and any(
                    ast.unparse(d).split("(")[0].endswith("dataclass")
                    for d in cls.decorator_list)):
                continue
            fields = {n.target.id for n in cls.body if isinstance(n, ast.AnnAssign)}
            loops = {n.target.id: ast.literal_eval(n.iter) for n in ast.walk(cls)
                     if isinstance(n, ast.For) and isinstance(n.target, ast.Name)
                     and isinstance(n.iter, (ast.Tuple, ast.List))
                     and all(isinstance(e, ast.Constant) for e in n.iter.elts)}
            assigned = []
            for node in ast.walk(cls):
                if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name) and node.value.id == "self"):
                    assigned.append(node.attr)
                elif isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__setattr__":
                    name = node.args[1]
                    if isinstance(name, ast.Constant):
                        assigned.append(name.value)
                    else:
                        assigned += loops.get(getattr(name, "id", None), [ast.unparse(name)])
            undeclared += [f"{path.name}:{cls.name}.{a}" for a in assigned if a not in fields]
    assert undeclared == []


def test_a_falsified_property_fails_only_its_own_test(tmp_path):
    """Under the suite's warning filters, a falsified ``@given`` test is one
    failure: hypothesis's failure report must not raise a warning that
    aborts the whole run."""
    (tmp_path / "test_falsified.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_falsified(x):\n"
        "    assert x < 0\n\n\n"
        "def test_passes():\n"
        "    pass\n",
        encoding="utf-8",
    )
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_falsified.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
