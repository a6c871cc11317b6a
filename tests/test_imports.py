"""Every package module uses each name it imports, every private
module-level name is read somewhere in the package, every public name has a
reader, and every Python file parses as the oldest supported Python (3.10)."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "shrinkgen"
OLDEST_PYTHON = (3, 10)  # requires-python in pyproject.toml


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that the module never reads.

    A name listed in a literal `__all__` counts as read: the package root
    imports names only to re-export them.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level `_name` functions, classes and constants that no module reads.

    `sources` maps a module's file name to its text; a name counts as read
    wherever an expression in any of the modules loads it.
    """
    defined, read = [], set()
    for name, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((node.name, name, node.lineno))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(t.id, name, node.lineno) for t in targets if isinstance(t, ast.Name)]
        read |= {n.id for n in ast.walk(tree)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"{ident} ({name}:{line})" for ident, name, line in defined
            if ident.startswith("_") and not ident.startswith("__") and ident not in read]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_every_export_resolves_once():
    import shrinkgen

    names = shrinkgen.__all__
    assert sorted(set(names)) == sorted(names)
    assert [name for name in names if not hasattr(shrinkgen, name)] == []


def test_detector_flags_an_unused_name():
    source = "from .interleaved import InterleavedConfig, KnownBits\n\nx: KnownBits\n"
    assert unused_imports(source) == ["InterleavedConfig (line 1)"]


def test_no_unused_private_names():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert unused_private_names(sources) == []


def test_private_detector_flags_an_unread_name():
    sources = {
        "a.py": "_LIMIT = 3\n\ndef _used():\n    return _LIMIT\n\ndef _dead():\n    pass\n",
        "b.py": "from .a import _used\n\n_used()\n",
    }
    assert unused_private_names(sources) == ["_dead (a.py:6)"]


def unread_public_names(sources: dict[str, str], named_elsewhere: str,
                        entry_points: frozenset = frozenset()) -> list[str]:
    """Public module-level functions and classes, and public methods, that nothing reads.

    `sources` maps a module's file name to its text.  A name is read when an
    expression in any of the modules loads it, as a name or an attribute,
    outside the name's own definition, or when it appears as a word in
    `named_elsewhere`.  `entry_points` holds (file name, function name) pairs
    that are called from outside and need no reader.
    """
    defined, reads = [], []  # (name, file, node); (name, file, line)
    for file, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((node.name, file, node))
            if isinstance(node, ast.ClassDef):
                defined += [(item.name, file, item) for item in node.body
                            if isinstance(item, ast.FunctionDef)]
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                reads.append((n.id, file, n.lineno))
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                reads.append((n.attr, file, n.lineno))
    words = set(re.findall(r"\w+", named_elsewhere))
    return [f"{ident} ({file}:{node.lineno})" for ident, file, node in defined
            if not ident.startswith("_") and ident not in words and (file, ident) not in entry_points
            and not any(name == ident and not (f == file and node.lineno <= line <= node.end_lineno)
                        for name, f, line in reads)]


def test_every_public_name_has_a_reader():
    # read by package code, named by the benchmark, or a console entry point (cli.main)
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    bench = "".join(p.read_text(encoding="utf-8") for p in sorted((ROOT / "bench").glob("*.py")))
    scripts = re.findall(r'= "shrinkgen\.(\w+):(\w+)"', (ROOT / "pyproject.toml").read_text())
    assert scripts == [("cli", "main")]
    entry_points = frozenset((f"{module}.py", name) for module, name in scripts)
    assert unread_public_names(sources, bench, entry_points) == []


def test_public_detector_flags_an_unread_name():
    sources = {
        "a.py": "class Box:\n    def put(self):\n        self.put()\n\n    def get(self):\n"
                "        pass\n\n\ndef make():\n    return Box().get()\n",
        "b.py": "def loop():\n    loop()\n",
    }
    assert unread_public_names(sources, "") == ["put (a.py:2)", "make (a.py:9)", "loop (b.py:1)"]
    assert unread_public_names(sources, "fn['a.make'] Box put", frozenset({("b.py", "loop")})) == []


PY_FILES = sorted(path for d in ("src", "tests", "bench") for path in (ROOT / d).rglob("*.py"))


@pytest.mark.parametrize("path", PY_FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_oldest_python(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=OLDEST_PYTHON)


def test_oldest_python_detector_flags_newer_syntax():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=OLDEST_PYTHON)
