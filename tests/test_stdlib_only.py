"""The package imports nothing outside the standard library, uses every name it imports and every private name it defines, parses at its declared Python floor, touches the cyclic collector only at the command entry point, names ``RecursionError`` only at the command backstop and the JSON loader, and reads and writes text only as UTF-8."""
from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "murec").glob("*.py"))


def _imported_modules(path: Path) -> set[str]:
    """The top-level modules that ``path`` imports by absolute name."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    names += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 0]
    return {name.partition(".")[0] for name in names}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_imports_only_the_standard_library(path):
    foreign = _imported_modules(path) - set(sys.stdlib_module_names) - {"murec"}
    assert not foreign, f"{path.name} imports {sorted(foreign)}"


def test_only_the_command_entry_point_touches_the_cyclic_collector():
    # The collector's state is process-wide, so it is the command's policy,
    # set in `cli.main`; the library leaves it to its caller.
    assert [path.name for path in SOURCES if "gc" in _imported_modules(path)] == ["cli.py"]


def test_only_the_command_backstop_and_the_json_loader_name_recursion_error():
    # The parser bounds a program's nesting itself (MAX_DEPTH), so no walk
    # and no parse of program text probes the stack: `cli.main` turns an
    # overflow from a caller's deep stack into an error line, and
    # `parse_json_document` refuses JSON nested past what `json` can read.
    naming = [
        path.name
        for path in SOURCES
        if any(isinstance(node, ast.Name) and node.id == "RecursionError"
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))))
    ]
    assert naming == ["circuit.py", "cli.py"]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    # __init__.py imports to re-export, and `annotations` is a compiler flag.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {
        alias.asname or alias.name.partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    } - {"annotations"}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported <= used, f"{path.name} never uses {sorted(imported - used)}"


def _defined_private_names(body: list, where: str) -> list[tuple[str, str]]:
    """Each non-dunder ``_name`` that ``body`` defines, with where, and those of the classes it holds."""
    found = []
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
        else:
            names = []
        found += [(name, where) for name in names if name.startswith("_") and not name.endswith("__")]
        if isinstance(node, ast.ClassDef):
            found += _defined_private_names(node.body, f"{where}.{node.name}")
    return found


def test_every_private_name_the_package_defines_is_used():
    # A helper left behind when its last caller goes is dead code.  A use is
    # a name or attribute read anywhere in the package, or a string naming it.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in SOURCES}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    defined = [pair for name, tree in trees.items() for pair in _defined_private_names(tree.body, name)]
    assert len(defined) > 20  # the scan sees the package's helpers
    assert [f"{where}: {name}" for name, where in defined if name not in used] == []


def _text_io_without_utf8(path: Path) -> list[str]:
    """Each ``read_text``, ``write_text`` or ``open`` call in ``path`` naming neither ``encoding="utf-8"`` nor a bytes mode."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else func.id if isinstance(func, ast.Name) else None
        if name not in ("read_text", "write_text", "open"):
            continue
        keywords = {k.arg: k.value for k in node.keywords}
        if isinstance(keywords.get("encoding"), ast.Constant) and keywords["encoding"].value == "utf-8":
            continue
        strings = [a.value for a in (*node.args, *keywords.values()) if isinstance(a, ast.Constant)]
        if name == "open" and any(isinstance(v, str) and re.fullmatch("[rwxa+]*b[rwxa+]*", v) for v in strings):
            continue  # a bytes mode
        found.append(f"{path.name}:{node.lineno}: {name}")
    return found


def test_every_text_file_is_read_and_written_as_utf8():
    # Without an encoding, text I/O takes the locale's, which may not be
    # UTF-8; a file that is not text is opened in bytes.
    assert [call for path in SOURCES for call in _text_io_without_utf8(path)] == []


@pytest.mark.parametrize(
    ("line", "flagged"),
    [
        ('Path(p).read_text()', True),
        ('Path(p).write_text(text, encoding="latin-1")', True),
        ('open(p)', True),
        ('open(p, "w")', True),
        ('Path(p).read_text(encoding="utf-8")', False),
        ('Path(p).write_bytes(data)', False),
        ('open(p, "rb")', False),
        ('open(p, mode="wb")', False),
        ('Path(p).open("rb")', False),
        ('open(p, "w", encoding="utf-8")', False),
    ],
)
def test_the_utf8_scan_flags_text_io_without_an_encoding(tmp_path, line, flagged):
    path = tmp_path / "module.py"
    path.write_text(line + "\n", encoding="utf-8")
    assert bool(_text_io_without_utf8(path)) is flagged


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_parses_at_the_declared_python_floor(path):
    # A regex, not tomllib: the floor itself (3.10) has no tomllib.
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', (ROOT / "pyproject.toml").read_text(), re.M)
    assert floor, "pyproject.toml declares no requires-python floor"
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(int(floor[1]), int(floor[2])))


def test_every_module_is_checked():
    assert {p.name for p in SOURCES} >= {"__init__.py", "expr.py", "engine.py", "cli.py"}
