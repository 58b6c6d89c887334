"""Every top-level name in the package is used somewhere besides its
definition, every function parameter is read, and no function rebinds a
module global.

Lists each non-dunder top-level ``def``, ``class`` and assignment target in
``src/charwin/*.py`` and counts its whole-word occurrences across ``src/``,
``tests/`` and ``perfbench/``.  A name that occurs only where it is defined
is dead code: nothing calls, exports, tests or documents it.  Likewise a
parameter that its function's body never loads is a setting nothing obeys,
and an import that its module never names is a dependency nothing uses.
A ``global`` statement makes module state that calls share and tests must
reset; the package keeps none.  JSON has one rendering route,
``cli._json_text``, whose indented ``json.dumps`` lays out every envelope
around the record tables that ``cli._records_text`` writes: an indented
``json.dumps`` anywhere else in the package would be a second one.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "charwin"
SEARCHED = ("src", "tests", "perfbench")


def _top_level_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.extend(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def test_every_top_level_name_is_used():
    definitions = Counter(
        name
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _top_level_names(ast.parse(path.read_text(), str(path)))
    )
    text = "\n".join(
        path.read_text() for top in SEARCHED for path in sorted((ROOT / top).rglob("*.py"))
    )
    words = Counter(re.findall(r"\w+", text))
    dead = sorted(name for name, count in definitions.items() if words[name] <= count)
    assert not dead, f"defined but never used: {dead}"


def test_every_parameter_is_read():
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            body = node.body if isinstance(node.body, list) else [node.body]
            loaded = {
                n.id
                for stmt in body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            name = getattr(node, "name", "<lambda>")
            unread.extend(
                f"{path.name}:{node.lineno} {name}({a.arg})"
                for a in params
                if a is not None and a.arg not in loaded
            )
    assert not unread, f"parameters never read: {unread}"


def test_every_import_is_used():
    # __init__.py is left out: its imports are the package's re-exports
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {
            alias.asname or alias.name.split(".")[0]: node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            or isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names
        }
        named = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused.extend(f"{path.name}:{line} {name}" for name, line in imported.items()
                      if name not in named)
    assert not unused, f"imported but never used: {unused}"


def test_no_function_rebinds_a_module_global():
    rebound = [
        f"{path.name}:{node.lineno} global {', '.join(node.names)}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Global)
    ]
    assert not rebound, f"module globals rebound: {rebound}"


def test_one_indented_json_route():
    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        renderer = {id(n) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name == "_json_text"
                    for n in ast.walk(f)}
        stray.extend(f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                     if isinstance(node, ast.Call) and id(node) not in renderer
                     and ast.unparse(node.func).endswith("dumps") and any(k.arg == "indent" for k in node.keywords))
    assert not stray, f"indented json.dumps outside cli._json_text: {stray}"
