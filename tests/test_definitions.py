"""Every definition of the package is named somewhere (a dead-code check on the ast).

A function, class or constant at the top of a ``src/miselect`` module, and a
method or property of such a class, must be named by some file under
``src/``, ``tests/`` or ``perfbench/`` outside its own definition: as a name,
an attribute, an imported name or a string constant, since the benchmark's
tracer binds the functions it wraps by string.  Dunders are exempt.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "miselect"


def definitions(tree: ast.Module):
    """(name, node) of each top-level function, class and assigned name, and of each
    method and property of a top-level class, but dunders."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)):
            yield node.name, node
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, functions) and not item.name.startswith("__"):
                    yield item.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name) and not n.id.startswith("__"):
                        yield n.id, node


def mentions(tree: ast.Module):
    """(name, node) of each name, attribute, imported name and string constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, ast.alias):
            yield node.name, node
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node


def unnamed_definitions(package: dict[str, str], others: list[str]) -> list[str]:
    """``module:line name`` of each definition in ``package`` no source names elsewhere."""
    trees = {module: ast.parse(source) for module, source in package.items()}
    named = defaultdict(list)
    for tree in [*trees.values(), *map(ast.parse, others)]:
        for name, node in mentions(tree):
            named[name].append(node)
    out = []
    for module, tree in trees.items():
        for name, node in definitions(tree):
            own = {id(n) for n in ast.walk(node)}
            if all(id(n) in own for n in named[name]):
                out.append(f"{module}:{node.lineno} {name}")
    return out


def test_the_check_finds_an_unnamed_definition():
    package = {"m.py": ("A = 1\nB: int = 2\n__all__ = []\n\n\ndef f():\n    return f()\n\n\n"
                        "class C:\n    def g(self):\n        return C\n\n\n"
                        "def h():\n    return A\n")}
    others = ["from m import h as k\nimport m\nm.B\nx = 'f', 'g'\n", "C = 3\n"]
    assert unnamed_definitions(package, others) == []
    assert unnamed_definitions(package, others[:1]) == ["m.py:10 C"]
    assert unnamed_definitions(package, []) == ["m.py:2 B", "m.py:6 f", "m.py:10 C", "m.py:11 g",
                                                "m.py:15 h"]


def test_the_check_finds_an_unnamed_method():
    package = {"m.py": ("class C:\n"
                        "    def __init__(self):\n        self.g()\n\n"
                        "    def g(self):\n        return self.g()\n\n"
                        "    @property\n    def p(self):\n        return self.p\n\n"
                        "    def q(self):\n        return 'q'\n")}
    others = ["from m import C\nC().p\ngetattr(C, 'q')\n"]
    assert unnamed_definitions(package, others) == []
    assert unnamed_definitions(package, []) == ["m.py:1 C", "m.py:9 p", "m.py:12 q"]


def test_every_definition_is_named():
    package = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    others = [p.read_text(encoding="utf-8")
              for folder in ("tests", "perfbench") for p in sorted((ROOT / folder).rglob("*.py"))]
    assert unnamed_definitions(package, others) == []
