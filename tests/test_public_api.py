"""No public function, class or method that only tests reach.

Every public (not underscore-prefixed) module-level function and class of
``parsedisamb``, and every public method of those classes, must be named by
code in ``src/``, ``demos/`` or ``perfbench/`` outside its own definition.
A use is a load of the name or an attribute read of that name, so an import
or an ``__all__`` entry does not count, and methods are matched by name
alone.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _public_definitions():
    """(qualified name, name) of each public function, class and method."""
    for path in sorted((ROOT / "src" / "parsedisamb").glob("*.py")):
        for node in _parse(path).body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            yield f"{path.stem}.{node.name}", node.name
            for method in getattr(node, "body", ()):
                if (isinstance(method, ast.FunctionDef)
                        and not method.name.startswith("_")):
                    yield f"{path.stem}.{node.name}.{method.name}", method.name


def _used_names(node, enclosing=frozenset()):
    """Names that ``node`` uses, leaving out each use inside a definition
    of the same name."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        enclosing = enclosing | {node.name}
    if isinstance(node, ast.Name) and node.id not in enclosing:
        yield node.id
    elif isinstance(node, ast.Attribute) and node.attr not in enclosing:
        yield node.attr
    for child in ast.iter_child_nodes(node):
        yield from _used_names(child, enclosing)


def test_every_public_name_is_used_outside_the_tests():
    used = set()
    for top in ("src", "demos", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if "tests" not in path.relative_to(ROOT).parts:
                used.update(_used_names(_parse(path)))
    definitions = list(_public_definitions())
    assert len(definitions) > 100
    unused = [qualified for qualified, name in definitions if name not in used]
    assert not unused, f"only tests reach {unused}"
