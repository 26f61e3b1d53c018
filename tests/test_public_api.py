"""No public function, class or method that only tests reach.

Every public (not underscore-prefixed) module-level function and class of
``parsedisamb``, every public method of those classes, and every public
module-level name bound to one of the package's functions or classes (an
alias, ``name = function``), must be named by code in ``src/``, ``demos/``
or ``perfbench/`` outside its own definition.  A use is a load of the name
or an attribute read of that name, so an import, an ``__all__`` entry or the
alias's own binding does not count, and methods are matched by name alone.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _definitions(stem, tree, package_names):
    """(qualified name, name) of each public function, class, method and
    alias of a package function or class in the module ``tree``."""
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Name)
                and node.value.id in package_names
                and not node.targets[0].id.startswith("_")):
            yield f"{stem}.{node.targets[0].id}", node.targets[0].id
        if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                or node.name.startswith("_")):
            continue
        yield f"{stem}.{node.name}", node.name
        for method in getattr(node, "body", ()):
            if (isinstance(method, ast.FunctionDef)
                    and not method.name.startswith("_")):
                yield f"{stem}.{node.name}.{method.name}", method.name


def _public_definitions():
    modules = [(path.stem, _parse(path)) for path in
               sorted((ROOT / "src" / "parsedisamb").glob("*.py"))]
    package_names = {node.name for _, tree in modules for node in tree.body
                     if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    for stem, tree in modules:
        yield from _definitions(stem, tree, package_names)


def _used_names(node, enclosing=frozenset()):
    """Names that ``node`` loads, leaving out each use inside a definition
    of the same name."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        enclosing = enclosing | {node.name}
    if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            and node.id not in enclosing):
        yield node.id
    elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
          and node.attr not in enclosing):
        yield node.attr
    for child in ast.iter_child_nodes(node):
        yield from _used_names(child, enclosing)


def test_an_alias_is_a_definition_and_its_binding_no_use():
    tree = ast.parse("def f():\n    pass\n\n\ng = f\nh = len\n_i = f\n")
    assert list(_definitions("m", tree, {"f"})) == [("m.f", "f"),
                                                    ("m.g", "g")]
    assert set(_used_names(tree)) == {"f", "len"}


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
