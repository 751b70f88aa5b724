"""Tidiness of the package source: no unused import, no orphaned private
definition, no unread parameter.

The checks read the modules with ``ast`` and never import them.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gaugelab"
MODULES = {path.name: ast.parse(path.read_text(), str(path))
           for path in sorted(SRC.glob("*.py"))}


def _imported(tree):
    """(bound name, line) of every import in a module, ``__future__`` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno


def _references(tree):
    """(name, line) of every name a module loads or reads as an attribute,
    and (name, None) of every name it imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name, None


def test_every_import_is_used():
    for name, tree in MODULES.items():
        if name == "__init__.py":
            continue
        # an import statement naming a symbol does not use it
        used = {ref for ref, line in _references(tree) if line is not None}
        unused = [(bound, line) for bound, line in _imported(tree) if bound not in used]
        assert not unused, f"{name}: unused imports {unused}"


def test_every_private_definition_is_referenced():
    refs = {name: list(_references(tree)) for name, tree in MODULES.items()}
    for name, tree in MODULES.items():
        for node in tree.body:
            if not (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                continue
            # a reference inside the definition itself (recursion) does not count
            inside = range(node.lineno, node.end_lineno + 1)
            assert any(ref == node.name and not (module == name and line in inside)
                       for module, module_refs in refs.items()
                       for ref, line in module_refs), f"{name}: {node.name} is never used"


def test_every_parameter_is_read():
    for name, tree in MODULES.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            label = getattr(node, "name", "lambda")
            if label.startswith("__") and label.endswith("__"):
                continue    # a dunder's signature is the protocol's
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                      + [args.vararg, args.kwarg] if a]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            # a method's receiver is the binding's, not the body's
            unread = [p for p in params if p not in read and p not in ("self", "cls")]
            assert not unread, f"{name}:{node.lineno} {label}: unread parameters {unread}"
