"""The audit plugin of ``tests/audit.py`` wraps every trusted builder.

A trusted builder makes a library value with ``object.__new__``, called
directly or through a module-level alias such as ``_new``, and skips the
public constructor's validation.  The scan below finds every such call in
``src/amplecones`` by its syntax tree and names the function that holds
it, so a builder added without joining the audit fails here.
"""

import ast
import types
from pathlib import Path

import amplecones
from audit import builders

SOURCE = Path(amplecones.__file__).parent


def _is_object_new(node) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "__new__"
        and isinstance(node.value, ast.Name)
        and node.value.id == "object"
    )


def new_call_sites() -> set:
    """(module, qualified name of the outermost function) of every call of
    ``object.__new__`` in the package; a call outside any function is
    named ``<module>``."""
    sites = set()

    def visit(node, module, aliases, scope, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope if in_function else scope + [child.name]
                function = in_function or not isinstance(child, ast.ClassDef)
                visit(child, module, aliases, inner, function)
                continue
            if isinstance(child, ast.Call) and (
                _is_object_new(child.func)
                or (isinstance(child.func, ast.Name) and child.func.id in aliases)
            ):
                sites.add((module, ".".join(scope) if in_function else "<module>"))
            visit(child, module, aliases, scope, in_function)

    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = {
            target.id
            for node in tree.body
            if isinstance(node, ast.Assign) and _is_object_new(node.value)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        visit(tree, path.stem, aliases, [], False)
    return sites


def wrapped_sites() -> set:
    """(module, qualified name) of every builder that the audit wraps."""
    sites = set()
    for _, owner, attribute in builders():
        if isinstance(owner, types.ModuleType):
            sites.add((owner.__name__.rpartition(".")[2], attribute))
        else:
            sites.add((owner.__module__.rpartition(".")[2], f"{owner.__qualname__}.{attribute}"))
    return sites


def test_every_object_new_call_is_in_an_audited_builder():
    sites = new_call_sites()
    # the scan sees a direct call and a call through an alias
    assert ("reduction", "_trusted") in sites and ("hermitian", "_trusted") in sites
    assert sites - wrapped_sites() == set()
