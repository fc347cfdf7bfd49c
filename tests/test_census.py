"""Every function and class in the package is named by other package code,
unless `__all__` exports it, click registers it, it overrides a method of a
class from outside the package, or the allowlist below says why it stays."""
from __future__ import annotations

import ast
import importlib
from pathlib import Path

import erasurelab

SOURCE = Path(erasurelab.__file__).parent

# definitions that no package code names, each with the reason it stays
ALLOWLIST = {
    "codec.ExplicitXorCodec.parity_mask":
        "perfbench's codec_blocks check calls it and its tracer wraps it",
    "gf256.Gf256Matrix": "perfbench wraps its invert and lists the class",
    "gf256.Gf256Matrix.invert": "perfbench wraps it as a traced span",
    "analytics.systematic_erasures_pmf": "perfbench's MDS second moment calls it",
    "multicast.RecoveryTable.full_recovery_round":
        "perfbench's multicast check and the acceptance criterion 8 read it",
    "gf2.xor_rows": "the tests' reference GF(2) product",
}


def _definitions(tree: ast.Module, module: str):
    """(qualified name, node, enclosing class name or None) of every function and
    class, nested ones included."""
    def walk(node, prefix, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                yield name, child, owner
                yield from walk(child, name, child.name if isinstance(child, ast.ClassDef)
                                else None)
            else:
                yield from walk(child, prefix, owner)

    yield from walk(tree, module, None)


def _names(node: ast.AST) -> list[str]:
    """Every identifier that node reads or writes by name or as an attribute."""
    return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))]


def _registered(node: ast.AST) -> bool:
    """A function decorated with a click command or group registration."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group")
               for d in getattr(node, "decorator_list", ()))


def _overrides_outside(module: str, owner: str | None, name: str) -> bool:
    """A method whose name a base class from outside the package also defines,
    such as object.__repr__ or click.Command.invoke."""
    if owner is None:
        return False
    cls = getattr(importlib.import_module(f"erasurelab.{module}"), owner)
    return any(not base.__module__.startswith("erasurelab") and hasattr(base, name)
               for base in cls.__mro__[1:])


def census() -> set[str]:
    """Qualified names, relative to the package, of the definitions that nothing
    in the package names outside their own definition and no rule exempts."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SOURCE.glob("*.py"))}
    named: dict[str, int] = {}
    for tree in trees.values():
        for name in _names(tree):
            named[name] = named.get(name, 0) + 1
    unused = set()
    for module, tree in trees.items():
        for qualified, node, owner in _definitions(tree, module):
            if named.get(node.name, 0) > _names(node).count(node.name):
                continue
            if (node.name in erasurelab.__all__ or _registered(node)
                    or _overrides_outside(module, owner, node.name)):
                continue
            unused.add(qualified)
    return unused


def test_every_definition_is_named_exported_registered_or_allowlisted():
    assert census() == set(ALLOWLIST)
