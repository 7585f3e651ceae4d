"""Every top-level function and class in ``src/`` is reachable from an entry point.

Code that only the test suite, the benchmarks or perfbench call is an
oracle or a leftover, and belongs under ``tests/`` (the oracles live in
``tests/reference/``) or nowhere.  This check walks the source with
:mod:`ast`, starting from the entry points:

* every ``__all__`` in the package;
* every top-level definition of ``repro.cli`` and of the
  ``repro.experiments`` modules (the paper's figures);
* module-level statements (imports aside: an import only binds a name)
  and the bodies of module-level dunder functions such as ``__getattr__``;
* the ``examples/`` scripts;
* :data:`ALLOWLIST`.

From those roots it follows name-level references -- a ``Name``, an
attribute name or a string constant equal to a definition's name --
through the bodies of the definitions it reaches (decorators, defaults
and base classes included).  Names are not resolved to modules, so a
reference reaches every top-level definition of that name.  Dunder names
are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
EXAMPLES = REPO / "examples"

#: Definitions no root reaches that stay in ``src/``, each with its reason.
ALLOWLIST = {
    "repro.faults.active": "in-process fault arming hook the resilience suites use",
    "repro.faults.active_plan": "reads the plan armed in process, for the resilience suites",
}


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _referenced_names(nodes) -> set:
    """Identifiers used anywhere under ``nodes`` (names, attributes, strings)."""
    names: set = set()
    for node in nodes:
        for child in ast.walk(node):
            if isinstance(child, ast.Name):
                names.add(child.id)
            elif isinstance(child, ast.Attribute):
                names.add(child.attr)
            elif isinstance(child, ast.Constant) and isinstance(child.value, str):
                if child.value.isidentifier():
                    names.add(child.value)
    return names


def _all_entries(tree: ast.Module) -> set:
    entries: set = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                entries |= _referenced_names([node.value])
    return entries


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _walk() -> tuple[set, set]:
    """``(definitions, reached)``: qualified names of every top-level
    ``src/`` definition, and of those the roots reach."""
    definitions: dict[str, ast.AST] = {}  # qualified name -> def/class node
    by_name: dict[str, list[str]] = {}
    roots: set = set(ALLOWLIST)
    root_names: set = set()
    for path in sorted(SRC.rglob("*.py")):
        module = _module_name(path)
        tree = ast.parse(path.read_text(), filename=str(path))
        entry_module = module == "repro.cli" or module.startswith("repro.experiments")
        root_names |= _all_entries(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualified = f"{module}.{node.name}"
                definitions[qualified] = node
                by_name.setdefault(node.name, []).append(qualified)
                if entry_module or _is_dunder(node.name):
                    roots.add(qualified)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                root_names |= _referenced_names([node])
    for path in sorted(EXAMPLES.glob("*.py")):
        root_names |= _referenced_names([ast.parse(path.read_text(), filename=str(path))])
    for name in root_names:
        roots.update(by_name.get(name, ()))

    reached: set = set()
    pending = [qualified for qualified in roots if qualified in definitions]
    while pending:
        qualified = pending.pop()
        if qualified not in reached:
            reached.add(qualified)
            for name in _referenced_names([definitions[qualified]]):
                pending.extend(by_name.get(name, ()))
    return set(definitions), reached


def test_every_src_definition_is_reachable_from_an_entry_point():
    definitions, reached = _walk()
    unreachable = sorted(
        qualified
        for qualified in definitions - reached
        if not _is_dunder(qualified.rsplit(".", 1)[1])
    )
    assert not unreachable, (
        "top-level definitions no entry point reaches (move an oracle under "
        f"tests/reference/, delete dead code, or allowlist with a reason): {unreachable}"
    )


def test_allowlist_names_existing_definitions():
    definitions, _reached = _walk()
    assert set(ALLOWLIST) <= definitions, set(ALLOWLIST) - definitions
