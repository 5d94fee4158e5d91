"""One module knows IP addresses.

``repro.addr`` parses, formats, masks and classifies addresses for the
codec and the simulated internet alike.  It is the only module that
imports ``ipaddress``, and it imports nothing from ``repro``, so every
package can import it without an import cycle and no package needs a
second copy.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def imported_modules(tree):
    """Every module an ``import`` statement in ``tree`` names; a relative
    import keeps its leading dots."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or "")


def test_one_leaf_module_imports_ipaddress():
    importers = {}
    for path in sorted(SRC.rglob("*.py")):
        modules = set(imported_modules(ast.parse(path.read_text())))
        if "ipaddress" in modules:
            importers[path.relative_to(SRC).as_posix()] = modules
    assert list(importers) == ["addr.py"]
    assert not [module for module in importers["addr.py"]
                if module.startswith(".") or module.split(".")[0] == "repro"]
