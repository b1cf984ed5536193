"""Every name a package module imports is used in that module, or its import says why not.

An unused import is allowed only on a line marked `# noqa: F401` followed by
its reason, as for the bindings that `perfbench/spans.py` wraps.  The
package's `__init__.py` is left out: its imports are its exports.
"""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "payload_mpc"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
REASONED_NOQA = re.compile(r"#\s*noqa:\s*F401\s+\S")


def unused_imports(source: str) -> list:
    """(line, name, marked) for every imported name that the module never reads."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    lines = source.splitlines()
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                marked = bool(REASONED_NOQA.search(lines[alias.lineno - 1]))
                unused.append((alias.lineno, name, marked))
    return unused


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_import_is_used_or_says_why(path):
    unmarked = [(line, name) for line, name, marked in unused_imports(path.read_text()) if not marked]
    assert not unmarked, f"{path.name}: unused imports without a reasoned `# noqa: F401`: {unmarked}"


def test_the_checker_sees_unused_and_marked_imports():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "from a import (\n"
        "    b,\n"
        "    c,  # noqa: F401  (wrapped by a tracer)\n"
        "    d,  # noqa: F401\n"
        ")\n"
        "import e.f as g\n"
        "print(b, g.h)\n"
    )
    assert unused_imports(source) == [(2, "os", False), (5, "c", True), (6, "d", False)]

