"""The public surface is what the library, the README and the acceptance gate use.

A name exported from ``sandlab/__init__.py`` that only the unit tests call is
a second implementation waiting to drift; it belongs in ``tests/``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "sandlab"


def used_names(path: Path) -> set[str]:
    """The names a module reads or imports; a definition alone does not count."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [
        alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def test_every_exported_name_is_used_outside_the_unit_tests():
    used = used_names(ROOT / "tests" / "test_acceptance.py")
    for module in PACKAGE.glob("*.py"):
        if module.name != "__init__.py":
            used |= used_names(module)
    # a README mention is a name inside a code span or block, not an English word
    code = re.findall(r"`+([^`]+)`+", (ROOT / "README.md").read_text())
    used |= {word for span in code for word in re.findall(r"\w+", span)}
    unused = [name for name in exported_names() if name not in used]
    assert not unused, f"exported but used only by the unit tests: {unused}"
