"""Every name the package exports is reached by its own code or shown in the
README: an export that is neither is code to keep up for nothing."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hypcone"


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def lines_outside_definition(name):
    """The lines of the package's modules, less the top-level definition of
    `name` (decorators, signature and body)."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        for node in ast.parse(text).body:
            if getattr(node, "name", None) == name:
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                del lines[first - 1:node.end_lineno]
        yield from lines


def test_every_export_is_used_or_documented():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    unused = []
    for name in exported_names():
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not word.search(readme) and not any(map(word.search, lines_outside_definition(name))):
            unused.append(name)
    assert unused == []
