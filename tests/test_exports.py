"""Every name the package exports is referred to by its own code or shown in
README code: an export that is neither is code to keep up for nothing.

A reference is code, not prose: a name or an attribute in the syntax tree of
a module, outside the name's own definition, a word of a README inline code
span, or a name in the code of a README Python block.  A mention in a
comment or a docstring does not count.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hypcone"

FENCE = re.compile(r"^```(\w*)\n(.*?)^```", re.S | re.M)


def readme_python():
    """The README's fenced Python blocks."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return [body for lang, body in FENCE.findall(text) if lang == "python"]


def names_in(tree):
    """The names and attribute names in the code of a syntax tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def readme_code_words():
    """The words of the README's inline code spans, and the names in the
    code of its Python blocks (not their comments)."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    words = set(re.findall(r"\w+", " ".join(re.findall(r"`([^`\n]+)`", FENCE.sub("", text)))))
    for block in readme_python():
        words.update(names_in(ast.parse(block)))
    return words


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def code_names(name):
    """The names and attribute names in the code of the package's modules,
    less the top-level definition of `name` (decorators, signature and body)."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if getattr(top, "name", None) != name:
                yield from names_in(top)


def test_every_export_is_used_or_documented():
    readme = readme_code_words()
    unused = [name for name in exported_names()
              if name not in readme and name not in code_names(name)]
    assert unused == []
