"""Every ``from repro… import name`` in the docs' Python blocks resolves.

Covers the fenced ```` ```python ```` blocks of ``README.md``,
``DESIGN.md`` and ``docs/*.md``, so a deleted module or export cannot
stay advertised in a code sample.
"""

import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md", *sorted((ROOT / "docs").glob("*.md"))]

BLOCK = re.compile(r"^```python\n(.*?)^```", re.M | re.S)
IMPORT = re.compile(r"^\s*from\s+(repro[\w.]*)\s+import\s+(\([^)]*\)|[^\n]+)", re.M)


def doc_imports():
    found = []
    for path in DOCS:
        for block in BLOCK.findall(path.read_text(encoding="utf-8")):
            for module, names in IMPORT.findall(block):
                names = re.sub(r"#[^\n]*", "", names).strip("()")
                for name in names.split(","):
                    name = name.split(" as ")[0].strip()
                    if name:
                        found.append((path.relative_to(ROOT).as_posix(), module, name))
    return list(dict.fromkeys(found))


DOC_IMPORTS = doc_imports()


def test_docs_have_imports():
    assert len(DOC_IMPORTS) > 50


@pytest.mark.parametrize(
    "doc,module,name", DOC_IMPORTS, ids=[f"{d}:{m}.{n}" for d, m, n in DOC_IMPORTS]
)
def test_doc_import_resolves(doc, module, name):
    mod = importlib.import_module(module)
    if not hasattr(mod, name):
        importlib.import_module(f"{module}.{name}")
