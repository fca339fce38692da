"""DERIVATION.md against the code that cites it.

Every proof of the library is written once, in a numbered section of
DERIVATION.md, and the docstrings cite it as `DERIVATION.md §n`. A section
ends with the functions of src/dehn that rely on it ("Relied on by:", as
`module.Qualified.name`) and the tier-1 tests that check it ("Checked by:").
These tests fail on a citation of a section that does not exist, on a
section that nothing in src/dehn cites, and on a function or test that a
section names but that no longer exists. Files are read with pathlib.
"""

import re
from pathlib import Path

import pytest

from test_census import defs

ROOT = Path(__file__).resolve().parents[1]
DERIVATION = ROOT / "DERIVATION.md"
LIBRARY = sorted((ROOT / "src" / "dehn").glob("*.py"))
CITING = [*LIBRARY, ROOT / "README.md", ROOT / "tests" / "conftest.py",
          ROOT / "tests" / "test_design_rules.py"]

_HEADING = re.compile(r"^#{2,3} §(\d+(?:\.\d+)?) ", re.MULTILINE)
_SECTION = re.compile(r"§(\d+(?:\.\d+)?)")


def sections() -> dict:
    """Section number -> its text: a section's runs to the next section and
    holds its subsections, a subsection's to the next heading."""
    text = DERIVATION.read_text(encoding="utf-8")
    heads = list(_HEADING.finditer(text))
    out = {}
    for i, h in enumerate(heads):
        top = "." not in h.group(1)
        end = next((g.start() for g in heads[i + 1:] if not top or "." not in g.group(1)),
                   len(text))
        out[h.group(1)] = text[h.start():end]
    return out


def cited(path: Path) -> list:
    """(line, section) for every section a file that names DERIVATION.md
    cites: `DERIVATION.md §4`, and a bare `§5` that continues it, as in
    "§4 and §5" or a later "(§5)"."""
    text = path.read_text(encoding="utf-8")
    if "DERIVATION.md" not in text:
        return []
    return [(n, s) for n, line in enumerate(text.splitlines(), 1)
            for s in _SECTION.findall(line)]


def named(section: str, label: str) -> list:
    """The backquoted names after `**label:**` in a section, up to the
    next blank line."""
    match = re.search(rf"\*\*{label}:\*\*(.*?)(?:\n\n|\Z)", section, re.DOTALL)
    return re.findall(r"`([^`]+)`", match.group(1)) if match else []


def test_every_cited_section_exists():
    known = sections()
    missing = [f"{path.relative_to(ROOT).as_posix()}:{line}: §{n}"
               for path in CITING for line, n in cited(path) if n not in known]
    assert not missing, "cited, but no such heading in DERIVATION.md:\n" + "\n".join(missing)


def test_every_section_is_cited_from_the_library():
    # A top-level section counts as cited through any of its subsections.
    used = {n.split(".")[0] for path in LIBRARY for _, n in cited(path)}
    uncited = [n for n in sections() if "." not in n and n not in used]
    assert not uncited, f"sections no docstring or comment in src/dehn cites: {uncited}"


@pytest.mark.parametrize("label", ["Relied on by", "Checked by"])
def test_every_top_level_section_names_its_functions_and_tests(label):
    bare = [n for n, text in sections().items() if "." not in n and not named(text, label)]
    assert not bare, f"sections without a '{label}' list: {bare}"


def test_every_function_a_section_names_exists():
    known = defs()
    gone = [f"§{n}: {name}" for n, text in sections().items() if "." not in n
            for name in named(text, "Relied on by") if name not in known]
    assert not gone, "named in DERIVATION.md, but no such def in src/dehn:\n" + "\n".join(gone)


def test_every_test_a_section_names_exists():
    tests = {m for path in sorted((ROOT / "tests").glob("test_*.py"))
             for m in re.findall(r"^\s*def (test_\w+)\(", path.read_text(encoding="utf-8"),
                                 re.MULTILINE)}
    gone = [f"§{n}: {name}" for n, text in sections().items() if "." not in n
            for name in named(text, "Checked by") if name not in tests]
    assert not gone, "named in DERIVATION.md, but no such test under tests/:\n" + "\n".join(gone)
