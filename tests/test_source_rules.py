"""Rules on the package source that a reader of one module cannot see.

Only qpoly.py knows how a polynomial stores its terms: every other module
reads them through QPolynomial.items(), so a change of representation
stays inside qpoly.py.  No check of the package is an `assert`
statement, which `python -O` strips.  And every field of a @record
class of the package is read, as an attribute of its name, somewhere in
src/, tests/ or bench/, so a record holds nothing that no code uses.
This test parses the sources with `ast`; it imports nothing from the
package.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "wcilinks").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


OUTSIDE_QPOLY = [p for p in SOURCES if p.name != "qpoly.py"]


@pytest.mark.parametrize("path", OUTSIDE_QPOLY,
                         ids=[p.name for p in OUTSIDE_QPOLY])
def test_term_layout_is_read_only_in_qpoly(path):
    reads = [node.lineno for node in ast.walk(_tree(path))
             if isinstance(node, ast.Attribute) and node.attr == "terms"
             and isinstance(node.ctx, ast.Load)]
    assert not reads, f"{path.name} reads .terms at lines {reads}"


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_assert_statements(path):
    asserts = [node.lineno for node in ast.walk(_tree(path))
               if isinstance(node, ast.Assert)]
    assert not asserts, f"{path.name} has assert statements at {asserts}"


def _record_fields(tree):
    """(class, field) for each annotated field of a @record class."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
                isinstance(d, ast.Name) and d.id == "record"
                for d in node.decorator_list):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign):
                    yield node.name, stmt.target.id


def test_every_stage_record_field_is_read():
    """Every field of every @record class in src/wcilinks is read.

    The check matches attribute names, not classes: `ast` carries no
    types, so a field passes whenever any object's attribute of the same
    name is read.  GermAnalysis.models, for one, had no reader, and the
    `.models` reads of the two-ray game's LinkTrace hid it.  Nor can it
    see inside a field that holds a dict: a key that nothing reads
    passes, since a subscript names no attribute.  The cE6 parameters
    "g2" and "g6" once had no reader and the rule did not flag them.
    """
    reads = set()
    for folder in ("src", "tests", "bench"):
        for path in (ROOT / folder).rglob("*.py"):
            reads.update(node.attr for node in ast.walk(_tree(path))
                         if isinstance(node, ast.Attribute)
                         and isinstance(node.ctx, ast.Load))
    fields = [field for path in SOURCES
              for field in _record_fields(_tree(path))]
    assert fields
    unread = [f"{cls}.{name}" for cls, name in fields if name not in reads]
    assert not unread, f"record fields nobody reads: {unread}"
