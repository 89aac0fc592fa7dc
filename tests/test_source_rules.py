"""Rules on the package source that a reader of one module cannot see.

Only qpoly.py knows how a polynomial stores its terms: every other module
reads them through QPolynomial.items(), so a change of representation
stays inside qpoly.py.  And no check of the package is an `assert`
statement, which `python -O` strips.  This test parses each module with
`ast`; it imports nothing from the package.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted(
    (Path(__file__).resolve().parent.parent / "src" / "wcilinks").glob("*.py"))


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
