"""Rules on the package source that a reader of one module cannot see.

Only qpoly.py knows how a polynomial stores its terms: every other module
reads them through QPolynomial.items(), so a change of representation
stays inside qpoly.py.  No check of the package is an `assert`
statement, which `python -O` strips.  Every field of a @record class of
the package is read, as an attribute of its name, somewhere in src/,
tests/ or bench/, so a record holds nothing that no code uses.  And no
substitution of the package sets coordinates to the constants 0 and 1
only: QPolynomial.restrict does that by exponents, the one path for it.
Only cone_calculus calls ambient.certify_stratum_empty, so the check of
its bihomogeneity precondition stays in one place.
Every name in a module's `__all__` is bound at the module's top level
and listed once.  This test parses the sources with `ast`; it imports
nothing from the package.
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


def _exported(tree):
    """The string entries of the module's __all__ list, in order."""
    return [elt.value for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets)
            for elt in node.value.elts]


def _top_level_names(tree):
    """The names a module binds at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0]
                         for a in node.names)
    return names


EXPORTING = [p for p in SOURCES if _exported(_tree(p))]


@pytest.mark.parametrize("path", EXPORTING, ids=[p.name for p in EXPORTING])
def test_all_names_resolve_once(path):
    tree = _tree(path)
    exported = _exported(tree)
    repeated = sorted({n for n in exported if exported.count(n) > 1})
    assert not repeated, f"{path.name} lists {repeated} twice in __all__"
    missing = [n for n in exported if n not in _top_level_names(tree)]
    assert not missing, f"{path.name} exports unbound names {missing}"


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


def _is_zero_or_one(node):
    """The literal 0 or 1, or a call of .zero() or .one()."""
    if isinstance(node, ast.Constant):
        return node.value in (0, 1)
    return (isinstance(node, ast.Call) and not node.args
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("zero", "one"))


def _mapping_images(mapping, scope):
    """The image nodes of a substitution's mapping argument: a dict
    display, a dict comprehension, or a name assigned one of them in
    the enclosing function; None when they cannot be read off."""
    if isinstance(mapping, ast.Name):
        found = [node.value for node in ast.walk(scope)
                 if isinstance(node, ast.Assign) and len(node.targets) == 1
                 and isinstance(node.targets[0], ast.Name)
                 and node.targets[0].id == mapping.id]
        if len(found) != 1:
            return None
        mapping = found[0]
    if isinstance(mapping, ast.Dict):
        return mapping.values
    if isinstance(mapping, ast.DictComp):
        return [mapping.value]
    return None


# the position of the mapping argument of each substitution entry point
_MAPPING_ARG = {"Substitution": 2, "substitute": 1}


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_substitution_of_only_zeros_and_ones(path):
    tree = _tree(path)
    scopes = [node for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef)] + [tree]
    sites = set()
    for scope in scopes:
        for node in ast.walk(scope):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(
                func, "attr", None)
            if name not in _MAPPING_ARG:
                continue
            at = _MAPPING_ARG[name]
            mapping = (node.args[at] if len(node.args) > at else next(
                (k.value for k in node.keywords if k.arg == "mapping"),
                None))
            images = _mapping_images(mapping, scope)
            if images and all(map(_is_zero_or_one, images)):
                sites.add(node.lineno)
    assert not sites, (
        f"{path.name} substitutes only 0 and 1 at lines {sorted(sites)};"
        " use QPolynomial.restrict")


def _owners(tree):
    """Each node of the tree mapped to the name of its innermost
    enclosing function, None at the module level."""
    owner = {}

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            owner[child] = name
            visit(child, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else name)

    visit(tree, None)
    return owner


def test_stratum_certificate_is_called_only_by_cone_calculus():
    """certify_stratum_empty's rules hold for bihomogeneous equations on
    a toric ambient whose columns lie in a pointed cone.  cone_calculus
    reads every equation's Rank2Toric.bidegree, which raises on anything
    else, before it certifies a wall, and it plays only traces that
    run_two_ray_game has accepted.  So no code of the package but
    cone_calculus may name the certificate: not by a call, an alias, an
    import or an attribute."""
    name = "certify_stratum_empty"
    inside, outside = 0, []
    for path in SOURCES:
        tree = _tree(path)
        owner = _owners(tree)
        for node in ast.walk(tree):
            if not ((isinstance(node, ast.Name) and node.id == name)
                    or (isinstance(node, ast.Attribute) and node.attr == name)
                    or (isinstance(node, ast.alias) and node.name == name)):
                continue
            if path.name == "ambient.py" and owner[node] == "cone_calculus":
                inside += isinstance(node, ast.Name)
            else:
                outside.append(f"{path.name}:{node.lineno}")
    assert inside == 2, "cone_calculus certifies each wall on both sides"
    assert not outside, f"{name} is named outside cone_calculus at {outside}"
