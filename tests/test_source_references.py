"""Every public function, class and method of the package has a caller in
the package.  Code that only the tests reach belongs in a test oracle, so
the scan fails on it unless ALLOWED names it with a reason.  Names are matched by spelling, so a name that shares its
spelling with any other name or attribute in the package counts as
referenced, and passes unseen: so did Endo.image, Endo.kernel and
FiniteSemigroup.to_json (named like fields or module functions),
gf.transpose (like numpy's ndarray.transpose), Endo.sort_key (like
Subspace.sort_key), FiniteSemigroup.index (like list.index) and
Subspace.coords (like a local variable), before they moved to the test
helpers.  So does code reached only from such a name or an allowed one:
gf.mat_transpose was called only by gf.transpose, and
CrossConnection.eps_inv only by the allowed CrossConnection.conjugate."""

import ast
from pathlib import Path

from fibersemi import cli

SRC = Path(cli.__file__).resolve().parent

ALLOWED = {
    "crossconn.CrossConnection":
        "perfbench/tracer.py's instrument wraps its conjugate on every traced run",
    "crossconn.CrossConnection.conjugate":
        "the tracer hook: perfbench/tracer.py wraps it as crossconn.conjugate",
}


def _definitions(trees):
    """(qualified name, short name, node) of every public top-level function
    or class and every public method."""
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield f"{module}.{node.name}", node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield f"{module}.{node.name}.{sub.name}", sub.name, sub


def unreferenced():
    """The qualified names that no Name or Attribute node of src/ mentions
    outside their own definition."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    mentions = {}  # short name -> ids of the nodes that mention it
    for tree in trees.values():
        for n in ast.walk(tree):
            name = n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else None
            if name is not None:
                mentions.setdefault(name, set()).add(id(n))
    found = []
    for qualified, short, node in _definitions(trees):
        if not mentions.get(short, set()) - {id(n) for n in ast.walk(node)}:
            found.append(qualified)
    return found


def test_every_public_name_has_a_caller_in_the_package():
    found = unreferenced()
    assert [q for q in found if q not in ALLOWED] == []
    # an entry whose name gained a caller or left the package is stale
    assert sorted(ALLOWED) == sorted(found)
