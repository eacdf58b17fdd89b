"""Only production code in the package.

A public module-level function or class of `cfpower`, and a public method
or property of such a class, must be used by package code outside its own
definition, called from `perfbench/`, or exported by `cfpower/__init__.py`.
A method's own class counts as outside it, so a method that only a sibling
calls passes. Anything else serves only the tests and belongs in `tests/`
(shared oracles live in `conftest.py`). The scan reads sources with `ast`
and imports nothing; an identifier counts as a use wherever it appears as a
name, an attribute or an imported name, so the check errs towards passing:
a method is used wherever any object has an attribute of its name.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cfpower"
PERFBENCH = ROOT / "perfbench"


def identifiers(node):
    """Every name, attribute name and imported name used under node."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            found.update(alias.name for alias in sub.names)
    return found


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def is_public(node):
    return (isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_"))


def public_definitions():
    """(module, top-level statement) for the package's modules, and
    (qualified name, definition, the top-level statement that holds it) for
    the public functions and classes among those statements and the public
    methods and properties of those classes."""
    statements = [(path.stem, node)
                  for path in sorted(PACKAGE.glob("*.py"))
                  if path.name != "__init__.py"
                  for node in parse(path).body]
    public = []
    for module, node in statements:
        if is_public(node):
            public.append((f"{module}.{node.name}", node, node))
            if isinstance(node, ast.ClassDef):
                public += [(f"{module}.{node.name}.{member.name}", member,
                            node) for member in node.body
                           if is_public(member)]
    return statements, public


def unused_public_names():
    statements, public = public_definitions()
    exported = {alias.name for node in parse(PACKAGE / "__init__.py").body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    bench = set().union(*(identifiers(parse(path))
                          for path in PERFBENCH.glob("*.py")))
    used = [identifiers(node) for _, node in statements]
    unused = []
    for qualified, node, top in public:
        elsewhere = [names for (_, other), names in zip(statements, used)
                     if other is not top]
        if node is not top:   # a method: its siblings count as outside it
            elsewhere += [identifiers(member) for member in top.body
                          if member is not node]
        used_elsewhere = any(node.name in names for names in elsewhere)
        if not used_elsewhere and node.name not in bench | exported:
            unused.append(qualified)
    return unused


def test_scan_sees_the_package():
    _, public = public_definitions()
    names = {qualified for qualified, _, _ in public}
    assert {"wmmse.wmmse_solve", "wmmse.SolverConfig", "mlp.train",
            "pipeline.cmd_train", "dataset.record_dtype",
            "se.SEParameters.digest", "se.SEParameters.K",
            "dataset.DatasetFile.open"} <= names
    assert "cli._Parser.error" not in names


def test_every_public_definition_has_a_production_use():
    assert unused_public_names() == []
