"""One home each for the container framing, CSV files, the learned kinds
and the activations.

`container.pack_json_header` is the only code that serialises a container
header (`json.dumps(..., sort_keys=True)`), and `pipeline._write_csv` the
only code that makes a `csv.writer`. A learned kind's name occurs as a
string constant only as a key of `mlp.MODEL_PLANS`, and an activation's
name only inside that table and `mlp.ACTIVATIONS`, so every other list of
them is derived from the two tables. The scan reads the package sources
with `ast` and imports nothing; it fails when a home is written a second
time, and also when the one home is gone, so it cannot pass by finding
nothing.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "cfpower"


def calls():
    """(module, innermost enclosing function or None, call) for every call
    in the package."""
    found = []

    def visit(node, module, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                found.append((module, owner, child))
            inner = (child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner)
            visit(child, module, inner)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, None)
    return found


def is_call_of(call, module, attr):
    func = call.func
    return (isinstance(func, ast.Attribute) and func.attr == attr
            and isinstance(func.value, ast.Name) and func.value.id == module)


def test_csv_writer_only_in_the_csv_helper():
    homes = [(module, owner) for module, owner, call in calls()
             if is_call_of(call, "csv", "writer")]
    assert homes == [("pipeline", "_write_csv")]


def test_sorted_json_only_in_the_container_framing():
    homes = [(module, owner) for module, owner, call in calls()
             if is_call_of(call, "json", "dumps")
             and any(k.arg == "sort_keys" for k in call.keywords)]
    assert homes == [("container", "pack_json_header")]


def test_csv_and_json_are_reached_through_their_modules():
    # `from csv import writer` would hide a call from the scans above
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                assert node.module not in ("csv", "json"), path.name


def mlp_tables():
    """The package's parsed modules by name, and the dict nodes of mlp's
    plan and activation tables (asserted present)."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    tables = {node.targets[0].id: node.value for node in trees["mlp"].body
              if isinstance(node, ast.Assign) and len(node.targets) == 1
              and isinstance(node.targets[0], ast.Name)
              and isinstance(node.value, ast.Dict)}
    assert {"MODEL_PLANS", "ACTIVATIONS"} <= set(tables)
    return trees, tables["MODEL_PLANS"], tables["ACTIVATIONS"]


def strings_outside(trees, names, homes):
    """(module, line, value) of every string constant in the package whose
    value is one of `names` and that lies under none of the `homes` nodes."""
    inside = {id(node) for home in homes for node in ast.walk(home)}
    return [(module, node.lineno, node.value)
            for module, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value in names
            and id(node) not in inside]


def test_kind_names_only_in_the_plan_table():
    trees, plans, _ = mlp_tables()
    kinds = {key.value for key in plans.keys}
    assert kinds == {"ddnn", "ddnn-si", "cdnn"}
    assert strings_outside(trees, kinds, plans.keys) == []


def test_activation_names_only_in_the_mlp_tables():
    trees, plans, activations = mlp_tables()
    names = {key.value for key in activations.keys}
    assert names == {"linear", "tanh", "relu", "elu"}
    assert strings_outside(trees, names, [plans, activations]) == []
