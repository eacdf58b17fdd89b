"""One home each for the container framing and for CSV files.

`container.pack_json_header` is the only code that serialises a container
header (`json.dumps(..., sort_keys=True)`), and `pipeline._write_csv` the
only code that makes a `csv.writer`. The scan reads the package sources with
`ast` and imports nothing; it fails when either is written a second time,
and also when the one home is gone, so it cannot pass by finding nothing.
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
