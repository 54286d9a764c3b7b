"""The package's stated layout: which module owns the containment rule, what
it imports, which table columns hold objects, and the README's library
example, run as written."""

import ast
import re
import sys
from pathlib import Path

import pytest

from damagekit.cli import main

ROOT = Path(__file__).resolve().parent.parent
SOURCES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted((ROOT / "src" / "damagekit").glob("*.py"))}
# geom's private containment helpers: no other module may name them.
KERNEL = {"_on_edge", "_crossing", "_hole_rule", "_inside_pairs"}
MOVED = {"inside_pixels", "_chunk_pixels", "_centres", "_SPAN_PIXELS", "_distances"}


def imports_from(tree, module):
    """The names a module imports from damagekit.<module>."""
    return {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            and (node.module, node.level) in {(module, 1), (f"damagekit.{module}", 0)}
            for alias in node.names}


def names(tree):
    """Every identifier a module uses, binds, imports or reads as an attribute."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.asname or node.name)
            found.add(node.name)
    return found


def definitions(tree):
    """The names a module defines at its top level."""
    found = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.Assign):
            found.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return found


def absolute_imports(tree):
    """The top-level package of each absolute import anywhere in a module."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_the_package_needs_nothing_at_run_time_but_the_standard_library_and_numpy():
    foreign = {module: sorted(absolute_imports(tree) - sys.stdlib_module_names - {"numpy"})
               for module, tree in SOURCES.items()}
    assert {module: names for module, names in foreign.items() if names} == {}
    assert "numpy" in set().union(*map(absolute_imports, SOURCES.values()))


def test_raster_is_only_the_grid_format():
    assert imports_from(SOURCES["raster"], "geom") == set()


def test_only_geom_names_its_containment_helpers():
    assert KERNEL <= names(SOURCES["geom"])
    assert {module: sorted(KERNEL & names(tree)) for module, tree in SOURCES.items()
            if module != "geom" and KERNEL & names(tree)} == {}


def test_the_pixel_pass_and_the_matching_distance_are_defined_in_geom_alone():
    assert MOVED <= definitions(SOURCES["geom"])
    assert {module: sorted(MOVED & definitions(tree)) for module, tree in SOURCES.items()
            if module != "geom" and MOVED & definitions(tree)} == {}


def test_formats_imports_no_private_name_of_geom():
    assert [name for name in imports_from(SOURCES["formats"], "geom") if name.startswith("_")] == []


def test_formats_reads_raster_files_through_the_public_reader_alone():
    imported = imports_from(SOURCES["formats"], "raster")
    assert "ascii_grid_from" in imported
    assert [name for name in imported if name.startswith("_")] == []


def test_cli_binds_no_function_to_its_parser():
    """main looks each command's function up at call time, so the parser,
    built once, holds none: a set_defaults call may pass no function of cli."""
    functions = {node.name for node in SOURCES["cli"].body
                 if isinstance(node, ast.FunctionDef)}
    passed = [ast.unparse(value) for node in ast.walk(SOURCES["cli"])
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "set_defaults"
              for value in (*node.args, *(keyword.value for keyword in node.keywords))
              if isinstance(value, ast.Lambda) or names(value) & functions]
    assert passed == []


def table_object_columns(tree):
    """{class: [its columns of dtype object]} of each Columns subclass a module defines."""
    return {node.name: [key.value for key, dtype in zip(stmt.value.keys, stmt.value.values)
                        if isinstance(dtype, ast.Name) and dtype.id == "object"]
            for node in tree.body if isinstance(node, ast.ClassDef)
            and any(isinstance(base, ast.Name) and base.id == "Columns" for base in node.bases)
            for stmt in node.body if isinstance(stmt, ast.Assign)
            and [t.id for t in stmt.targets if isinstance(t, ast.Name)] == ["columns"]}


def test_every_table_holds_objects_only_in_its_id_columns():
    """Categories are FEMA codes, labels and counts int64, flags bool: a table
    between stages holds ids and numbers, and only the ids as objects."""
    assert {name: columns for tree in SOURCES.values()
            for name, columns in table_object_columns(tree).items()} == {
        "FootprintArray": ["ids"], "DamageEstimates": ["footprint_id"],
        "GroundTruthPoints": ["id"], "PointMatches": ["point_id", "footprint_id"],
        "MatchedSamples": ["point_id", "footprint_id"], "PRCurve": []}


def test_no_module_labels_one_category_at_a_time():
    assert {module for module, tree in SOURCES.items() if "binarize" in names(tree)} == set()


def test_the_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "scene.json").write_text('{"seed": 3, "grid_cols": 6, "grid_rows": 6}')
    assert main(["synth", "scene.json", "scene"]) == 0
    capsys.readouterr()
    exec(compile(block, "README.md", "exec"), {})
    precision, recall, ap = map(float, capsys.readouterr().out.split())
    assert 0.0 <= precision <= 1.0 and 0.0 <= recall <= 1.0 and 0.0 <= ap <= 1.0
