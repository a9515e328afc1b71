"""Source checks over the package's own modules."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hpstep"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("path", MODULES + SCRIPTS, ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    # an attribute chain such as `np.linalg.inv` starts with the Name `np`
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert not imported - read, f"{path.name} never reads {sorted(imported - read)}"


def test_solve_reads_every_level_field():
    # a table the build stores per level but the solve never reads is dead weight
    tree = ast.parse((SRC / "solver.py").read_text())
    classes = {n.name: n for n in tree.body if isinstance(n, ast.ClassDef)}
    fields = {s.target.id for s in classes["_Level"].body if isinstance(s, ast.AnnAssign)}
    solve = next(n for n in classes["HpsFactorization"].body if getattr(n, "name", "") == "solve")
    read = {
        n.attr
        for n in ast.walk(solve)
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "lv"
    }
    assert fields and not fields - read, f"solve never reads _Level.{sorted(fields - read)}"


def test_every_mesh_field_is_read():
    # a field the builder stores but no other module reads is dead weight
    tree = ast.parse((SRC / "mesh.py").read_text())
    mesh = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Mesh")
    fields = {s.target.id for s in mesh.body if isinstance(s, ast.AnnAssign)}
    read = {
        n.attr
        for path in MODULES
        if path.name != "mesh.py"
        for n in ast.walk(ast.parse(path.read_text()))
        if isinstance(n, ast.Attribute)
    }
    assert fields and not fields - read, f"nothing outside mesh.py reads Mesh.{sorted(fields - read)}"


def test_every_merge_plan_field_is_read():
    # a table the plan lays out but no factorization or solve reads is dead weight
    tree = ast.parse((SRC / "mesh.py").read_text())
    classes = {n.name: n for n in tree.body if isinstance(n, ast.ClassDef)}
    fields = {
        (name, s.target.id)
        for name in ("MergeLevel", "MergePlan")
        for s in classes[name].body
        if isinstance(s, ast.AnnAssign)
    }
    solver = ast.parse((SRC / "solver.py").read_text())
    read = {n.attr for n in ast.walk(solver) if isinstance(n, ast.Attribute)}
    unread = sorted(f"{cls}.{name}" for cls, name in fields if name not in read)
    assert fields and not unread, f"solver.py never reads {unread}"
