"""Source checks over the package's own modules."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hpstep"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
# the code outside the tests, whose reads keep a name alive
PROGRAM = [
    path
    for folder in ("src", "scripts", "perfbench")
    for path in (ROOT / folder).rglob("*.py")
    if not path.name.startswith("test_")
]

# a slopes step (so the interface completer runs), a dense oracle solve and
# a desk config's CLI run cut to one step, then the scipy modules loaded
RUNTIME_SCRIPT = """
import sys
import numpy as np
from hpstep.cli import cmd_run, load_config
from hpstep.mesh import BOUNDARY, build_mesh
from hpstep.operators import laplace_operator
from hpstep.oracle import assemble_global, oracle_solve
from hpstep.problems import make_stepper, schrodinger_harmonic

case = schrodinger_harmonic(n=2, p=6)
stepper = make_stepper(case, 0.01, formulation="slopes")
stepper.step(0.0, case.u0)
mesh = build_mesh(((0.0, 1.0), (0.0, 1.0)), 2, 2, p=5)
system = assemble_global(mesh, laplace_operator().shifted(1.0, 1.0))
oracle_solve(system, np.ones(mesh.n_nodes), np.zeros(mesh.ids_of(BOUNDARY).size))
cfg = load_config(sys.argv[1], ["t_end=0.4", "output_dir=" + sys.argv[2]])
cmd_run(cfg)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


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


def test_leaf_forms_read_every_array_field():
    # a stack a leaf form stores but its solve steps never read is dead
    # weight; the base's hand-over map is read once, by `edge_to_flux`
    tree = ast.parse((SRC / "operators.py").read_text())
    classes = {n.name: n for n in tree.body if isinstance(n, ast.ClassDef)}
    base = classes["LeafOperators"]

    def array_fields(cls):
        return {
            s.target.id
            for s in cls.body
            if isinstance(s, ast.AnnAssign) and "ndarray" in ast.unparse(s.annotation)
        }

    def self_reads(cls, names):
        methods = [n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name in names]
        return {
            n.attr
            for m in methods
            for n in ast.walk(m)
            if isinstance(n, ast.Attribute) and getattr(n.value, "id", "") == "self"
        }

    handed_over = array_fields(base) & self_reads(base, {"edge_to_flux"})
    forms = [c for c in classes.values() if any(getattr(b, "id", "") == base.name for b in c.bases)]
    unread = sorted(
        f"{form.name}.{name}"
        for form in forms
        for name in (array_fields(base) | array_fields(form)) - handed_over
        if name not in self_reads(form, {"upward", "downward", "shift"})
    )
    assert len(forms) == 2 and not unread, f"no solve step reads {unread}"


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


def _declared_names(cls: ast.ClassDef) -> set:
    """A dataclass's fields and a class's public properties."""
    def ids(decorators):  # `@dataclass(frozen=True)` names `dataclass` too
        return {getattr(getattr(d, "func", d), "id", None) for d in decorators}

    fields = {
        s.target.id
        for s in cls.body
        if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
    }
    properties = {
        s.name
        for s in cls.body
        if isinstance(s, ast.FunctionDef)
        and not s.name.startswith("_")
        and ids(s.decorator_list) & {"property", "cached_property"}
    }
    return properties | (fields if "dataclass" in ids(cls.decorator_list) else set())


def test_every_field_and_property_is_read():
    # a field or property that only tests read is dead weight; a name read
    # through a string (`getattr(st, "Dxx")`) counts
    declared = {
        (cls.name, name)
        for path in MODULES
        for cls in ast.walk(ast.parse(path.read_text()))
        if isinstance(cls, ast.ClassDef)
        for name in _declared_names(cls)
    }
    read = set()
    for path in PROGRAM:
        for n in ast.walk(ast.parse(path.read_text())):
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                read.add(n.value)
    unread = sorted(f"{cls}.{name}" for cls, name in declared if name not in read)
    assert declared and not unread, f"only tests read {unread}"


def test_every_public_function_and_class_is_read():
    # a public function or class that only tests call is dead weight; the
    # package's `__all__` strings do not count as a read
    declared = {
        (path.stem, node.name)
        for path in MODULES
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    read = {
        n.id if isinstance(n, ast.Name) else n.attr
        for path in PROGRAM
        for n in ast.walk(ast.parse(path.read_text()))
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    }
    unread = sorted(f"{module}.{name}" for module, name in declared if name not in read)
    assert declared and not unread, f"only tests read {unread}"


def test_runtime_loads_no_scipy(tmp_path):
    # the runtime needs numpy alone; scipy would bring a second BLAS runtime
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    config = ROOT / "configs" / "heat1d-order.json"
    cmd = [sys.executable, "-c", RUNTIME_SCRIPT, str(config), str(tmp_path / "run")]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, env=env)
    assert done.returncode == 0, done.stderr
    *report, loaded = done.stdout.splitlines()
    assert len(report) == 1 and report[0].startswith("heat1d-bc: 1 steps of 0.4 done")
    assert loaded == "[]"
