"""Config handling, output formats and the small command flows."""
import contextlib
import csv
import errno
import io
import json
import os
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpstep import cli, studies
from hpstep.cli import (
    FORMULATIONS,
    RESULT_COLUMNS,
    SWEEP_COLUMNS,
    ConfigError,
    RunConfig,
    _write_csv,
    cmd_run,
    cmd_sweep,
    load_config,
    main,
)
from hpstep.analysis import max_error
from hpstep.problems import PROBLEMS, make_stepper
from hpstep.solver import factor_bytes


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def heat_config(tmp_path, **extra):
    cfg = {
        "experiment": "heat1d-bc",
        "mesh": {"n1": 4, "n2": 0, "p": 12},
        "formulation": "slopes",
        "q_rk": 3,
        "dt": 0.4,
        "t_end": 2.0,
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_config_round_trip_lossless(tmp_path):
    c1 = load_config(str(heat_config(tmp_path)))
    c2 = RunConfig.from_dict(json.loads(json.dumps(c1.to_dict())))
    assert c1.to_dict() == c2.to_dict()


@pytest.mark.parametrize(
    "patch,field",
    [
        ({"experiment": "nope"}, "experiment"),
        ({"mesh": {"n1": 4, "n2": 0}}, "mesh.p"),
        ({"mesh": {"n1": 4, "n2": 0, "p": 12, "q": 1}}, "mesh.q"),
        ({"q_rk": 6}, "q_rk"),
        ({"formulation": "theta"}, "formulation"),
        ({"dt_rule": "cfl"}, "dt_rule"),
        ({"dt": 0.1, "dt_rule": "resolution"}, "dt"),
        ({"threads": 0}, "threads"),
        ({"bogus": 1}, "bogus"),
        ({"threads": True}, "threads"),
        ({"dt": float("nan")}, "dt"),
        ({"dt": float("inf")}, "dt"),
        ({"t_end": float("nan")}, "t_end"),
        ({"t_end": float("-inf")}, "t_end"),
        ({"output_dir": 3}, "output_dir"),
        ({"threads": 1}, "threads"),
    ],
)
def test_config_errors_name_the_field(tmp_path, patch, field):
    with pytest.raises(ConfigError, match=field.replace(".", r"\.")):
        load_config(str(heat_config(tmp_path, **patch)))


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_shipped_configs_load(path):
    cfg = load_config(str(path))
    assert RunConfig.from_dict(cfg.to_dict()) == cfg


def test_mesh_shape_checked_against_experiment(tmp_path):
    path = heat_config(tmp_path, mesh={"n1": 4, "n2": 3, "p": 12})
    with pytest.raises(ConfigError, match="mesh.n2"):
        cmd_run(load_config(str(path)))


def test_overrides_reach_nested_fields(tmp_path):
    cfg = load_config(str(heat_config(tmp_path)), ["mesh.p=8", "q_rk=4"])
    assert cfg.mesh["p"] == 8
    assert cfg.q_rk == 4


def test_resolution_rule_follows_t_end_override(tmp_path):
    # dt tracks h**(p/q) = 0.5**(8/3) ~ 0.157 on this mesh, so t_end = 0.5
    # takes 4 steps, not the 40 of the case's own horizon of 2*pi
    path = heat_config(
        tmp_path,
        experiment="schrodinger-harmonic",
        mesh={"n1": 32, "n2": 32, "p": 8},
        dt=None,
        dt_rule="resolution",
        t_end=0.5,
    )
    cfg = load_config(str(path))
    assert cfg.resolve_steps(cfg.build_case()) == 4


def _parsed(text):
    """An override value as the command line reads it."""
    try:
        return json.loads(text)
    except ValueError:
        return text


def _text_except(*valid):
    return st.text(max_size=10).filter(
        lambda t: _parsed(t) is not None
        and not (isinstance(_parsed(t), str) and _parsed(t) in valid)
    )


# `--set KEY=VALUE` overrides that must be rejected before anything runs,
# with the field the message has to name; values are raw override text
_BAD_NUMBER = ["nan", "NaN", "Infinity", "-Infinity", "1e400", "0", "-2.5", "true",
               "false", "[]", "{}", '"x"', "x", "1" + "0" * 5000]
_BAD_OVERRIDES = st.one_of(
    st.tuples(st.sampled_from(["dt", "t_end"]), st.sampled_from(_BAD_NUMBER)),
    st.tuples(st.just("threads"),
              st.sampled_from(["0", "-1", "true", "1.5", "nan", "null", '"2"', "[]"])),
    st.tuples(st.just("q_rk"), st.sampled_from(["2", "6", "true", "3.0", '"3"', "nan"])),
    st.tuples(st.just("formulation"), _text_except("slopes", "stages")),
    st.tuples(st.just("experiment"), _text_except(*PROBLEMS)),
    st.tuples(st.just("dt_rule"), _text_except("resolution")),
    st.tuples(st.just("output_dir"), st.sampled_from(["1", "true", "null", '""', "[]"])),
    st.tuples(st.sampled_from(["mesh.n1", "mesh.n2", "mesh.p"]),
              st.sampled_from(["-1", "true", "1.5", "nan", '"4"', "null", "[]"])),
    st.tuples(st.sampled_from(["mesh.q", "bogus", "experiment.x", "dt.y", "threads.z"]),
              st.sampled_from(["1", "nan", "x"])),
)


@pytest.fixture(scope="module")
def shared_config(tmp_path_factory):
    return str(heat_config(tmp_path_factory.mktemp("cfg")))


@settings(max_examples=150, deadline=None)
@given(override=_BAD_OVERRIDES)
def test_bad_overrides_exit_2_naming_the_field(shared_config, override):
    key, value = override
    head, _, tail = key.partition(".")
    field = head if head in ("experiment", "dt", "threads") else key
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["run", shared_config, "--set", f"{key}={value}"])
    text = err.getvalue()
    assert code == 2, text
    assert text.startswith(f"error: {field}"), text
    assert "Traceback" not in text


# whole config dicts, valid but for one fault, paired with the field the
# message has to name
_TWO_D = {name: PROBLEMS[name](n=1, p=4).mesh.n2 > 0 for name in PROBLEMS}
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10) | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=2)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)
_JSON_KINDS = {
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(-10, 10),
    "float": st.floats(),
    "text": st.text(max_size=5),
    "list": st.lists(_JSON, max_size=2),
    "object": st.dictionaries(st.text(max_size=3), _JSON, max_size=2),
}


def _json_except(*kinds):
    return st.one_of(*(values for kind, values in _JSON_KINDS.items() if kind not in kinds))


def _new_key(known):
    return st.text(min_size=1, max_size=10).filter(lambda k: k not in known)


def _absent_or(values):
    """A valid optional field value; None is written as null or left out."""
    return st.one_of(st.none(), values)


_BAD_NUMBER_VALUE = st.one_of(
    _json_except("null", "int", "float"),
    st.floats(max_value=0.0),
    st.integers(max_value=0),
    st.sampled_from([float("nan"), float("inf"), 10**400]),
)
_BAD_VALUES = {
    "experiment": _json_except("text") | st.text(max_size=12).filter(lambda t: t not in PROBLEMS),
    "mesh": _json_except("object"),
    "formulation": _json_except("null", "text")
    | st.text(max_size=8).filter(lambda t: t not in FORMULATIONS),
    "q_rk": _json_except("null", "int") | st.integers().filter(lambda v: v not in (3, 4, 5)),
    "dt": _BAD_NUMBER_VALUE,
    "dt_rule": _json_except("null", "text")
    | st.text(max_size=12).filter(lambda t: t != "resolution"),
    "t_end": _BAD_NUMBER_VALUE,
    "output_dir": _json_except("text") | st.just(""),
    "mesh.n1": _json_except("int") | st.integers(max_value=0),
    "mesh.p": _json_except("int") | st.integers(max_value=3),
}
_FAULTS = sorted(_BAD_VALUES) + [
    "unknown", "unknown mesh", "missing", "n2", "dt and dt_rule", "top level"
]


@st.composite
def _bad_configs(draw, fault):
    name = draw(st.sampled_from(sorted(PROBLEMS)))
    n1 = draw(st.integers(1, 3))
    mesh = {"n1": n1, "n2": n1 if _TWO_D[name] else 0, "p": draw(st.integers(4, 8))}
    cfg = {"experiment": name, "mesh": mesh, "output_dir": "out"}
    optional = {
        "formulation": _absent_or(st.sampled_from(FORMULATIONS)),
        "q_rk": _absent_or(st.sampled_from([3, 4, 5])),
        "t_end": _absent_or(st.floats(0.01, 10.0)),
        "dt": _absent_or(st.floats(1e-3, 1.0)),
    }
    for key, values in optional.items():
        value = draw(values)
        if value is not None or draw(st.booleans()):
            cfg[key] = value
    if cfg.get("dt") is None and draw(st.booleans()):
        cfg["dt_rule"] = "resolution"

    if fault in _BAD_VALUES:
        field = fault
        head, _, tail = field.partition(".")
        (mesh if tail else cfg)[tail or head] = draw(_BAD_VALUES[field])
    elif fault == "unknown":
        field = draw(_new_key(RunConfig.__dataclass_fields__))
        cfg[field] = draw(_JSON)
    elif fault == "unknown mesh":
        key = draw(_new_key(mesh))
        mesh[key] = draw(_JSON)
        field = f"mesh.{key}"
    elif fault == "missing":
        field = draw(st.sampled_from(["experiment", "mesh", "mesh.n1", "mesh.n2", "mesh.p"]))
        head, _, tail = field.partition(".")
        del (mesh if tail else cfg)[tail or head]
    elif fault == "n2":  # an integer the experiment's mesh shape does not have
        field = "mesh.n2"
        mesh["n2"] = draw(st.integers().filter(lambda v: v != mesh["n2"]))
    elif fault == "dt and dt_rule":
        field = "dt"
        cfg.update(dt=draw(st.floats(1e-3, 1.0)), dt_rule="resolution")
    else:
        field = "config"
        cfg = draw(_json_except("object"))
    return cfg, field


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("configs")


@pytest.mark.parametrize("fault", _FAULTS)
@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data())
def test_bad_configs_exit_2_naming_the_field(config_dir, fault, data):
    cfg, field = data.draw(_bad_configs(fault))
    if isinstance(cfg, dict) and cfg.get("output_dir") == "out":
        cfg["output_dir"] = str(config_dir / "out")
    path = config_dir / "config.json"
    path.write_text(json.dumps(cfg))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["run", str(path)])
    text = err.getvalue()
    assert code == 2, text
    assert text.startswith(f"error: {field}"), text
    assert "Traceback" not in text


def test_run_reports_non_finite_step(tmp_path, monkeypatch, capsys):
    make = PROBLEMS["heat1d-bc"]

    def poisoned(**kw):
        case = make(**kw)
        case.evolution.forcing = lambda t, x, y: np.full_like(x, np.nan)
        return case

    monkeypatch.setitem(PROBLEMS, "heat1d-bc", poisoned)
    code = main(["run", str(heat_config(tmp_path))])
    err = capsys.readouterr().err
    assert code == 1
    assert err.splitlines() == ["error: step 1 (t=0.4): field is not finite"]


def test_run_reports_overflow_at_its_step(tmp_path, monkeypatch, capsys):
    # an overflowing step raises no numpy warning; the finiteness check names it
    make = PROBLEMS["heat1d-bc"]

    def overflowing(**kw):
        case = make(**kw)
        case.evolution.forcing = lambda t, x, y: np.full_like(x, 1e308)
        return case

    monkeypatch.setitem(PROBLEMS, "heat1d-bc", overflowing)
    code = main(["run", str(heat_config(tmp_path))])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error: step "), err


def test_run_reports_memory_error_naming_the_mesh(tmp_path, monkeypatch, capsys):
    # stands in for numpy failing to allocate the p x p differentiation matrix
    def too_large(**kw):
        raise MemoryError("Unable to allocate 74.5 GiB for an array with shape (100000, 100000)")

    monkeypatch.setitem(PROBLEMS, "heat1d-bc", too_large)
    code = main(["run", str(heat_config(tmp_path)), "--set", "mesh.p=100000"])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1, err
    assert err[0].startswith("error: mesh n1=4 n2=0 p=100000 does not fit in memory: Unable")
    assert not (tmp_path / "out").exists()


def test_run_stopped_while_building_leaves_no_directory(tmp_path, monkeypatch, capsys):
    # the factorization is where a large mesh runs out of memory
    def too_large(*args, **kw):
        raise MemoryError("Unable to allocate 74.5 GiB for an array with shape (100000, 100000)")

    monkeypatch.setattr(cli, "make_stepper", too_large)
    code = main(["run", str(heat_config(tmp_path))])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: mesh n1=4 n2=0 p=12 does not fit in memory")
    assert not (tmp_path / "out").exists()


def test_run_stopped_by_a_non_finite_step_leaves_no_directory(tmp_path, capsys):
    # burgers-cross at its desk mesh and dt blows up in its 5th step
    out = tmp_path / "cross"
    desk = ["mesh.n1=8", "mesh.n2=8", "mesh.p=12", "dt=0.0125", f"output_dir={out}"]
    sets = [a for s in desk for a in ("--set", s)]
    code = main(["run", str(CONFIG_DIR / "burgers-cross-full.json"), *sets])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error: step 5 "), err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_output_dir_under_a_file_exits_2_before_the_build(tmp_path, monkeypatch, capsys, command):
    def not_reached(*args, **kw):
        raise AssertionError("built a stepper for an output directory it cannot write")

    monkeypatch.setattr(cli, "make_stepper", not_reached)
    monkeypatch.setattr(cli, "advance", not_reached)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    argv = [command, str(heat_config(tmp_path, output_dir=str(blocker / "out")))]
    code = main(argv + (["--axis", "dt"] if command == "sweep" else []))
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert err == [f"error: output_dir: {blocker} is not a directory"]


def test_failed_write_exits_1_and_leaves_no_directory(tmp_path, monkeypatch, capsys):
    # the results are written first, then the snapshots; the disk fills between
    def disk_full(path, *args):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

    monkeypatch.setattr(cli, "write_snapshot", disk_full)
    out = tmp_path / "made" / "out"
    code = main(["run", str(heat_config(tmp_path, output_dir=str(out)))])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert err == [f"error: output_dir: cannot write {out / 'snapshot_initial.npz'}: "
                   "No space left on device"]
    assert not (tmp_path / "made").exists() and tmp_path.exists()


@pytest.mark.parametrize("rule", [{}, {"dt": None, "dt_rule": "resolution"}], ids=["dt", "rule"])
def test_step_count_overflow_exits_2_naming_t_end_and_dt(tmp_path, capsys, rule):
    code = main(["run", str(heat_config(tmp_path, t_end=1e308, **rule))])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: t_end: 1e+308 ") and " dt " in err[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "harmonic-extrapolation", "--set", "dt=1e-300"],
        ["run", "heat1d-order", "--set", "t_end=1e300"],
        # h**(p/q) underflows to a zero step
        ["run", "heat1d-order", "--set", "dt=null", "--set", "dt_rule=resolution",
         "--set", "mesh.p=100000"],
        # 2e6 steps at the first point, 1.6e7 at the fourth
        ["sweep", "heat1d-order", "--set", "dt=1e-6", "--axis", "dt", "--points", "4"],
        # 6.25e6 steps, and 1.25e7 in the extra halving that is the reference
        ["sweep", "burgers-rotating-desk", "--set", "dt=1.6e-7", "--axis", "dt", "--points", "1"],
    ],
    ids=["dt", "t_end", "resolution", "sweep", "sweep-reference"],
)
def test_step_count_past_the_ceiling_exits_2(tmp_path, monkeypatch, capsys, argv):
    def not_reached(*args, **kw):
        raise AssertionError("stepped")

    monkeypatch.setattr(cli, "make_stepper", not_reached)
    monkeypatch.setattr(studies, "make_stepper", not_reached)
    command, name, *rest = argv
    out = tmp_path / "out"
    code = main([command, str(CONFIG_DIR / f"{name}.json"), "--set", f"output_dir={out}", *rest])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: t_end: ") and " dt " in err[0], err
    assert f"more than {cli.MAX_STEPS} steps" in err[0]
    assert not out.exists()


def test_run_outputs(tmp_path):
    cfg = load_config(str(heat_config(tmp_path)))
    out = cmd_run(cfg)
    rows = read_csv(out / "results.csv")
    assert rows[0] == list(RESULT_COLUMNS)
    assert len(rows) == 2
    record = dict(zip(rows[0], rows[1]))
    assert record["experiment"] == "heat1d-bc"
    assert int(record["steps"]) == 5
    assert float(record["final_error"]) < 1e-4
    assert float(record["build_seconds"]) > 0

    snap = np.load(out / "snapshot_final.npz")
    assert list(snap["dims"]) == [4, 0]
    assert int(snap["p"]) == 12
    assert float(snap["time"]) == 2.0
    assert snap["field"].shape == snap["x"].shape

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"] == cfg.to_dict()
    assert set(manifest["versions"]) == {"artifact", "python", "numpy"}


def test_csv_cells_write_numpy_floats_as_plain_numbers(tmp_path):
    path = tmp_path / "cells.csv"
    _write_csv(path, ("a", "b", "c"), [{"a": np.float64(0.1), "b": None}])
    assert read_csv(path) == [["a", "b", "c"], ["0.1", "", ""]]


def test_run_manifest_reports_condition(tmp_path):
    config = CONFIG_DIR / "burgers-rotating-desk.json"
    cfg = load_config(str(config), ["t_end=0.05", "output_dir=" + str(tmp_path / "out")])
    manifest = json.loads((cmd_run(cfg) / "manifest.json").read_text())
    assert np.isfinite(manifest["condition"]) and manifest["condition"] >= 1


def test_run_manifest_reports_factor_bytes(tmp_path):
    cfg = load_config(str(heat_config(tmp_path)))
    manifest = json.loads((cmd_run(cfg) / "manifest.json").read_text())
    case = cfg.build_case()
    dt = case.t_end / cfg.resolve_steps(case)
    stepper = make_stepper(case, dt, order=cfg.q_rk, formulation=cfg.formulation)
    assert manifest["factor_bytes"] == factor_bytes(stepper.fact) > 0


def test_run_deterministic_outside_timing_columns(tmp_path):
    path = heat_config(tmp_path)
    out1 = cmd_run(load_config(str(path), ["output_dir=" + str(tmp_path / "a")]))
    out2 = cmd_run(load_config(str(path), ["output_dir=" + str(tmp_path / "b")]))
    r1 = read_csv(out1 / "results.csv")
    r2 = read_csv(out2 / "results.csv")
    drop = {RESULT_COLUMNS.index("build_seconds"), RESULT_COLUMNS.index("step_seconds")}
    trim = lambda row: [v for i, v in enumerate(row) if i not in drop]
    assert [trim(r) for r in r1] == [trim(r) for r in r2]


def test_dt_sweep_rate_near_design_order(tmp_path):
    cfg = load_config(str(heat_config(tmp_path)))
    out = cmd_sweep(cfg, "dt", 4)
    rows = read_csv(out / "sweep_dt.csv")
    assert rows[0] == list(SWEEP_COLUMNS)
    data, summary = rows[1:-1], rows[-1]
    errors = [float(r[3]) for r in data]
    assert errors == sorted(errors, reverse=True)
    assert 1.8 < float(summary[4]) < 3.5
    assert summary[2] == "" and summary[3] == ""


def test_dt_sweep_at_the_rounding_floor_leaves_rate_absent(tmp_path, capsys):
    # errors of about 1e-13, 8e-15 and 2e-14: too few above the rounding
    # floor to fit, which is reported, not raised
    path = heat_config(tmp_path, q_rk=5, dt=0.02)
    assert main(["sweep", str(path), "--axis", "dt", "--points", "3"]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert "rate absent" in captured.out
    out = tmp_path / "out"
    assert read_csv(out / "sweep_dt.csv")[-1][4] == ""
    assert (out / "manifest.json").exists()


def test_leaf_sweep_single_point_leaves_rate_absent(tmp_path):
    cfg = load_config(str(heat_config(tmp_path)))
    out = cmd_sweep(cfg, "leaf-size", 1)
    rows = read_csv(out / "sweep_leaf-size.csv")
    assert len(rows) == 3
    assert rows[1][3] != ""
    assert rows[-1][4] == ""


def asymmetric_config(tmp_path):
    """A small case with no closed-form solution: sweeps fall back to
    self-computed references."""
    return heat_config(
        tmp_path,
        experiment="schrodinger-asymmetric",
        mesh={"n1": 2, "n2": 2, "p": 6},
        dt=0.25,
        t_end=1.0,
    )


def _asymmetric_final(n, steps):
    case = PROBLEMS["schrodinger-asymmetric"](n=n, p=6)
    case.t_end = 1.0
    st = make_stepper(case, case.t_end / steps, order=3, formulation="slopes")
    return case, st.run(0.0, case.u0, steps)


def test_dt_sweep_without_exact_solution_uses_one_extra_halving(tmp_path):
    out = cmd_sweep(load_config(str(asymmetric_config(tmp_path))), "dt", 3)
    rows = read_csv(out / "sweep_dt.csv")[1:-1]
    _, ref = _asymmetric_final(2, 32)
    want = [float(np.abs(_asymmetric_final(2, c)[1] - ref).max()) for c in (4, 8, 16)]
    assert [float(r[2]) for r in rows] == [0.25, 0.125, 0.0625]
    assert [float(r[3]) for r in rows] == want


def test_leaf_sweep_without_exact_solution_uses_the_finest_mesh(tmp_path):
    out = cmd_sweep(load_config(str(asymmetric_config(tmp_path))), "leaf-size", 3)
    rows = read_csv(out / "sweep_leaf-size.csv")[1:-1]
    fine, u_fine = _asymmetric_final(8, 4)
    want = []
    for n in (2, 4):
        case, u = _asymmetric_final(n, 4)
        want.append(max_error(u, case.mesh, reference=(fine.mesh, u_fine)))
    assert [int(r[2]) for r in rows] == [2, 4, 8]
    assert [float(r[3]) for r in rows[:2]] == want
    assert rows[2][3] == ""


def test_extrapolation_axis_needs_exact_solution(tmp_path):
    with pytest.raises(ConfigError, match="axis"):
        cmd_sweep(load_config(str(asymmetric_config(tmp_path))), "extrapolation-level", 2)


def test_extrapolation_axis_emits_table(tmp_path):
    path = heat_config(tmp_path, dt=0.5)
    out = cmd_sweep(load_config(str(path)), "extrapolation-level", 3)
    rows = read_csv(out / "extrapolation_table.csv")
    assert rows[0] == ["level", "steps", "extrap_0", "extrap_1", "extrap_2"]
    assert len(rows) == 4
    # triangular: level i fills i+1 error cells
    assert rows[1][3] == "" and rows[3][4] != ""
    raw = [float(r[2]) for r in rows[1:]]
    assert raw[2] < raw[0]


def _raw_config(tmp_path, data: bytes):
    path = tmp_path / "config.json"
    path.write_bytes(data)
    return path


BAD_INVOCATIONS = {  # name: (argv from tmp_path, field the message names)
    "unknown-experiment": (
        lambda tmp: ["run", str(heat_config(tmp, experiment="nope"))], "experiment"
    ),
    "missing-file": (lambda tmp: ["run", str(tmp / "absent.json")], "config"),
    "directory": (lambda tmp: ["run", str(tmp)], "config"),
    "bad-json": (lambda tmp: ["run", str(_raw_config(tmp, b'{"experiment": '))], "config"),
    "undecodable": (lambda tmp: ["run", str(_raw_config(tmp, b"\xff\xfe{}"))], "config"),
    "override-without-equals": (
        lambda tmp: ["run", str(heat_config(tmp)), "--set", "dt"], "override"
    ),
    "no-points": (
        lambda tmp: ["sweep", str(heat_config(tmp)), "--axis", "dt", "--points", "0"],
        "points",
    ),
    "no-default-step": (
        lambda tmp: [
            "run",
            str(heat_config(
                tmp, experiment="schrodinger-harmonic", mesh={"n1": 4, "n2": 4, "p": 6}, dt=None
            )),
        ],
        "dt",
    ),
}


@pytest.mark.parametrize("case", BAD_INVOCATIONS)
def test_main_rejects_bad_config_with_exit_code(tmp_path, capsys, case):
    argv, field = BAD_INVOCATIONS[case]
    assert main(argv(tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {field}")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_main_verify_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "60/60 checks passed" in out
    assert "FAIL" not in out


def test_reproduce_prints_one_json_line_per_claim(tmp_path, monkeypatch, capsys):
    records = {1: {"checks": 36, "failed": []}, 4: {"p=4": 2.83, "p=6": 5.35}}
    monkeypatch.setattr(cli, "CLAIMS", {n: (lambda r=r: r) for n, r in records.items()})
    monkeypatch.chdir(tmp_path)
    assert main(["reproduce"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert [line.partition(": ")[0] for line in lines] == ["criterion 1", "criterion 4"]
    assert [json.loads(line.partition(": ")[2]) for line in lines] == list(records.values())
    assert list(tmp_path.iterdir()) == []


def test_reproduce_reports_a_failing_claim(monkeypatch, capsys):
    def blows_up():
        raise FloatingPointError("step 3 (t=0.3): field is not finite")

    monkeypatch.setattr(cli, "CLAIMS", {1: lambda: {"checks": 1}, 2: blows_up})
    assert main(["reproduce"]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ['criterion 1: {"checks": 1}']
    assert captured.err.splitlines() == ["error: step 3 (t=0.3): field is not finite"]


# -- the no-traceback promise over mutations of the shipped configs ---------

SHIPPED = sorted(CONFIG_DIR.glob("*.json"))
DESK = [p for p in SHIPPED if "-full" not in p.name]  # small enough to sweep
# wrong types, signs, inf/nan and huge integers; mesh integers are drawn
# small or far beyond any memory, so no mesh between is ever built
_MUTANT_VALUES = st.one_of(
    st.sampled_from([None, True, "", "x", [], [1], {}, {"n1": 2}, 0.5]),  # wrong types
    st.sampled_from(["slopes", "stages", "resolution", "heat1d-bc"]),  # strings out of place
    st.sampled_from([0, -1, -0.5, -(10**30)]),  # signs
    st.sampled_from([float("inf"), -float("inf"), float("nan"), 1e300, 1e-300, 5e-324]),
    st.sampled_from([10**15, 10**30, 2**63, 10**400]),  # huge integers
    st.integers(-3, 16),
)
_FIELDS = tuple(RunConfig.__dataclass_fields__) + ("bogus",)
_MUTATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("set"), st.sampled_from(_FIELDS), _MUTANT_VALUES),
        st.tuples(st.just("mesh"), st.sampled_from(["n1", "n2", "p", "q"]), _MUTANT_VALUES),
        st.tuples(st.just("drop"), st.sampled_from(_FIELDS), st.none()),
        st.tuples(st.just("unwritable"), st.none(), st.none()),
    ),
    min_size=1,
    max_size=2,
)
_OVERRIDES = st.lists(
    st.one_of(
        st.builds(
            "{}={}".format,
            st.sampled_from(_FIELDS + ("mesh.n1", "mesh.n2", "mesh.p", "mesh.q", "dt.x")),
            _MUTANT_VALUES.map(json.dumps),
        ),
        st.text(max_size=8),
    ),
    max_size=1,
)


class _StillStepper:
    """A stepper that leaves its field as it is: the config handling, not
    the stepping, is under test."""

    formulation = "slopes"
    fact = SimpleNamespace(condition={"leaf": 1.0})

    def __init__(self, case, dt, **kw):
        pass

    def run(self, t, u, steps):
        return u

    def step(self, t, u):
        return u


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    path=st.sampled_from(SHIPPED),
    mutations=_MUTATIONS,
    overrides=_OVERRIDES,
    command=st.one_of(
        st.just(["run"]),
        st.tuples(st.sampled_from(cli.AXES), st.integers(-1, 2)).map(
            lambda a: ["sweep", "--axis", a[0], "--points", str(a[1])]
        ),
    ),
)
def test_mutated_shipped_configs_exit_cleanly(path, mutations, overrides, command):
    # exit 0, 1 or 2; a failure prints exactly one `error:` line; nothing
    # ever escapes `main` as a traceback
    if command[0] == "sweep" and path not in DESK:
        path = DESK[0]
    raw = json.loads(path.read_text())
    with contextlib.ExitStack() as stack:
        tmp = Path(stack.enter_context(tempfile.TemporaryDirectory()))
        raw["output_dir"] = str(tmp / "out")
        for kind, key, value in mutations:
            if kind == "set":
                raw[key] = value
            elif kind == "mesh" and isinstance(raw.get("mesh"), dict):
                raw["mesh"][key] = value
            elif kind == "drop":
                raw.pop(key, None)
            elif kind == "unwritable":
                (tmp / "file").write_text("")
                raw["output_dir"] = str(tmp / "file" / "out")
        config = tmp / "config.json"
        config.write_text(json.dumps(raw))
        mp = stack.enter_context(pytest.MonkeyPatch.context())
        mp.chdir(tmp)  # an overridden relative output_dir lands here
        for module in (cli, studies):
            mp.setattr(module, "make_stepper", _StillStepper)
        mp.setattr(cli, "factor_bytes", lambda fact: 0)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command[0], str(config), *command[1:],
                         *(f"--set={item}" for item in overrides)])
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2), err.getvalue()
    if code:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    else:
        assert lines == []
