"""Config handling, output formats and the small command flows."""
import contextlib
import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpstep.cli import (
    FORMULATIONS,
    RESULT_COLUMNS,
    SWEEP_COLUMNS,
    ConfigError,
    RunConfig,
    cmd_run,
    cmd_sweep,
    load_config,
    main,
)
from hpstep.analysis import max_error
from hpstep.problems import PROBLEMS, make_stepper


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
    assert set(manifest["versions"]) == {"artifact", "python", "numpy", "scipy"}


def test_run_manifest_reports_condition(tmp_path):
    config = CONFIG_DIR / "burgers-rotating-desk.json"
    cfg = load_config(str(config), ["t_end=0.05", "output_dir=" + str(tmp_path / "out")])
    manifest = json.loads((cmd_run(cfg) / "manifest.json").read_text())
    assert np.isfinite(manifest["condition"]) and manifest["condition"] >= 1


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


def test_main_rejects_bad_config_with_exit_code(tmp_path, capsys):
    path = heat_config(tmp_path, experiment="nope")
    assert main(["run", str(path)]) == 2
    assert "experiment" in capsys.readouterr().err


def test_main_verify_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "57/57 checks passed" in out
    assert "FAIL" not in out
