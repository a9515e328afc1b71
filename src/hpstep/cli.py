"""Command line front end: run experiments, sweep an axis, verify,
reproduce the paper's desk-scale claims.

Configs are JSON files; see `RunConfig` for the accepted fields. A sweep
is one `studies.resolution_series` call (one `studies.extrapolation_table`
for the extrapolation axis) whose `Series` is written out unchanged. Every
invocation that writes output also writes a `manifest.json` carrying
the full normalized config and the code and library versions, so any
CSV can be traced back to what produced it; `run` adds the worst 1-norm
condition number of the factorization's inverted blocks and the bytes of
every array it stores (`solver.factor_bytes`). The output directory is
made when the first file is written, so a run or sweep that fails
before it, or in a write, leaves none behind; an output directory that
could not be written is refused before the build. `reproduce` writes
no files: it prints one `criterion N: <json>` line per entry of
`studies.CLAIMS`.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import max_error
from .problems import PROBLEMS, TransientCase, make_stepper, resolution_step_count
from .solver import factor_bytes
from .studies import CLAIMS, Series, advance, extrapolation_table, fit_series, resolution_series
from .verification import oracle_equivalence_report, tableau_report

FORMULATIONS = ("slopes", "stages")
AXES = ("dt", "leaf-size", "extrapolation-level")
RESULT_COLUMNS = (
    "experiment",
    "q_rk",
    "formulation",
    "n1",
    "n2",
    "p",
    "dt",
    "steps",
    "step_error",
    "final_error",
    "build_seconds",
    "step_seconds",
)
SWEEP_COLUMNS = ("series", "axis", "value", "error", "rate")
# the most steps a run or sweep point may plan; the shipped configs plan at most 400
MAX_STEPS = 10**7
# the most nodes along one axis of a mesh, n1 leaves of p: 2**48 nodes in 2D
# are 2 PB per float array, beyond any memory but within numpy's size limit
MAX_AXIS_NODES = 2**24


class ConfigError(ValueError):
    """Raised with the offending field name in the message."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_positive_number(value) -> bool:
    # the upper bound rejects inf and ints beyond float range; nan fails both
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return number and 0 < value <= sys.float_info.max


@dataclass
class RunConfig:
    """Declarative description of one experiment run.

    `dt` and `dt_rule` are mutually exclusive; with neither, the
    experiment's default step is used. `dt_rule` currently knows
    "resolution", the step that tracks h**(p/q_rk).
    """

    experiment: str
    mesh: dict
    formulation: str | None = None
    q_rk: int | None = None
    dt: float | None = None
    dt_rule: str | None = None
    t_end: float | None = None
    output_dir: str = "runs"

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        known = {f for f in cls.__dataclass_fields__}
        for key in raw:
            if key not in known:
                raise ConfigError(f"{key}: unknown config field")
        if "experiment" not in raw:
            raise ConfigError("experiment: required")
        if "mesh" not in raw:
            raise ConfigError("mesh: required")
        cfg = cls(**raw)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if not isinstance(self.experiment, str) or self.experiment not in PROBLEMS:
            raise ConfigError(
                f"experiment: unknown name {self.experiment!r}; "
                f"choose from {', '.join(sorted(PROBLEMS))}"
            )
        if not isinstance(self.mesh, dict):
            raise ConfigError("mesh: expected an object with n1, n2, p")
        for key in ("n1", "n2", "p"):
            if key not in self.mesh:
                raise ConfigError(f"mesh.{key}: required")
            if not _is_int(self.mesh[key]):
                raise ConfigError(f"mesh.{key}: expected an integer")
        extra = set(self.mesh) - {"n1", "n2", "p"}
        if extra:
            raise ConfigError(f"mesh.{sorted(extra)[0]}: unknown mesh field")
        if self.mesh["n1"] < 1:
            raise ConfigError("mesh.n1: need at least one leaf")
        if self.mesh["p"] < 4:
            raise ConfigError("mesh.p: need at least 4 nodes per leaf side")
        if self.mesh["n1"] * self.mesh["p"] > MAX_AXIS_NODES:
            raise ConfigError(f"mesh: n1 * p is more than {MAX_AXIS_NODES} nodes along an axis")
        if self.formulation is not None and self.formulation not in FORMULATIONS:
            raise ConfigError(
                f"formulation: {self.formulation!r} not in {FORMULATIONS}"
            )
        if self.q_rk is not None and not (_is_int(self.q_rk) and self.q_rk in (3, 4, 5)):
            raise ConfigError("q_rk: choose 3, 4 or 5")
        if self.dt_rule is not None and self.dt_rule != "resolution":
            raise ConfigError(f"dt_rule: unknown rule {self.dt_rule!r}")
        if self.dt is not None and self.dt_rule is not None:
            raise ConfigError("dt: give either dt or dt_rule, not both")
        for name in ("dt", "t_end"):
            value = getattr(self, name)
            if value is not None and not _is_positive_number(value):
                raise ConfigError(f"{name}: expected a positive finite number, got {value!r}")
        if not isinstance(self.output_dir, str) or not self.output_dir:
            raise ConfigError("output_dir: expected a non-empty path string")

    def to_dict(self) -> dict:
        return asdict(self)

    def build_case(self) -> TransientCase:
        case = PROBLEMS[self.experiment](n=self.mesh["n1"], p=self.mesh["p"])
        if case.mesh.n1 != self.mesh["n1"] or case.mesh.n2 != self.mesh["n2"]:
            raise ConfigError(
                f"mesh.n2: experiment {self.experiment!r} builds "
                f"{case.mesh.n1}x{case.mesh.n2} meshes; set n1={case.mesh.n1} "
                f"and n2={case.mesh.n2}"
            )
        if self.t_end is not None:
            case.t_end = float(self.t_end)
        return case

    def resolve_order(self, case: TransientCase) -> int:
        return self.q_rk if self.q_rk is not None else case.order

    def resolve_steps(self, case: TransientCase, doublings: int = 0) -> int:
        """Whole number of steps covering [0, t_end], doubled `doublings`
        times; refused above MAX_STEPS, as such a run would not finish."""
        dt = self.dt if self.dt is not None else case.dt
        if dt is None and self.dt_rule is None:
            raise ConfigError(
                f"dt: experiment {self.experiment!r} has no default step; "
                "give dt or dt_rule"
            )
        try:
            if self.dt_rule == "resolution":
                steps = resolution_step_count(case, self.resolve_order(case)) << doublings
            else:
                steps = max(1, round(case.t_end / dt)) << doublings
        except (OverflowError, ZeroDivisionError):  # t_end / dt is inf, or h**(p/q) is 0
            steps = MAX_STEPS + 1
        if steps > MAX_STEPS:
            raise ConfigError(f"t_end: {case.t_end!r} over dt is more than {MAX_STEPS} steps")
        return steps


def load_config(path: str, overrides=()) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path!r} ({exc.strerror})") from None
    except ValueError as exc:  # bad JSON, bad encoding, oversized integer
        raise ConfigError(f"config: {path} is not valid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ConfigError("config: top level must be an object")
    for item in overrides:
        key, _, text = item.partition("=")
        if not _:
            raise ConfigError(f"override {item!r}: expected key=value")
        try:
            value = json.loads(text)
        except ValueError:
            value = text
        head, _, tail = key.partition(".")
        if tail:
            if not isinstance(raw.setdefault(head, {}), dict):
                raise ConfigError(f"{head}: has no field {tail!r} to override")
            raw[head][tail] = value
        else:
            raw[key] = value
    return RunConfig.from_dict(raw)


def write_manifest(out: Path, cfg: RunConfig, command: str, files: list[str], **facts) -> None:
    """manifest.json: the command, config, versions and files, then
    `facts` (such as `condition`) as extra keys."""
    manifest = {
        "command": command,
        "config": cfg.to_dict(),
        "versions": {
            "artifact": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        "files": files,
        **facts,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def write_snapshot(path: Path, mesh, u: np.ndarray, t: float) -> None:
    """Grid dump with enough header data for external plotting."""
    np.savez(
        path,
        dims=np.array([mesh.n1, mesh.n2], dtype=np.int64),
        p=np.int64(mesh.p),
        domain=np.array(mesh.bounds, dtype=float),
        time=float(t),
        x=mesh.x,
        y=mesh.y if mesh.dim == 2 else np.zeros(0),
        field=np.asarray(u),
    )


def _dir_to_make(path: str) -> Path | None:
    """The first directory that writing into `path` makes, None when it
    is there already. Raises ConfigError unless `path`, or its nearest
    existing ancestor, is a directory this process may write into."""
    at, made = Path(path).absolute(), None
    while not os.path.exists(at):
        at, made = at.parent, at
    if not at.is_dir():
        raise ConfigError(f"output_dir: {at} is not a directory")
    if not os.access(at, os.W_OK | os.X_OK):
        raise ConfigError(f"output_dir: {at} is not writable")
    return made


def _write_csv(path: Path, columns, rows) -> None:
    """One row per dict; a missing or None cell is written empty. Every
    command writes a CSV first, so this makes the output directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, columns)
        writer.writeheader()
        writer.writerows(rows)


def cmd_run(cfg: RunConfig) -> Path:
    """One timed run; errors only where the case knows its solution."""
    case = cfg.build_case()
    steps = cfg.resolve_steps(case)
    dt = case.t_end / steps
    out = Path(cfg.output_dir)
    t0 = time.perf_counter()
    stepper = make_stepper(case, dt, order=cfg.q_rk, formulation=cfg.formulation)
    t1 = time.perf_counter()
    u = stepper.run(0.0, case.u0, steps)
    t2 = time.perf_counter()
    row = {
        "experiment": cfg.experiment,
        "q_rk": cfg.resolve_order(case),
        "formulation": stepper.formulation,
        "n1": case.mesh.n1,
        "n2": case.mesh.n2,
        "p": case.mesh.p,
        "dt": dt,
        "steps": steps,
        "build_seconds": t1 - t0,
        "step_seconds": t2 - t1,
    }
    if case.exact is not None:
        row["final_error"] = max_error(u, case.mesh, exact=case.exact, t=case.t_end)
        u1 = stepper.step(0.0, case.u0)
        row["step_error"] = max_error(u1, case.mesh, exact=case.exact, t=dt)
    _write_csv(out / "results.csv", RESULT_COLUMNS, [row])
    write_snapshot(out / "snapshot_initial.npz", case.mesh, case.u0, 0.0)
    write_snapshot(out / "snapshot_final.npz", case.mesh, u, case.t_end)
    write_manifest(
        out,
        cfg,
        "run",
        ["results.csv", "snapshot_initial.npz", "snapshot_final.npz"],
        condition=max(stepper.fact.condition.values()),
        factor_bytes=factor_bytes(stepper.fact),
    )
    err = row.get("final_error")
    print(f"{cfg.experiment}: {steps} steps of {dt:.6g} done", end="")
    print(f", final error {err:.3e}" if err is not None else "")
    return out


def _series_rows(series: Series, values=None) -> list[dict]:
    """Data rows plus one summary row holding the series' fitted rate,
    empty when it has no fit. `values` replaces the value cells (a dt
    series runs on step counts but writes step sizes)."""
    label, axis = series.label, series.axis
    rows = [
        {"series": label, "axis": axis, "value": v, "error": e}
        for v, e in zip(values or series.values, series.errors)
    ]
    return rows + [{"series": label, "axis": axis, "rate": series.rate}]


def _advance(cfg: RunConfig, case: TransientCase, steps: int):
    """`studies.advance` with the config's order and formulation."""
    return advance(case, steps, order=cfg.q_rk, formulation=cfg.formulation)


def _sweep_dt(cfg: RunConfig, points: int) -> list[dict]:
    """Halve the step; without a known solution, measure against one
    extra halving."""
    case = cfg.build_case()
    counts = [cfg.resolve_steps(case, i) for i in range(points)]
    if case.exact is None:  # the reference run halves the step once more
        cfg.resolve_steps(case, points)
    series = resolution_series(
        f"{cfg.experiment}-dt", "dt", counts, lambda count: _advance(cfg, case, count),
        "exact" if case.exact is not None else "halving", strict=False,
    )
    return _series_rows(series, [case.t_end / c for c in counts])


def _sweep_leaf_size(cfg: RunConfig, points: int) -> list[dict]:
    """Double the panel count per direction; without a known solution,
    measure against the finest mesh."""

    def run(n_panels):
        n2 = n_panels if cfg.mesh["n2"] else 0
        sub = replace(cfg, mesh={**cfg.mesh, "n1": n_panels, "n2": n2})
        case = sub.build_case()
        return _advance(sub, case, sub.resolve_steps(case))

    panel_counts = [cfg.mesh["n1"] * 2**i for i in range(points)]
    reference = "exact" if cfg.build_case().exact is not None else "finest"
    return _series_rows(resolution_series(
        f"{cfg.experiment}-leaves", "leaf-size", panel_counts, run, reference,
        strict=False,
    ))


def _sweep_extrapolation(cfg: RunConfig, points: int, out: Path) -> list[dict]:
    """Halve the step and write the step-doubling extrapolation table."""
    case = cfg.build_case()
    if case.exact is None:
        raise ConfigError(
            "axis: extrapolation-level needs an experiment with a known "
            "solution (heat1d-bc or schrodinger-harmonic)"
        )
    counts = [cfg.resolve_steps(case, i) for i in range(points)]
    errs = extrapolation_table(case, counts, cfg.resolve_order(case), cfg.formulation)
    columns = ["level", "steps"] + [f"extrap_{k}" for k in range(points)]
    table = [dict(zip(columns, [i, c, *row])) for i, (c, row) in enumerate(zip(counts, errs))]
    _write_csv(out / "extrapolation_table.csv", columns, table)
    return _series_rows(fit_series(
        f"{cfg.experiment}-extrapolation", "level", counts,
        [row[0] for row in errs], strict=False,
    ))


def cmd_sweep(cfg: RunConfig, axis: str, points: int) -> Path:
    """Refine one axis `points` times; write the series and its rate."""
    out = Path(cfg.output_dir)
    files = [f"sweep_{axis}.csv"]
    if axis == "dt":
        rows = _sweep_dt(cfg, points)
    elif axis == "leaf-size":
        rows = _sweep_leaf_size(cfg, points)
    else:
        rows = _sweep_extrapolation(cfg, points, out)
        files.append("extrapolation_table.csv")
    _write_csv(out / files[0], SWEEP_COLUMNS, rows)
    write_manifest(out, cfg, f"sweep --axis {axis}", files)
    rate = rows[-1].get("rate")
    tail = f"fitted rate {rate:.2f}" if rate is not None else "rate absent"
    print(f"{cfg.experiment} {axis} sweep: {points} points, {tail}")
    return out


def cmd_verify() -> int:
    checks = oracle_equivalence_report() + tableau_report()
    for check in checks:
        print(check.line())
    bad = sum(not c.ok for c in checks)
    print(f"{len(checks) - bad}/{len(checks)} checks passed")
    return 1 if bad else 0


def claim_line(criterion: int, record: dict) -> str:
    """One claim's record as `hpstep reproduce` prints it."""
    return f"criterion {criterion}: {json.dumps(record)}"


def cmd_reproduce() -> None:
    for criterion, claim in CLAIMS.items():
        print(claim_line(criterion, claim()), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hpstep", description="Spectral multidomain experiment runner."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "sweep"):
        sp = sub.add_parser(name)
        sp.add_argument("config", help="JSON config file")
        sp.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config field (mesh fields as mesh.p=8)",
        )
    sub.choices["sweep"].add_argument("--axis", choices=AXES, required=True)
    sub.choices["sweep"].add_argument(
        "--points", type=int, default=5, help="resolutions per sweep"
    )
    sub.add_parser("verify")
    sub.add_parser("reproduce")
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify()
        if args.command == "reproduce":
            cmd_reproduce()
            return 0
        cfg = load_config(args.config, args.overrides)
        if args.command == "sweep" and args.points < 1:
            raise ConfigError("points: must be at least 1")
        made = _dir_to_make(cfg.output_dir)
        try:
            if args.command == "run":
                cmd_run(cfg)
            else:
                cmd_sweep(cfg, args.axis, args.points)
        except MemoryError as exc:
            mesh = "n1={n1} n2={n2} p={p}".format(**cfg.mesh)
            print(f"error: mesh {mesh} does not fit in memory: {exc}", file=sys.stderr)
            return 1
        except OSError as exc:  # a write failed: what this run made goes
            if made is not None:
                shutil.rmtree(made, ignore_errors=True)
            where, why = exc.filename or cfg.output_dir, exc.strerror or exc
            print(f"error: output_dir: cannot write {where}: {why}", file=sys.stderr)
            return 1
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
