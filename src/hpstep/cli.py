"""Command line front end: run experiments, sweep an axis, verify.

Configs are JSON files; see `RunConfig` for the accepted fields. Every
invocation that writes output also writes a `manifest.json` carrying
the full normalized config and the code and library versions, so any
CSV can be traced back to what produced it; `run` adds the worst 1-norm
condition number of the factorization's inverted blocks.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import fit_rate, max_error, richardson, richardson_errors
from .problems import PROBLEMS, TransientCase, make_stepper, resolution_step_count
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
    "resolution", the step that tracks h**(p/q_rk). `threads` is
    validated and accepted for existing configs but has no effect.
    """

    experiment: str
    mesh: dict
    formulation: str | None = None
    q_rk: int | None = None
    dt: float | None = None
    dt_rule: str | None = None
    t_end: float | None = None
    output_dir: str = "runs"
    threads: int = 1

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
        if not _is_int(self.threads) or self.threads < 1:
            raise ConfigError("threads: expected a positive integer")

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
        return self.q_rk if self.q_rk is not None else case.defaults.get("order", 3)

    def resolve_steps(self, case: TransientCase) -> int:
        """Whole number of steps covering [0, t_end]."""
        if self.dt_rule == "resolution":
            return resolution_step_count(case, self.resolve_order(case))
        dt = self.dt if self.dt is not None else case.defaults.get("dt")
        if dt is None:
            raise ConfigError(
                f"dt: experiment {self.experiment!r} has no default step; "
                "give dt or dt_rule"
            )
        return max(1, round(case.t_end / dt))


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


def write_manifest(
    out: Path, cfg: RunConfig, command: str, files: list[str], condition: float | None = None
) -> None:
    import scipy

    manifest = {
        "command": command,
        "config": cfg.to_dict(),
        "versions": {
            "artifact": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "files": files,
    }
    if condition is not None:
        manifest["condition"] = condition
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


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, columns, rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(c)) for c in columns])


def _run_once(
    cfg: RunConfig, case: TransientCase, steps: int
) -> tuple[dict, np.ndarray]:
    """One timed run; errors only where the case knows its solution."""
    dt = case.t_end / steps
    order = cfg.resolve_order(case)
    formulation = cfg.formulation or case.defaults.get("formulation", "slopes")
    t0 = time.perf_counter()
    stepper = make_stepper(case, dt, order=order, formulation=formulation)
    t1 = time.perf_counter()
    u = stepper.run(0.0, case.u0, steps)
    t2 = time.perf_counter()
    row = {
        "experiment": cfg.experiment,
        "q_rk": order,
        "formulation": formulation,
        "n1": case.mesh.n1,
        "n2": case.mesh.n2,
        "p": case.mesh.p,
        "dt": dt,
        "steps": steps,
        "step_error": None,
        "final_error": None,
        "build_seconds": t1 - t0,
        "step_seconds": t2 - t1,
        "condition": max(stepper.fact.condition.values()),  # manifest only
    }
    if case.exact is not None:
        row["final_error"] = max_error(u, case.mesh, exact=case.exact, t=case.t_end)
        u1 = stepper.step(0.0, case.u0)
        row["step_error"] = max_error(u1, case.mesh, exact=case.exact, t=dt)
    return row, u


def cmd_run(cfg: RunConfig) -> Path:
    case = cfg.build_case()
    steps = cfg.resolve_steps(case)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    row, u = _run_once(cfg, case, steps)
    _write_csv(out / "results.csv", RESULT_COLUMNS, [row])
    write_snapshot(out / "snapshot_initial.npz", case.mesh, case.u0, 0.0)
    write_snapshot(out / "snapshot_final.npz", case.mesh, u, case.t_end)
    write_manifest(
        out,
        cfg,
        "run",
        ["results.csv", "snapshot_initial.npz", "snapshot_final.npz"],
        condition=row["condition"],
    )
    err = row["final_error"]
    print(f"{cfg.experiment}: {steps} steps of {row['dt']:.6g} done", end="")
    print(f", final error {err:.3e}" if err is not None else "")
    return out


def _series_rows(label: str, axis: str, values, errors, fit_values=None) -> list[dict]:
    """Data rows plus one summary row; the rate cell stays empty when
    fewer than two points carry an error. `fit_values` must grow with
    refinement (step counts for a dt axis, where the dt values shrink)."""
    rows = [
        {"series": label, "axis": axis, "value": v, "error": e}
        for v, e in zip(values, errors)
    ]
    fv = fit_values if fit_values is not None else values
    usable = [(f, e) for f, e in zip(fv, errors) if e is not None]
    rate = None
    if len(usable) >= 2:
        ns = np.array([f for f, _ in usable], dtype=float)
        es = np.array([e for _, e in usable], dtype=float)
        rate = fit_rate(ns, es).rate
    rows.append({"series": label, "axis": axis, "rate": rate})
    return rows


def _sweep_dt(cfg: RunConfig, points: int) -> list[dict]:
    case = cfg.build_case()
    base = cfg.resolve_steps(case)
    counts = [base * 2**i for i in range(points)]
    errors, fields = [], []
    for count in counts:
        row, u = _run_once(cfg, case, count)
        errors.append(row["final_error"])
        fields.append(u)
    if case.exact is None:
        # no closed form: difference each run against one extra halving
        row, ref = _run_once(cfg, case, counts[-1] * 2)
        errors = [float(np.abs(f - ref).max()) for f in fields]
    values = [case.t_end / c for c in counts]
    return _series_rows(
        f"{cfg.experiment}-dt", "dt", values, errors, fit_values=counts
    )


def _sweep_leaf_size(cfg: RunConfig, points: int) -> list[dict]:
    base = cfg.mesh["n1"]
    panel_counts = [base * 2**i for i in range(points)]
    runs = []
    for n_panels in panel_counts:
        sub = RunConfig.from_dict(
            {
                **cfg.to_dict(),
                "mesh": {"n1": n_panels, "n2": 0 if cfg.mesh["n2"] == 0 else n_panels,
                         "p": cfg.mesh["p"]},
            }
        )
        case = sub.build_case()
        row, u = _run_once(sub, case, sub.resolve_steps(case))
        runs.append((n_panels, case, u, row["final_error"]))
    if runs[0][1].exact is not None:
        errors = [err for _, _, _, err in runs]
    else:
        # difference coarser meshes against the finest one
        ref_case, ref_u = runs[-1][1], runs[-1][2]
        errors = [
            max_error(u, case.mesh, reference=(ref_case.mesh, ref_u))
            for _, case, u, _ in runs[:-1]
        ] + [None]
    return _series_rows(
        f"{cfg.experiment}-leaves", "leaf-size", panel_counts, errors
    )


def _sweep_extrapolation(cfg: RunConfig, points: int) -> tuple[list[dict], list[dict]]:
    case = cfg.build_case()
    if case.exact is None:
        raise ConfigError(
            "axis: extrapolation-level needs an experiment with a known "
            "solution (heat1d-bc or schrodinger-harmonic)"
        )
    order = cfg.resolve_order(case)
    base = cfg.resolve_steps(case)
    counts = [base * 2**i for i in range(points)]
    finals = []
    for count in counts:
        _, u = _run_once(cfg, case, count)
        finals.append(u)
    table = richardson(finals, order)
    exact = case.exact(case.t_end, case.mesh.x, case.mesh.y)
    errs = richardson_errors(table, exact)
    raw = [row[0] for row in errs]
    rows = _series_rows(f"{cfg.experiment}-extrapolation", "level", counts, raw)
    columns = ["level", "steps"] + [f"extrap_{k}" for k in range(points)]
    table_rows = []
    for i, row in enumerate(errs):
        rec = {"level": i, "steps": counts[i]}
        for k, e in enumerate(row):
            rec[f"extrap_{k}"] = e
        table_rows.append(rec)
    return rows, (columns, table_rows)


def cmd_sweep(cfg: RunConfig, axis: str, points: int) -> Path:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = [f"sweep_{axis}.csv"]
    extrap = None
    if axis == "dt":
        rows = _sweep_dt(cfg, points)
    elif axis == "leaf-size":
        rows = _sweep_leaf_size(cfg, points)
    else:
        rows, extrap = _sweep_extrapolation(cfg, points)
    _write_csv(out / f"sweep_{axis}.csv", SWEEP_COLUMNS, rows)
    if extrap is not None:
        columns, table_rows = extrap
        _write_csv(out / "extrapolation_table.csv", columns, table_rows)
        files.append("extrapolation_table.csv")
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
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify()
        cfg = load_config(args.config, args.overrides)
        if args.command == "run":
            cmd_run(cfg)
        else:
            if args.points < 1:
                raise ConfigError("points: must be at least 1")
            cmd_sweep(cfg, args.axis, args.points)
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
