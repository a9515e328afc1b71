"""Full-size reproduction runs, kept out of the test suite on purpose.

Each target takes minutes to hours on a workstation; the CI-sized
equivalents live in tests/test_acceptance.py. Pick targets by name or
run them all:

    python scripts/full_scale.py asymmetric-table richardson-table
    python scripts/full_scale.py all
"""
import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

from hpstep.cli import cmd_run, load_config  # noqa: E402
from hpstep.studies import asymmetric_self_convergence, richardson_study  # noqa: E402


def run_config(name: str) -> None:
    cmd_run(load_config(str(ROOT / "configs" / name)))


def asymmetric_table() -> None:
    """Cross-mesh error table at the canonical final time t=4."""
    series = asymmetric_self_convergence(
        panel_counts=(2, 4, 8, 16),
        p=8,
        reference=(16, 10),
        order=5,
        n_steps=100,
        t_end=4.0,
    )
    print("panels  error        pair rate")
    rates = [""] + [f"{r:.2f}" for r in series.extra["pair_rates"]]
    for n_panels, err, rate in zip(series.values, series.errors, rates):
        print(f"{n_panels:6d}  {err:.3e}  {rate}")


def richardson_table() -> None:
    """Extrapolation table for the oscillator on the full box."""
    out = richardson_study(order=3, levels=5, base_steps=40, n=16, p=12, half=8.0)
    print("steps   raw error    best extrapolated")
    for i, count in enumerate(out["step_counts"]):
        print(f"{count:6d}  {out['raw'][i]:.3e}  {out['errors'][i][i]:.3e}")


TARGETS = {
    "burgers-rotating": lambda: run_config("burgers-rotating-full.json"),
    "burgers-cross": lambda: run_config("burgers-cross-full.json"),
    "asymmetric-table": asymmetric_table,
    "richardson-table": richardson_table,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "targets", nargs="+", choices=sorted(TARGETS) + ["all"]
    )
    args = parser.parse_args(argv)
    names = sorted(TARGETS) if "all" in args.targets else args.targets
    for name in names:
        print(f"== {name} ==")
        TARGETS[name]()
    return 0


if __name__ == "__main__":
    sys.exit(main())
