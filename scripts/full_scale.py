"""Full-size cross-mesh table of the tilted-well oscillator at t=4, kept
out of the test suite (about 10 s on a 2-core x86 host); its desk-sized
equivalent is criterion 6 of `hpstep.studies.CLAIMS`, which `hpstep
reproduce` prints.

    python scripts/full_scale.py

The full-size Richardson table of the harmonic oscillator is a sweep of
a shipped config, written to runs/harmonic-extrapolation/:

    hpstep sweep configs/harmonic-extrapolation.json --axis extrapolation-level --set formulation=slopes

The full-size flow runs are plain configs, run by the CLI with its own
error handling:

    hpstep run configs/burgers-rotating-full.json
    hpstep run configs/burgers-cross-full.json
"""
import os
import sys

# scripts/numbers.py would shadow the standard `numbers` module, which numpy imports
_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:] = [p for p in sys.path if os.path.abspath(p or os.curdir) != _HERE]

from hpstep.analysis import interval_rates  # noqa: E402 (after the path fix)
from hpstep.studies import asymmetric_self_convergence  # noqa: E402


def main() -> None:
    series = asymmetric_self_convergence(n_steps=100, t_end=4.0)
    print("panels  error        pair rate")
    rates = [""] + [f"{r:.2f}" for r in interval_rates(series.values, series.errors)]
    for n_panels, err, rate in zip(series.values, series.errors, rates):
        print(f"{n_panels:6d}  {err:.3e}  {rate}")


if __name__ == "__main__":
    main()
