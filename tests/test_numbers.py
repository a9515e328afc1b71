"""scripts/numbers.py: one small case end to end, and how it reports drift."""
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "numbers.py"


def load_script():
    spec = importlib.util.spec_from_file_location("numbers_ledger", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_records_hash_and_peak_of_one_case(tmp_path):
    out = tmp_path / "numbers.json"
    cmd = [sys.executable, str(SCRIPT), "--case", "heat1d-bc-stages", "--out", str(out)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    record = json.loads(out.read_text())
    assert record["blas_threads"] == 1 and list(record["cases"]) == ["heat1d-bc-stages"]
    case = record["cases"]["heat1d-bc-stages"]
    assert len(case["sha256"]) == 64 and case["sha256"][:16] in done.stdout
    assert case["shape"] == [58] and case["dtype"] == "float64"
    # the exact solution is cos(t), uniform in space, at t = 2
    assert abs(case["max_abs"] - abs(math.cos(2.0))) < 1e-6


def test_drift_reports_identical_relative_or_mismatch():
    mod = load_script()
    u = np.linspace(-2.0, 1.0, 7)
    assert mod.describe(mod.drift(u.copy(), u)) == "identical"
    moved = u.copy()
    moved[3] += 1e-14
    assert mod.drift(moved, u) == np.abs(moved - u).max() / 2.0
    assert mod.describe(mod.drift(moved, u)).endswith("of max|u|")
    assert mod.drift(u.astype(complex), u) is None
    assert mod.drift(u[:3], u) is None
