"""Self-tests of the benchmark: `python3 -m pytest perfbench` from the
root of a source checkout."""
from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))


def test_spec_names_units_and_bounds():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    for m in SPEC["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric_and_passes_gates(workload, trace):
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS="1",
        PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
    )
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", "3",
        "--seconds", "0", "--trace", str(trace), "--max-steps", "2",
    ]
    out = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120, check=True)
    report = json.loads(out.stdout.splitlines()[-1])
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"] for m in wanted} <= set(report["metrics"])
    assert report["attempted"] >= 1 and report["failed"] == 0
    if trace:
        assert report["info"]["traced_equals_untraced"] == [True]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_self_time_subtracts_direct_children():
    from tracing import Tracer

    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))

    def body():
        inner()
        inner()

    tracer.wrap("outer", body)()
    assert tracer.calls("inner") == 2 and tracer.calls("outer") == 1
    expect = tracer.busy("outer") - tracer.busy("inner")
    assert tracer.self_time("outer") == pytest.approx(expect, abs=1e-12)


def test_stored_bytes_counts_shared_buffers_once():
    from tracing import stored_bytes

    a = np.zeros(100)
    skipped = np.zeros(1000)
    obj = {"a": a, "view": a[10:], "pair": (a, np.ones(5, dtype=np.int32)), "skip": skipped}
    assert stored_bytes(obj, skip=(skipped,)) == 800 + 20
