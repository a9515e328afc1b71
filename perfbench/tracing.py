"""Layer spans recorded from outside the program.

Every span is opened by a wrapper that the benchmark assigns over a
module or instance attribute of `hpstep`; nothing inside the package is
changed. Spans nest through a stack, so a span's self time is its
duration minus the part its direct child spans cover.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import hpstep.solver
import hpstep.stepping


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._child: dict[int, float] = defaultdict(float)

    def wrap(self, name, fn, after=None):
        """`fn` inside a span `name`; `after(result, args, kwargs)` runs
        outside the span, for counters derived from the call."""

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent))
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
                if parent >= 0:
                    self._child[parent] += end - start
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def busy(self, name: str) -> float:
        return sum(e - s for n, s, e, _ in self.spans if n == name)

    def self_time(self, name: str) -> float:
        return sum(
            e - s - self._child[i]
            for i, (n, s, e, _) in enumerate(self.spans)
            if n == name
        )

    def calls(self, name: str) -> int:
        return sum(1 for n, *_ in self.spans if n == name)

    def durations(self, name: str) -> np.ndarray:
        return np.array([e - s for n, s, e, _ in self.spans if n == name])


def stored_bytes(obj, skip=()) -> int:
    """Bytes of every distinct array reachable from `obj`, computed from
    array sizes; objects in `skip` and everything below them are left out."""
    seen = {id(s) for s in skip}
    bases: set[int] = set()
    total = 0
    stack = [obj]
    while stack:
        o = stack.pop()
        if id(o) in seen:
            continue
        seen.add(id(o))
        if isinstance(o, np.ndarray):
            base = o
            while isinstance(base.base, np.ndarray):
                base = base.base
            if id(base) not in bases:
                bases.add(id(base))
                total += base.nbytes
        elif isinstance(o, (list, tuple)):
            stack.extend(o)
        elif isinstance(o, dict):
            stack.extend(o.values())
        elif hasattr(o, "__dict__"):
            stack.extend(vars(o).values())
    return total


@contextmanager
def traced_setup(tracer: Tracer):
    """Wrap the factorization entry points while a solver is built.

    `build_leaf_operators` is wrapped as `build_factorization` sees it,
    and `build_factorization` as the stepper and this benchmark see it.
    """
    def leaves(result, args, kwargs):
        mesh = args[0]
        tracer.counts["operators.leaves_factored"] += 1 if result.shared else mesh.n_leaves

    def factorization(fact, args, kwargs):
        tracer.counts["solver.merges"] += fact.mesh.n_leaves - 1
        tracer.counts["solver.factor_bytes"] += stored_bytes(
            fact, skip=(fact.mesh, fact.op, fact.leaf_ops)
        )

    saved = (
        hpstep.solver.build_leaf_operators,
        hpstep.solver.build_factorization,
        hpstep.stepping.build_factorization,
    )
    build = tracer.wrap("solver.factor", saved[1], after=factorization)
    hpstep.solver.build_leaf_operators = tracer.wrap(
        "operators.leaf_factor", saved[0], after=leaves
    )
    hpstep.solver.build_factorization = build
    hpstep.stepping.build_factorization = build
    try:
        yield
    finally:
        (
            hpstep.solver.build_leaf_operators,
            hpstep.solver.build_factorization,
            hpstep.stepping.build_factorization,
        ) = saved


def trace_factorization(tracer: Tracer, fact) -> None:
    """Wrap one factorization's `solve` on the instance."""

    def columns(result, args, kwargs):
        rhs = args[0] if args else kwargs.get("load")
        if rhs is None:
            rhs = args[1] if len(args) > 1 else kwargs.get("dirichlet")
        tracer.counts["solver.solve_columns"] += 1 if rhs is None or np.ndim(rhs) == 1 else len(rhs)

    fact.solve = tracer.wrap("solver.solve", fact.solve, after=columns)


def trace_stepper(tracer: Tracer, stepper) -> None:
    """Wrap the per-step entry points of a built stepper on its instances."""
    stepper.step = tracer.wrap("stepping.step", stepper.step)
    trace_factorization(tracer, stepper.fact)
    applier = stepper.applier
    applier.interior_apply = tracer.wrap("operators.apply", applier.interior_apply)
    if stepper.completer is not None:
        completer = stepper.completer
        completer.complete = tracer.wrap("stepping.complete", completer.complete)
    evo = stepper.evo
    for name in ("bc", "bc_rate", "forcing"):
        fn = getattr(evo, name)
        if fn is not None:
            setattr(evo, name, tracer.wrap("stepping.sample", fn))
    if evo.explicit is not None:
        evo.explicit = tracer.wrap("operators.explicit", evo.explicit)


def layer_metrics(tracer: Tracer, solutions: int) -> dict[str, float]:
    """Per-layer busy seconds and counts, per traced solution."""
    per = 1.0 / solutions
    solve_ms = tracer.durations("solver.solve") * 1e3
    return {
        "operators.leaf_factor_s": tracer.busy("operators.leaf_factor") * per,
        "operators.leaf_factor_calls": tracer.calls("operators.leaf_factor") * per,
        "operators.leaves_factored": tracer.counts["operators.leaves_factored"] * per,
        "solver.merge_factor_s": tracer.self_time("solver.factor") * per,
        "solver.merges": tracer.counts["solver.merges"] * per,
        "solver.factor_bytes": tracer.counts["solver.factor_bytes"] * per,
        "solver.solve_s": tracer.busy("solver.solve") * per,
        "solver.solve_calls": tracer.calls("solver.solve") * per,
        "solver.solve_columns": tracer.counts["solver.solve_columns"] * per,
        "solver.solve_ms.p50": float(np.percentile(solve_ms, 50)) if solve_ms.size else 0.0,
        "solver.solve_ms.p90": float(np.percentile(solve_ms, 90)) if solve_ms.size else 0.0,
        "operators.apply_s": tracer.busy("operators.apply") * per,
        "operators.apply_calls": tracer.calls("operators.apply") * per,
        "operators.explicit_s": tracer.busy("operators.explicit") * per,
        "operators.explicit_calls": tracer.calls("operators.explicit") * per,
        "stepping.complete_s": tracer.busy("stepping.complete") * per,
        "stepping.complete_calls": tracer.calls("stepping.complete") * per,
        "stepping.sample_s": tracer.busy("stepping.sample") * per,
        "stepping.sample_calls": tracer.calls("stepping.sample") * per,
        "stepping.step_s": tracer.busy("stepping.step") * per,
        "stepping.step_self_s": tracer.self_time("stepping.step") * per,
    }
