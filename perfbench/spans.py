"""Span recording for the traced benchmark run, and the per-layer metrics.

The traced run rebinds public names at evmfg's module boundaries to
wrappers that record a span (name, start, end, parent) per call. Nothing in
the package itself is edited: ``instrument`` installs the wrappers and puts
the original functions back when it exits, so only the traced process ever
sees them. Spans stay in memory and are written out when the run ends.
Span times are read from the clock of the end-to-end metrics.
"""

from __future__ import annotations

import json
import os
import statistics
from contextlib import contextmanager


class Span:
    __slots__ = ("trace_id", "span_id", "parent", "name", "start", "end", "data")

    def __init__(self, trace_id, span_id, parent, name, start, end=None, data=None):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = end
        self.data = data

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span store; one trace id per benchmark pass."""

    def __init__(self, clock) -> None:
        self.clock = clock  # () -> seconds
        self.spans: list[Span] = []
        self.trace_id = 0
        self._stack: list[Span] = []

    def new_trace(self) -> int:
        self.trace_id += 1
        return self.trace_id

    def open(self, name: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(self.trace_id, len(self.spans), parent, name, self.clock())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack.pop()

    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    def trace(self, trace_id: int) -> list[Span]:
        return [s for s in self.spans if s.trace_id == trace_id]

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for s in self.spans:
                handle.write(json.dumps([s.trace_id, s.span_id, s.parent, s.name, s.start, s.end]) + "\n")


def _wrap(tracer: Tracer, name: str, fn, measure=None):
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if measure is not None:
            span.data = measure(args, kwargs, result)
        return result

    return wrapper


def _file_bytes(args, kwargs, result) -> int:
    return os.path.getsize(args[0])


def _export_bytes(args, kwargs, result) -> int:
    return sum(os.path.getsize(os.path.join(args[3], name)) for name in result)


def _slice_cells(operands: int):
    # (cells, computed bytes): the input slices and the output are float64.
    def measure(args, kwargs, result) -> tuple[int, int]:
        cells = int(args[0].size)
        return cells, 8 * cells * operands

    return measure


def _dp_evals(args, kwargs, result) -> int:
    mdp = args[0]
    if hasattr(mdp, "states"):
        return mdp.tgrid.n_steps * len(mdp.states) * len(mdp.actions)
    return (mdp.tgrid.n_steps * len(mdp.states1) * len(mdp.states2)
            * len(mdp.actions1) * len(mdp.actions2))


def _agent_steps(args, kwargs, result) -> int:
    return kwargs["n_agents"] * args[3].n_steps


def _solution(args, kwargs, result) -> tuple[int, list[float]]:
    return result.iterations, list(result.residuals)


def _substep_counter(tracer: Tracer, fn):
    def wrapper(*args, **kwargs):
        n = fn(*args, **kwargs)
        span = tracer.current()
        if span is not None:
            total, worst = span.data or (0, 0)
            span.data = (total + n, max(worst, n))
        return n

    return wrapper


def _targets(tracer: Tracer):
    """(module, attribute, replacement) for every rebinding of the traced run."""
    import evmfg.cli as cli
    import evmfg.ev as ev
    import evmfg.phev as phev
    import evmfg.scenario as scenario
    import evmfg.solver as solver

    plan = [
        (scenario, "build_problem", "scenario.build", None),
        (cli, "build_problem", "scenario.build", None),
        (scenario, "export_results", "scenario.export", _export_bytes),
        (cli, "read_field_csv", "scenario.read", _file_bytes),
        (cli, "read_series_csv", "scenario.read", _file_bytes),
        (solver, "solve_mfe", "solver.solve", _solution),
        (cli, "verify_solution", "solver.verify_solution", None),
        (cli, "dp_best_response", "oracle.dp", _dp_evals),
        (cli, "mc_population", "oracle.mc", _agent_steps),
        (ev, "ev_price", "ev.price", None),
        (ev, "hjb_backward_sweep", "ev.hjb", None),
        (ev, "optimal_control", "ev.control", None),
        (ev, "fpk_forward_sweep", "ev.fpk", None),
        (phev, "phev_price", "phev.price", None),
        (phev, "phev_hjb_backward_sweep", "phev.hjb", None),
        (phev, "phev_optimal_controls", "phev.control", None),
        (phev, "phev_fpk_forward_sweep", "phev.fpk", None),
    ]
    for module in (ev, phev):
        for attr in ("diff_central", "diff_upwind", "diff2"):
            if hasattr(module, attr):
                operands = 3 if attr == "diff_upwind" else 2  # upwind also reads the drift
                plan.append((module, attr, "numerics.diff", _slice_cells(operands)))
    for module, attr, name, measure in plan:
        yield module, attr, _wrap(tracer, name, getattr(module, attr), measure)
    for module in (ev, phev):
        yield module, "substep_count", _substep_counter(tracer, module.substep_count)


@contextmanager
def instrument(tracer: Tracer):
    """Rebind the traced names for the duration of the block."""
    saved = []
    try:
        for module, attr, replacement in list(_targets(tracer)):
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, replacement)
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the durations of its child spans.

    Spans nest: a child closes before its parent and siblings run one after
    another, so the children's durations are the time they cover.
    """
    result = {s.span_id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            result[s.parent] -= s.duration
    return result


def _descendants(spans: list[Span], root: Span) -> list[Span]:
    inside = {root.span_id}
    out = []
    for s in spans:  # spans are stored in opening order, parents first
        if s.parent in inside:
            inside.add(s.span_id)
            out.append(s)
    return out


LAYER_UNITS = {
    "scenario.build_s": "s",
    "scenario.export_s": "s",
    "scenario.export_mb": "MB",
    "scenario.read_s": "s",
    "scenario.read_mb": "MB",
    "solver.iterations": "count",
    "solver.contraction": "1",
    "solver.final_pass_s": "s",
    "solver.verify_solution_s": "s",
    "ev.hjb_s": "s",
    "ev.fpk_s": "s",
    "ev.control_s": "s",
    "ev.price_s": "s",
    "ev.hjb_ms_per_call": "ms",
    "ev.fpk_ms_per_call": "ms",
    "ev.hjb_substeps": "count",
    "ev.fpk_substeps": "count",
    "ev.hjb_max_substeps": "count",
    "ev.fpk_max_substeps": "count",
    "phev.hjb_s": "s",
    "phev.fpk_s": "s",
    "phev.control_s": "s",
    "phev.price_s": "s",
    "phev.hjb_substeps": "count",
    "phev.fpk_substeps": "count",
    "numerics.calls": "count",
    "numerics.us_per_call": "us",
    "numerics.cells_per_call": "cells",
    "numerics.bytes_computed": "B",
    "oracle.dp_s": "s",
    "oracle.dp_evals": "count",
    "oracle.mc_s": "s",
    "oracle.mc_agent_steps_per_s": "1/s",
    "trace.overhead_s": "s",
}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures of one traced pass (``trace.overhead_s`` excluded).

    Model-layer figures (``ev.*``, ``phev.*``) count only work inside the
    solve; a model the workload does not use reads 0.
    """
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name: str) -> float:
        return sum(s.duration for s in by_name.get(name, []))

    def data_sum(name: str) -> float:
        return sum(s.data for s in by_name.get(name, []))

    solve = by_name["solver.solve"][-1]
    iterations, residuals = solve.data
    in_solve = _descendants(spans, solve)
    self_t = self_times(spans)
    model = [s for s in in_solve if s.parent == solve.span_id]
    last_fpk_end = max(s.end for s in model if s.name.endswith(".fpk"))
    ratios = [b / a for a, b in zip(residuals, residuals[1:]) if a > 0.0]
    diffs = by_name.get("numerics.diff", [])
    n_calls = len(diffs)
    builds = by_name["scenario.build"]

    out = {
        "scenario.build_s": total("scenario.build") / len(builds),
        "scenario.export_s": total("scenario.export"),
        "scenario.export_mb": data_sum("scenario.export") / 1e6,
        "scenario.read_s": total("scenario.read"),
        "scenario.read_mb": data_sum("scenario.read") / 1e6,
        "solver.iterations": float(iterations),
        "solver.contraction": statistics.median(ratios) if ratios else 0.0,
        "solver.final_pass_s": sum(s.duration for s in model if s.start >= last_fpk_end),
        "solver.verify_solution_s": total("solver.verify_solution"),
        "numerics.calls": float(n_calls),
        "numerics.us_per_call": 1e6 * total("numerics.diff") / n_calls if n_calls else 0.0,
        "numerics.cells_per_call": sum(s.data[0] for s in diffs) / n_calls if n_calls else 0.0,
        "numerics.bytes_computed": float(sum(s.data[1] for s in diffs)),
        "oracle.dp_s": total("oracle.dp"),
        "oracle.dp_evals": data_sum("oracle.dp"),
        "oracle.mc_s": total("oracle.mc"),
    }
    mc_s = out["oracle.mc_s"]
    out["oracle.mc_agent_steps_per_s"] = data_sum("oracle.mc") / mc_s if mc_s > 0.0 else 0.0
    for model_name in ("ev", "phev"):
        for op in ("hjb", "fpk", "control", "price"):
            calls = [s for s in in_solve if s.name == f"{model_name}.{op}"]
            out[f"{model_name}.{op}_s"] = float(sum(self_t[s.span_id] for s in calls))
            if op in ("hjb", "fpk"):
                steps = [s.data for s in calls if s.data]
                out[f"{model_name}.{op}_substeps"] = float(sum(t for t, _ in steps))
                if model_name == "ev":
                    busy = sum(s.duration for s in calls)
                    out[f"ev.{op}_ms_per_call"] = 1e3 * busy / len(calls) if calls else 0.0
                    out[f"ev.{op}_max_substeps"] = float(max((w for _, w in steps), default=0))
    return out
