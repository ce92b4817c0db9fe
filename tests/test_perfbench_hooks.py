"""The traced benchmark's hooks into the package.

``perfbench/spans.py`` rebinds names at evmfg's module boundaries by
attribute (sweeps, stencils, ``substep_count``), so moving or renaming one
of them breaks the traced run, which these tests would otherwise not see.
They only read perfbench.
"""

import importlib.util
import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import evmfg
import evmfg.cli
import evmfg.ev
import evmfg.oracle
import evmfg.phev
import evmfg.scenario
import evmfg.solver

ROOT = Path(__file__).resolve().parents[1]
MODULES = (evmfg.cli, evmfg.ev, evmfg.phev, evmfg.scenario, evmfg.solver)


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its dataclasses look the module up while they are built
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


def _spans():
    return _load(ROOT / "perfbench" / "spans.py", "perfbench_spans")


def test_reference_runs_cover_every_benchmark_workload():
    # a refactor is checked by diffing scripts/reference_runs.py output, so
    # that check must run each case the benchmark times, set up the same way
    workloads = _load(ROOT / "perfbench" / "pipeline.py", "perfbench_pipeline").WORKLOADS
    runs = _load(ROOT / "scripts" / "reference_runs.py", "reference_runs").RUNS
    assert workloads
    for name, case in workloads.items():
        assert runs.get(name) == case, name


def test_instrument_rebinds_and_restores_every_name():
    spans = _spans()
    before = [dict(vars(module)) for module in MODULES]
    with spans.instrument(spans.Tracer(lambda: 0.0)):
        rebound = {
            (module.__name__, name)
            for module, saved in zip(MODULES, before)
            for name, value in vars(module).items()
            if saved.get(name) is not value
        }
    for name in ("hjb_backward_sweep", "fpk_forward_sweep", "substep_count", "diff_central"):
        assert ("evmfg.ev", name) in rebound
    # the density sweep's face flux left no stencil in the package for the trace to rebind
    assert not any(name in ("diff_upwind", "diff2") for _, name in rebound)
    for name in ("phev_hjb_backward_sweep", "phev_fpk_forward_sweep", "substep_count"):
        assert ("evmfg.phev", name) in rebound
    for module, saved in zip(MODULES, before):
        assert vars(module).keys() == saved.keys()
        assert all(vars(module)[name] is value for name, value in saved.items()), module.__name__


def test_traced_phev_solve_counts_its_substeps_and_stencils():
    # the phev sweeps run in the shared core in ev: their substeps must land
    # in the phev spans; both sweeps take their differences inline, so no
    # numerics.diff span opens
    spans = _spans()
    config = evmfg.apply_overrides(evmfg.load_scenario("phev_flat"), ["space.cells=[8,8]", "time_steps=12"])
    problem, options, _ = evmfg.build_problem(config)
    tracer = spans.Tracer(lambda: 0.0)
    with spans.instrument(tracer):
        evmfg.solve_mfe(problem, options)
    names = {span.name for span in tracer.spans}
    assert "ev.hjb" not in names and "ev.fpk" not in names
    for name in ("phev.hjb", "phev.fpk"):
        steps = [span.data[0] for span in tracer.spans if span.name == name and span.data]
        assert steps and np.sum(steps) >= problem.tgrid.n_steps
    assert "numerics.diff" not in names


def test_traced_ev_solve_puts_stencil_spans_inside_the_density_sweep_only():
    # the traced numerics.* figures were read from stencil spans inside the
    # density sweep; its substep is now one face flux, inline as the value
    # sweep's Hamiltonian is, so neither sweep opens a span below its own
    spans = _spans()
    config = evmfg.apply_overrides(evmfg.load_scenario("ev_weekend"), ["time_steps=24", "space.cells=40"])
    problem, options, _ = evmfg.build_problem(config)
    tracer = spans.Tracer(lambda: 0.0)
    with spans.instrument(tracer):
        evmfg.solve_mfe(problem, options)
    name_of = {span.span_id: span.name for span in tracer.spans}
    parents = {name_of[span.parent] for span in tracer.spans if span.parent is not None}
    assert not parents & {"ev.fpk", "ev.hjb"}
    assert "numerics.diff" not in name_of.values()
    for name in ("ev.hjb", "ev.fpk"):
        steps = [span.data[0] for span in tracer.spans if span.name == name and span.data]
        assert steps and np.sum(steps) >= problem.tgrid.n_steps


@pytest.mark.parametrize(
    "scenario, sets, model",
    [
        ("phev_flat", ["space.cells=[8,8]", "time_steps=12"], "phev"),
        ("ev_weekend", ["time_steps=24", "space.cells=40"], "ev"),
    ],
)
def test_traced_solve_gives_layer_metrics_and_the_untraced_bits(scenario, sets, model):
    # a traced benchmark pass reads every layer figure from these spans, and
    # exports what the untraced pass does: being traced changes no bit
    spans = _spans()
    config = evmfg.apply_overrides(evmfg.load_scenario(scenario), sets)
    ticks = itertools.count()
    tracer = spans.Tracer(lambda: float(next(ticks)))
    with spans.instrument(tracer):
        problem, options, _ = evmfg.scenario.build_problem(config)
        traced = evmfg.solver.solve_mfe(problem, options)
    metrics = spans.layer_metrics(tracer.spans)
    assert set(metrics) == set(spans.LAYER_UNITS) - {"trace.overhead_s"}
    assert metrics[f"{model}.hjb_substeps"] > 0 and metrics[f"{model}.fpk_substeps"] > 0
    # no stencil spans: the numerics.* figures read 0 until the benchmark restates them
    assert not any(span.name == "numerics.diff" for span in tracer.spans)
    assert metrics["numerics.calls"] == 0.0 and metrics["numerics.bytes_computed"] == 0.0
    problem, options, _ = evmfg.scenario.build_problem(config)
    untraced = evmfg.solver.solve_mfe(problem, options)
    for name in ("v", "m", "p"):
        assert np.array_equal(getattr(traced, name), getattr(untraced, name)), name
    assert len(traced.alpha) == len(untraced.alpha)
    assert all(np.array_equal(a, b) for a, b in zip(traced.alpha, untraced.alpha))


def _unequal_axes_mdp(params, price, n_states):
    # 5 x 4 states and 7 x 3 actions, so a swapped or squared axis length miscounts
    states = ((np.arange(5) + 0.5) / 5, (np.arange(4) + 0.5) / 4)
    actions = (np.linspace(-1.0, 1.0, 7), np.linspace(-1.0, 1.0, 3))
    return evmfg.oracle.LatticeMdp(lattices=(states, actions), params=params, price=price)


@pytest.mark.parametrize(
    "run, make_mdp",
    [("ev_run", evmfg.ev_mdp), ("phev_run", evmfg.phev_mdp), ("phev_run", _unequal_axes_mdp)],
)
def test_dp_evals_counts_every_step_state_and_action(run, make_mdp, request):
    # oracle.dp_evals reads the MDP's fields by name; it must count what the
    # induction enumerates: every step, state and action of the lattices
    spans = _spans()
    bundled = request.getfixturevalue(run)
    problem = bundled["problem"]
    mdp = make_mdp(problem.params, bundled["solution"].p, n_states=4)
    states, actions = mdp.lattices
    expected = mdp.tgrid.n_steps * math.prod(map(len, states)) * math.prod(map(len, actions))
    assert spans._dp_evals((mdp,), {}, None) == expected


def test_traced_oracle_counts_agent_steps(ev_run, ev_run_dir):
    # oracle.mc_agent_steps_per_s reads n_agents and the time grid from the
    # arguments of the oracle's mc_population call
    spans = _spans()
    tracer = spans.Tracer(lambda: 0.0)
    with spans.instrument(tracer):
        evmfg.cli.main(["oracle", str(ev_run_dir), "--states", "4", "--agents", "1000"])
    (mc,) = [span for span in tracer.spans if span.name == "oracle.mc"]
    assert mc.data == 1000 * ev_run["problem"].tgrid.n_steps


@pytest.mark.parametrize(
    "run_dir, command, flags, files",
    [
        ("ev_run_dir", "verify", [], ["m.npy", "v.npy", "alpha.npy", "price.csv"]),
        ("phev_run_dir", "oracle", ["--states", "4"], ["v.npy", "r1.csv"]),
    ],
)
def test_traced_run_reads_open_one_span_per_file(run_dir, command, flags, files, request):
    # scenario.read_s and read_mb are summed over these spans: they must see
    # every file the command reads, through the names the trace rebinds, and
    # the bytes of the file each value comes from
    spans = _spans()
    tracer = spans.Tracer(lambda: 0.0)
    path = request.getfixturevalue(run_dir)
    with spans.instrument(tracer):
        assert evmfg.cli.main([command, str(path), *flags]) == 0
    sizes = [span.data for span in tracer.spans if span.name == "scenario.read"]
    assert sorted(sizes) == sorted((path / name).stat().st_size for name in files)
