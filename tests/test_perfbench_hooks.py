"""The traced benchmark's hooks into the package.

``perfbench/spans.py`` rebinds names at evmfg's module boundaries by
attribute (sweeps, stencils, ``substep_count``), so moving or renaming one
of them breaks the traced run, which these tests would otherwise not see.
They only read perfbench.
"""

import importlib.util
from pathlib import Path

import numpy as np

import evmfg
import evmfg.cli
import evmfg.ev
import evmfg.phev
import evmfg.scenario
import evmfg.solver

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
MODULES = (evmfg.cli, evmfg.ev, evmfg.phev, evmfg.scenario, evmfg.solver)


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    for name in ("hjb_backward_sweep", "fpk_forward_sweep", "substep_count", "diff_upwind", "diff2"):
        assert ("evmfg.ev", name) in rebound
    for name in ("phev_hjb_backward_sweep", "phev_fpk_forward_sweep", "substep_count"):
        assert ("evmfg.phev", name) in rebound
    for module, saved in zip(MODULES, before):
        assert vars(module).keys() == saved.keys()
        assert all(vars(module)[name] is value for name, value in saved.items()), module.__name__


def test_traced_phev_solve_counts_its_substeps_and_stencils():
    # the phev sweeps run in the shared core in ev: their substeps must land
    # in the phev spans, and their stencils in numerics.diff
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
    assert "numerics.diff" in names
