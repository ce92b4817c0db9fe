"""One benchmark pass: set-up -> run (solve + export) -> verify -> oracle.

The run step makes the same calls as ``evmfg run`` so that set-up, solve and
export can be timed apart; verify and oracle go through ``evmfg.cli.main``
in-process with stdout captured, and their accuracy figures are parsed from
what the CLI prints. Functions are looked up on their modules at call time,
so the traced run's rebindings take effect.

Step times are read from a ``clock.ReferenceClock``: CPU time scaled to a
fixed CPU speed. The pass's wall time is kept for information.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
import shutil
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import evmfg.cli as cli
import evmfg.scenario as scenario
import evmfg.solver as solver

# Workloads: a bundled scenario plus ordinary ``--set`` overrides.
WORKLOADS = {
    "ev_weekend": ("ev_weekend", []),
    "ev_stiff_fine": ("ev_weekend", ["space.cells=400", "series.H=3.0", "price.exponent=4.0"]),
    "phev_io": ("phev_flat", ["space.cells=[64,64]", "time_steps=47"]),
}

SETUP_REPEATS = 10  # set-up takes milliseconds; its median needs more samples than one per pass
MASS_TOLERANCE = 1e-9

_DEV = r"([-+0-9.eE]+|nan|inf)"
_VERIFY_RE = re.compile(rf"price dev {_DEV}, control dev {_DEV}, density dev {_DEV}")
_DP_RE = re.compile(rf"dp value deviation: {_DEV}")
_MC_RE = re.compile(rf"mc density distance: {_DEV}")


class GateError(RuntimeError):
    """A pass broke the correctness gate."""


@dataclass
class OpResult:
    ok: bool
    output: str = ""


@dataclass
class PassResult:
    setup_s: list[float]
    solve_s: float
    run_s: float
    verify_s: float
    oracle_s: float
    verify_dev: float
    oracle_dp_dev: float
    oracle_mc_l1: float | None
    csv_sha256: str
    wall_s: float

    @property
    def pipeline_s(self) -> float:
        return float(np.median(self.setup_s)) + self.run_s + self.verify_s + self.oracle_s


def cli_op(argv: list[str]) -> OpResult:
    """Run one CLI command in-process; it fails on an exception or a non-zero exit."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return OpResult(False, buf.getvalue())
    return OpResult(code == 0, buf.getvalue())


def setup(workload: str):
    name, overrides = WORKLOADS[workload]
    config = scenario.load_scenario(name)
    if overrides:
        config = scenario.apply_overrides(config, overrides)
    problem, options, resampled = scenario.build_problem(config)
    return config, problem, options, resampled


def csv_digest(run_dir: Path) -> str:
    """sha256 over the exported CSV set (names and bytes); the manifest holds a wall time."""
    digest = hashlib.sha256()
    for path in sorted(run_dir.glob("*.csv")):
        digest.update(path.name.encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def check_density(m: np.ndarray, cell_volume: float) -> None:
    slices = m.reshape(m.shape[0], -1)
    defect = float(np.abs(slices.sum(axis=1) * cell_volume - 1.0).max())
    if defect > MASS_TOLERANCE:
        raise GateError(f"density slice mass off by {defect:.3e} (tolerance {MASS_TOLERANCE:g})")
    low = float(slices.min())
    if low < 0.0:
        raise GateError(f"negative density cell {low:.3e}")


def _parse(pattern: re.Pattern, text: str, what: str) -> tuple[float, ...]:
    match = pattern.search(text)
    if match is None:
        raise GateError(f"could not read the {what} from the CLI output: {text!r}")
    return tuple(float(x) for x in match.groups())


def run_pass(workload: str, run_dir: Path, seed: int, ops: list[tuple[str, bool]], clock) -> PassResult:
    """One closed-loop pass; raises GateError when the outputs are wrong.

    Appends (op, ok) for the run, verify and oracle ops it attempts to
    ``ops``. ``clock`` is a started ``clock.ReferenceClock``.
    """
    wall_start = perf_counter()
    marks = [clock.now()]

    def lap() -> float:
        marks.append(clock.now())
        return marks[-1] - marks[-2]

    setup_s = []
    for _ in range(SETUP_REPEATS):
        config, problem, options, resampled = setup(workload)
        setup_s.append(lap())

    solve_wall = perf_counter()
    try:
        sol = solver.solve_mfe(problem, options)
        solve_s = lap()
        scenario.export_results(sol, problem, config, run_dir, wall_time=perf_counter() - solve_wall,
                                resampled=resampled)
    except Exception as exc:
        ops.append(("run", False))
        raise GateError(f"run raised {type(exc).__name__}: {exc}") from exc
    export_s = lap()
    ops.append(("run", sol.converged))
    if not sol.converged:
        raise GateError(f"run did not converge after {sol.iterations} iterations")
    check_density(sol.m, problem.cell_volume)

    lap()  # the density check is not timed
    verify = cli_op(["verify", str(run_dir)])
    verify_s = lap()
    ops.append(("verify", verify.ok))
    if not verify.ok:
        raise GateError(f"verify failed: {verify.output.strip()!r}")
    oracle = cli_op(["oracle", str(run_dir), "--seed", str(seed)])
    oracle_s = lap()
    ops.append(("oracle", oracle.ok))

    mc = _MC_RE.search(oracle.output)
    result = PassResult(
        setup_s=setup_s,
        solve_s=solve_s,
        run_s=solve_s + export_s,
        verify_s=verify_s,
        oracle_s=oracle_s,
        verify_dev=max(_parse(_VERIFY_RE, verify.output, "verify deviations")),
        oracle_dp_dev=_parse(_DP_RE, oracle.output, "DP value deviation")[0],
        oracle_mc_l1=float(mc.group(1)) if mc else None,
        csv_sha256=csv_digest(run_dir),
        wall_s=perf_counter() - wall_start,
    )
    shutil.rmtree(run_dir)
    return result
