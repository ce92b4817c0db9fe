"""Command-line front end.

Commands:
  run <scenario> --out <dir> [--set k=v ...]   solve and export
  verify <dir>                                 audit an exported run
  oracle <dir> [--states N] [--agents N] [--seed N]
                                               independent cross-checks
  schema                                       print the scenario schema

``run`` exits 0 when the solve converges, 2 when it does not (results are
still written), 1 on any error. ``oracle`` exits 0 iff the dynamic-programming
value check is within 2% and, on the 1D model only, the Monte Carlo density
check is within 0.1 sup-t L1 distance and the run's largest |alpha| lies
within the DP's action lattice (a stderr line gives both when it does not).
The Monte Carlo population is kept sorted and its noise is given by rank,
so its distance carries almost no seed spread: what it reads is the PDE's
own discretization error plus any fault in the control. Without ``--agents``
it runs ``mc_agents(cells)`` agents, 125 a cell between 12,500 and 100,000,
and its line names the count it ran.

``verify`` and ``oracle`` read a run's fields from its ``.npy`` files and
its price from its series CSV, after checking each file they read, the
scenario's input CSVs included, against the hash its manifest records; a
changed byte is an error that names the file. ``verify``'s threshold is
ten times the scenario's ``solver.tol``.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DivergenceError, ScenarioError
from .oracle import dp_best_response, dp_deviation, ev_mdp, mc_population, phev_mdp
from .scenario import (
    RUN_LAYOUT,
    SCHEMA_TEXT,
    ScenarioConfig,
    apply_overrides,
    build_problem,
    export_results,
    load_scenario,
    read_field_csv,
    read_manifest,
    read_series_csv,
)
from .solver import MfeSolution, _sup_l1, solve_mfe, verify_solution

DP_THRESHOLD = 0.02
MC_THRESHOLD = 0.1
# The 2D DP enumerates every pair of states and of actions, so its lattice is capped.
PHEV_MAX_STATES = 10
# ``oracle``'s DP lattice size per axis when ``--states`` is not given.
DEFAULT_STATES = {"ev": 20, "phev": PHEV_MAX_STATES}
# The field files each model's oracle audits; verify reads them all.
ORACLE_FIELDS = {"ev": {"m", "v", "alpha"}, "phev": {"v"}}


def mc_agents(cells: int) -> int:
    """The Monte Carlo audit's agent count on a grid of ``cells`` cells when ``--agents`` is not given.

    125 agents a cell, at least 12,500 and at most 100,000. The power study
    ``MC_POWER.json`` (``scripts/mc_power_study.py``, 40-800 cells, 20
    seeds) sets it: at each size, both planted control defects (+0.02,
    x1.1) read above every seed of the exact control at this count, as they
    do at 100,000 agents. At 800 cells 12,500 agents lose the x1.1 defect.
    """
    return min(100_000, max(12_500, 125 * cells))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="evmfg", description="Mean field equilibrium solver for vehicle trading games.")
    parser.add_argument("--version", action="version", version=f"evmfg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve a scenario and export results")
    p_run.add_argument("scenario", help="scenario file path or bundled name")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--set", dest="overrides", action="append", default=[], metavar="K=V",
                       help="scenario override (dotted path), repeatable")

    p_verify = sub.add_parser("verify", help="audit an exported run directory")
    p_verify.add_argument("run_dir", help="directory of a prior run")

    p_oracle = sub.add_parser("oracle", help="cross-check a run with DP and Monte Carlo")
    p_oracle.add_argument("run_dir", help="directory of a prior run")
    p_oracle.add_argument("--states", type=int,
                          help=f"DP state lattice size (default {DEFAULT_STATES['ev']}; {PHEV_MAX_STATES} per axis, the most, "
                               "on the 2D model)")
    p_oracle.add_argument("--agents", type=int,
                          help="Monte Carlo agents (default 125 a cell, at least 12500 and at most 100000)")
    p_oracle.add_argument("--seed", type=int, default=0, help="Monte Carlo seed (default 0)")

    sub.add_parser("schema", help="print the scenario schema")
    return parser


def cmd_run(args: argparse.Namespace) -> int:
    config = load_scenario(args.scenario)
    if args.overrides:
        config = apply_overrides(config, args.overrides)
    problem, options, resampled = build_problem(config)
    start = time.perf_counter()
    sol = solve_mfe(problem, options)
    wall = time.perf_counter() - start
    export_results(sol, problem, config, args.out, wall_time=wall, resampled=resampled)
    residual = sol.residuals[-1]
    if sol.converged:
        print(f"converged in {sol.iterations} iterations (residual {residual:.3e}); wrote {args.out}")
        return 0
    print(f"did not converge after {sol.iterations} iterations (residual {residual:.3e}); wrote {args.out}")
    return 2


def _load_run(
    run_dir: Path, fields: dict[str, set[str]] | None = None
) -> tuple[MfeSolution, object, ScenarioConfig]:
    """Rebuild a run's problem and solution from its directory.

    ``fields`` maps the model to the ``RUN_LAYOUT`` fields (stems) to read;
    the others are left None. By default every field is read; the price
    series always is. ``read_manifest`` checks the manifest and the
    scenario's input CSVs, and each file read is hash-checked. The
    solution's ``tol`` is the rebuilt scenario's ``solver.tol``.
    """
    config, digests = read_manifest(run_dir)
    problem, options, _ = build_problem(config)
    shape = (problem.tgrid.n_nodes,) + problem.sgrid.shape
    stems, price = RUN_LAYOUT[config.model]
    wanted = stems if fields is None else fields[config.model]
    m, v, *controls = (read_field_csv(run_dir / f"{s}.npy", shape, digests) if s in wanted else None for s in stems)
    p = read_series_csv(run_dir / f"{price}.csv", problem.tgrid.n_nodes, digests)
    return MfeSolution(v=v, m=m, p=p, alpha=tuple(controls), tol=options.tol), problem, config


def cmd_verify(args: argparse.Namespace) -> int:
    sol, problem, _ = _load_run(Path(args.run_dir))
    report = verify_solution(sol, problem)
    print(report)
    return 0 if report.passed else 1


def cmd_oracle(args: argparse.Namespace) -> int:
    if args.states is not None and args.states < 2:
        raise ValueError("need at least 2 states")
    if args.agents is not None and args.agents < 1:
        raise ValueError("need at least one agent")
    if args.seed < 0:
        raise ValueError("need a nonnegative seed")
    sol, problem, config = _load_run(Path(args.run_dir), ORACLE_FIELDS)
    n_states = DEFAULT_STATES[config.model] if args.states is None else args.states
    if config.model == "ev":
        mdp = ev_mdp(problem.params, sol.p, n_states=n_states)
        reach, span = float(np.abs(sol.alpha[0]).max()), float(mdp.actions.max())
        if reach > span:  # the DP cannot trade as the run does, so its value says nothing
            print(f"the run's max|alpha| {reach:.6g} exceeds the DP's largest action {span:.6g}", file=sys.stderr)
    else:
        if n_states > PHEV_MAX_STATES:
            n_states = PHEV_MAX_STATES
            print(f"note: the 2D DP audit uses a {n_states}x{n_states} state lattice "
                  f"(--states {args.states} is capped at {PHEV_MAX_STATES})", file=sys.stderr)
        mdp = phev_mdp(problem.params, sol.p, n_states=n_states)
    value, _ = dp_best_response(mdp)
    dp_dev = float(dp_deviation(mdp, value, sol.v, problem.sgrid).max())
    print(f"dp value deviation: {dp_dev:.6g} (threshold {DP_THRESHOLD})")
    if config.model != "ev":
        print("mc density distance: not applicable (2D model)")
        return 0 if dp_dev <= DP_THRESHOLD else 1
    n_agents = mc_agents(problem.sgrid.shape[0]) if args.agents is None else args.agents
    hist = mc_population(sol.alpha[0], problem.m0, problem.params, problem.tgrid, problem.sgrid,
                         n_agents=n_agents, seed=args.seed)
    mc_dist = _sup_l1(hist, sol.m, problem.sgrid.cell_volume, out=hist)
    print(f"mc density distance: {mc_dist:.6g} (threshold {MC_THRESHOLD}, {n_agents} agents)")
    return 0 if dp_dev <= DP_THRESHOLD and mc_dist <= MC_THRESHOLD and reach <= span else 1


def cmd_schema(_: argparse.Namespace) -> int:
    print(SCHEMA_TEXT, end="")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": cmd_run, "verify": cmd_verify, "oracle": cmd_oracle, "schema": cmd_schema}
    try:
        return handlers[args.command](args)
    except (ScenarioError, DivergenceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
