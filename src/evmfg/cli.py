"""Command-line front end.

Commands:
  run <scenario> --out <dir> [--set k=v ...]   solve and export
  verify <dir>                                 audit an exported run
  oracle <dir> [--states N] [--agents N] [--seed N]
                                               independent cross-checks
  schema                                       print the scenario schema

``run`` exits 0 on convergence, 2 on non-convergence (results are still
written), 1 on any error. ``oracle`` exits 0 iff the dynamic-programming
value check is within 2% and (1D model only) the Monte Carlo density check
is within 0.1 sup-t L1 distance.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DivergenceError, ScenarioError
from .oracle import dp_best_response, dp_deviation, ev_mdp, mc_population, phev_mdp
from .scenario import (
    SCHEMA_TEXT,
    ScenarioConfig,
    apply_overrides,
    build_problem,
    export_results,
    load_scenario,
    read_field_csv,
    read_series_csv,
    validate_config,
)
from .solver import MfeSolution, solve_mfe, verify_solution

DP_THRESHOLD = 0.02
MC_THRESHOLD = 0.1
# The 2D DP enumerates every pair of states and of actions, so its lattice is capped.
PHEV_MAX_STATES = 10
# The field files each model's oracle audits; verify reads them all.
ORACLE_FIELDS = {"ev": {"m", "v", "alpha"}, "phev": {"v"}}


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
    p_oracle.add_argument("--states", type=int, default=20,
                          help=f"DP state lattice size (default 20; at most {PHEV_MAX_STATES} per axis on the 2D model)")
    p_oracle.add_argument("--agents", type=int, default=100_000, help="Monte Carlo agents (default 100000)")
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
) -> tuple[MfeSolution, object, ScenarioConfig, dict]:
    """Rebuild a run's problem and solution from its directory.

    ``fields`` maps the model to the field files (stems) to read; the others
    are left None. By default every field is read. Series files are always
    read. Scenario CSV paths resolve against the manifest's
    ``scenario_dir``, or the working directory for a manifest without one.
    """
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.exists():
        raise ScenarioError("run_dir", f"manifest not found: {manifest_path}")
    with open(manifest_path) as handle:
        manifest = json.load(handle)
    if not isinstance(manifest, dict) or not isinstance(manifest.get("scenario"), dict):
        raise ScenarioError("manifest.json", f"no 'scenario' mapping in {manifest_path}")
    scenario_dir = manifest.get("scenario_dir", ".")
    if not isinstance(scenario_dir, str):
        raise ScenarioError("manifest.json", f"'scenario_dir' is not a path in {manifest_path}")
    config = ScenarioConfig(data=validate_config(manifest["scenario"]), base_dir=Path.cwd() / scenario_dir)
    problem, options, _ = build_problem(config)
    shape = (problem.tgrid.n_nodes,) + problem.sgrid.shape

    def field(stem: str):
        if fields is not None and stem not in fields[config.model]:
            return None
        return read_field_csv(run_dir / f"{stem}.csv", shape)

    try:
        m = field("m")
        v = field("v")
        if config.model == "ev":
            p = read_series_csv(run_dir / "price.csv", problem.tgrid.n_nodes)
            alpha = field("alpha")
        else:
            p = read_series_csv(run_dir / "r1.csv", problem.tgrid.n_nodes)
            alpha = (field("mu1"), field("mu2"))
    except OSError as exc:
        raise ScenarioError("run_dir", f"missing run artifact: {exc}") from exc
    conv = manifest.get("convergence", {})
    sol = MfeSolution(
        v=v, m=m, p=p, alpha=alpha,
        residuals=list(conv.get("residuals", [])),
        converged=bool(conv.get("converged", False)),
        iterations=int(conv.get("iterations", 0)),
        tol=float(conv.get("tol", options.tol)),
    )
    return sol, problem, config, manifest


def cmd_verify(args: argparse.Namespace) -> int:
    sol, problem, _, _ = _load_run(Path(args.run_dir))
    report = verify_solution(sol, problem)
    print(report)
    return 0 if report.passed else 1


def cmd_oracle(args: argparse.Namespace) -> int:
    if args.states < 2:
        raise ValueError("need at least 2 states")
    if args.agents < 1:
        raise ValueError("need at least one agent")
    if args.seed < 0:
        raise ValueError("need a nonnegative seed")
    sol, problem, config, _ = _load_run(Path(args.run_dir), ORACLE_FIELDS)
    if config.model == "ev":
        mdp = ev_mdp(problem.params, sol.p, n_states=args.states)
    else:
        n_states = min(args.states, PHEV_MAX_STATES)
        if n_states < args.states:
            print(f"note: the 2D DP audit uses a {n_states}x{n_states} state lattice "
                  f"(--states {args.states} is capped at {PHEV_MAX_STATES})", file=sys.stderr)
        mdp = phev_mdp(problem.params, sol.p, n_states=n_states)
    value, _ = dp_best_response(mdp)
    dp_dev = float(dp_deviation(mdp, value, sol.v, problem.sgrid).max())
    print(f"dp value deviation: {dp_dev:.6g} (threshold {DP_THRESHOLD})")
    if config.model != "ev":
        print("mc density distance: not applicable (2D model)")
        return 0 if dp_dev <= DP_THRESHOLD else 1
    hist = mc_population(sol.alpha, problem.m0, problem.params, problem.tgrid, problem.sgrid,
                         n_agents=args.agents, seed=args.seed)
    mc_dist = float((np.abs(hist - sol.m).sum(axis=1) * problem.sgrid.spacing(0)).max())
    print(f"mc density distance: {mc_dist:.6g} (threshold {MC_THRESHOLD})")
    return 0 if dp_dev <= DP_THRESHOLD and mc_dist <= MC_THRESHOLD else 1


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


if __name__ == "__main__":
    sys.exit(main())
