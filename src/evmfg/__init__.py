"""Mean field equilibria for electric-vehicle electricity trading.

A finite-difference solver for the coupled backward value / forward density
system of two trading games (one battery on a line, two battery packs on a
square), plus independent dynamic-programming and Monte Carlo cross-checks,
declarative scenario files and a CLI.
"""

from .errors import DivergenceError, ScenarioError
from .ev import (
    EvParams,
    EvProblem,
    ev_cost,
    ev_load,
    ev_price,
    fpk_forward_sweep,
    hjb_backward_sweep,
    optimal_control,
)
from .grids import SpaceGrid, TimeGrid
from .numerics import (
    diff_central,
    diffuse,
    face_velocities,
    integrate,
    mean_rate,
    space_mean,
    substep_count,
)
from .oracle import (
    dp_best_response,
    dp_deviation,
    ev_mdp,
    mc_population,
    phev_mdp,
    sample_density,
)
from .phev import (
    PhevParams,
    PhevProblem,
    beta,
    beta_divergence,
    phev_price,
)
from .scenario import (
    SCHEMA_TEXT,
    ScenarioConfig,
    apply_overrides,
    build_problem,
    bundled_scenarios,
    canonical_yaml,
    export_results,
    load_scenario,
    read_field_csv,
    read_series_csv,
    scenario_hash,
    validate_config,
    write_scenario,
)
from .solver import MfeSolution, SolverOptions, solve_mfe, verify_solution

__version__ = "0.1.0"

__all__ = [
    "DivergenceError",
    "ScenarioError",
    "TimeGrid",
    "SpaceGrid",
    "diff_central",
    "face_velocities",
    "diffuse",
    "integrate",
    "space_mean",
    "mean_rate",
    "substep_count",
    "EvParams",
    "EvProblem",
    "ev_price",
    "ev_load",
    "optimal_control",
    "hjb_backward_sweep",
    "fpk_forward_sweep",
    "ev_cost",
    "PhevParams",
    "PhevProblem",
    "beta",
    "beta_divergence",
    "phev_price",
    "SolverOptions",
    "MfeSolution",
    "solve_mfe",
    "verify_solution",
    "ev_mdp",
    "phev_mdp",
    "dp_best_response",
    "dp_deviation",
    "mc_population",
    "sample_density",
    "ScenarioConfig",
    "load_scenario",
    "write_scenario",
    "apply_overrides",
    "build_problem",
    "bundled_scenarios",
    "canonical_yaml",
    "scenario_hash",
    "validate_config",
    "export_results",
    "read_field_csv",
    "read_series_csv",
    "SCHEMA_TEXT",
]
