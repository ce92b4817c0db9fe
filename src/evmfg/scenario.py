"""Declarative scenario files, series ingestion and result export.

Scenarios are YAML documents validated against a fixed schema (printed by
the ``schema`` CLI command). Loading fills defaults and canonicalizes the
document, so ``load_scenario(write_scenario(c)) == c``. Two scenarios ship
inside the package: ``ev_weekend`` (a weekend consumption profile with an
endogenous quadratic price) and ``phev_flat`` (constant consumption, two
battery packs).

Exports are long-format CSV with a fixed column order and 17-significant-
digit floats, so identical runs produce byte-identical CSV files. Each
field and price CSV has a binary twin ``<stem>.npy`` of the same float64
values, which is what the audits read back. The run manifest records the
scenario (resolved form, hash and directory), solver version, grid sizes,
convergence history, the sha256 of every exported file and wall time; the
wall time necessarily varies between runs, so bit-reproducibility is a
property of the CSV and twin set.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import operator
from dataclasses import asdict, dataclass, field
from functools import reduce
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from .errors import ScenarioError
from .ev import EvParams, EvProblem
from .grids import SpaceGrid, TimeGrid
from .numerics import mean_rate
from .phev import PhevParams, PhevProblem
from .solver import MfeSolution, SolverOptions

SCHEMA_VERSION = 1

SCHEMA_TEXT = """\
# Scenario schema (version 1). YAML document, keys as below.
schema_version: 1          # required, must be 1
name: <string>             # optional, defaults to the file stem
model: ev | phev           # required
horizon: <float > 0>       # required, length of the planning window
time_steps: <int >= 2>     # required, number of time intervals
space:
  cells: <int >= 4>        # ev: battery cells; phev: [n1, n2] pack cells

series:                    # one value per time node, or a resampled form.
  # Each series is one of:
  #   <scalar>                        constant in time
  #   [v0, v1, ...]                   exactly time_steps + 1 values
  #   {times: [...], values: [...]}   linear interpolation to the nodes
  #   {csv: <path>}                   two-column t,value file, interpolated
  # ev model:    g, d, sigma, H
  # phev model:  g, Q1, Q2
  g: ...

costs:                     # named presets; no embedded code
  # ev model:   f (running), kappa (terminal)
  # phev model: s (running), xi (terminal)
  # presets:
  #   {kind: quadratic_shortage, weight: <w>=0>, target: <float>}
  #       -> w * (target - x)^2        (ev: x; phev: z1 + z2)
  #   {kind: zero}
  f: {kind: quadratic_shortage, weight: 1.0, target: 1.0}

price:
  # ev model:
  exponent: <float>        # default 2.0
  coupled: <bool>          # default true; false freezes demand out of p
  # phev model:
  offset: <float >= 0>     # default 0.5, added to the positive grid draw
  r2: <float>              # required, flat second-pack price

initial_density:           # normalized to unit mass on the grid
  kind: triangle | truncated_gaussian | histogram
  # triangle (ev only):    center, halfwidth; support within [0, 1]
  # truncated_gaussian:    mean (scalar for ev, [m1, m2] for phev),
  #                        variance (isotropic, > 0)
  # histogram:             csv: <path>, one value per cell (row-major)

solver:                    # optional block, defaults below
  max_iters: 200
  tol: 1.0e-06
  damping: 0.5             # weight of the plain (unaccelerated) step

# Overrides (--set) use dotted paths into this document, e.g.
#   --set solver.max_iters=50   --set price.coupled=false
# Bare solver keys (max_iters, tol, damping) are accepted as shorthand.
"""

_SOLVER_DEFAULTS = asdict(SolverOptions())
_EV_COSTS = ("f", "kappa")
_PHEV_COSTS = ("s", "xi")
# libyaml's safe loader where PyYAML was built with it: the same documents, parsed in C.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


# What a run directory holds, per model: (the coordinate columns of a field
# file, between t and value; the field stems, m and v then the controls; the
# price series stem). Export writes each as <stem>.csv and its binary twin
# <stem>.npy; the CLI reads the twins back.
RUN_LAYOUT = {
    "ev": (("x",), ("m", "v", "alpha"), "price"),
    "phev": (("z1", "z2"), ("m", "v", "mu1", "mu2"), "r1"),
}


@dataclass
class ScenarioConfig:
    """A validated, canonical scenario document."""

    data: dict
    base_dir: Path = field(default_factory=Path.cwd, compare=False)

    @property
    def name(self) -> str:
        return self.data["name"]

    @property
    def model(self) -> str:
        return self.data["model"]


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ScenarioError(where + key, "missing key")
    return mapping[key]


def _reject_unknown(mapping: dict, allowed: set[str], where: str) -> None:
    for key in mapping:
        if key not in allowed:
            path = f"{where}.{key}" if where else str(key)
            raise ScenarioError(path, "unknown key")


def _as_number(value, fld: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(fld, f"expected a number, got {value!r}")
    out = float(value)
    if not np.isfinite(out):
        raise ScenarioError(fld, "must be finite")
    return out


def _as_int(value, fld: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(fld, f"expected an integer, got {value!r}")
    return value


def _validate_series_spec(spec, fld: str):
    """Normalize a series entry to one of the four canonical forms."""
    if isinstance(spec, bool):
        raise ScenarioError(fld, "expected a series, got a boolean")
    if isinstance(spec, (int, float)):
        return _as_number(spec, fld)
    if isinstance(spec, list):
        return [_as_number(v, f"{fld}[{k}]") for k, v in enumerate(spec)]
    if isinstance(spec, dict):
        if "csv" in spec:
            _reject_unknown(spec, {"csv"}, fld)
            if not isinstance(spec["csv"], str):
                raise ScenarioError(f"{fld}.csv", "expected a path string")
            return {"csv": spec["csv"]}
        if "times" in spec or "values" in spec:
            _reject_unknown(spec, {"times", "values"}, fld)
            times = _require(spec, "times", f"{fld}.")
            values = _require(spec, "values", f"{fld}.")
            if not isinstance(times, list) or not isinstance(values, list):
                raise ScenarioError(fld, "times and values must be lists")
            if len(times) != len(values) or len(times) < 2:
                raise ScenarioError(fld, "times and values must have equal length >= 2")
            times = [_as_number(v, f"{fld}.times[{k}]") for k, v in enumerate(times)]
            values = [_as_number(v, f"{fld}.values[{k}]") for k, v in enumerate(values)]
            if any(b <= a for a, b in zip(times, times[1:])):
                raise ScenarioError(f"{fld}.times", "must be strictly increasing")
            return {"times": times, "values": values}
    raise ScenarioError(fld, "expected scalar, list, {times, values} or {csv}")


def _validate_cost_spec(spec, fld: str) -> dict:
    if not isinstance(spec, dict):
        raise ScenarioError(fld, "expected a mapping with a 'kind' key")
    kind = _require(spec, "kind", f"{fld}.")
    if kind == "zero":
        _reject_unknown(spec, {"kind"}, fld)
        return {"kind": "zero"}
    if kind == "quadratic_shortage":
        _reject_unknown(spec, {"kind", "weight", "target"}, fld)
        weight = _as_number(_require(spec, "weight", f"{fld}."), f"{fld}.weight")
        if weight < 0.0:
            raise ScenarioError(f"{fld}.weight", "must be nonnegative")
        target = _as_number(_require(spec, "target", f"{fld}."), f"{fld}.target")
        return {"kind": "quadratic_shortage", "weight": weight, "target": target}
    raise ScenarioError(f"{fld}.kind", f"unknown cost preset {kind!r}")


def _validate_density_spec(spec, model: str, fld: str) -> dict:
    if not isinstance(spec, dict):
        raise ScenarioError(fld, "expected a mapping with a 'kind' key")
    kind = _require(spec, "kind", f"{fld}.")
    if kind == "triangle":
        if model != "ev":
            raise ScenarioError(f"{fld}.kind", "triangle density is one-dimensional")
        _reject_unknown(spec, {"kind", "center", "halfwidth"}, fld)
        center = _as_number(_require(spec, "center", f"{fld}."), f"{fld}.center")
        halfwidth = _as_number(_require(spec, "halfwidth", f"{fld}."), f"{fld}.halfwidth")
        if halfwidth <= 0.0:
            raise ScenarioError(f"{fld}.halfwidth", "must be positive")
        if center - halfwidth < 0.0 or center + halfwidth > 1.0:
            raise ScenarioError(fld, f"triangle support [{center - halfwidth}, {center + halfwidth}] not within [0, 1]")
        return {"kind": "triangle", "center": center, "halfwidth": halfwidth}
    if kind == "truncated_gaussian":
        _reject_unknown(spec, {"kind", "mean", "variance"}, fld)
        mean = _require(spec, "mean", f"{fld}.")
        if model == "ev":
            mean = _as_number(mean, f"{fld}.mean")
        else:
            if not isinstance(mean, list) or len(mean) != 2:
                raise ScenarioError(f"{fld}.mean", "expected [m1, m2] for the 2D model")
            mean = [_as_number(v, f"{fld}.mean[{k}]") for k, v in enumerate(mean)]
        variance = _as_number(_require(spec, "variance", f"{fld}."), f"{fld}.variance")
        if variance <= 0.0:
            raise ScenarioError(f"{fld}.variance", "must be positive")
        return {"kind": "truncated_gaussian", "mean": mean, "variance": variance}
    if kind == "histogram":
        _reject_unknown(spec, {"kind", "csv"}, fld)
        path = _require(spec, "csv", f"{fld}.")
        if not isinstance(path, str):
            raise ScenarioError(f"{fld}.csv", "expected a path string")
        return {"kind": "histogram", "csv": path}
    raise ScenarioError(f"{fld}.kind", f"unknown density kind {kind!r}")


def validate_config(data, name_default: str = "scenario") -> dict:
    """Check a raw document's shape and return the canonical, defaults-filled form.

    Grid and solver ranges are checked by building the grids and ``SolverOptions``.
    """
    if not isinstance(data, dict):
        raise ScenarioError("document", "scenario must be a mapping")
    allowed = {
        "schema_version", "name", "model", "horizon", "time_steps",
        "space", "series", "costs", "price", "initial_density", "solver",
    }
    _reject_unknown(data, allowed, "")
    version = _require(data, "schema_version", "")
    if version != SCHEMA_VERSION:
        raise ScenarioError("schema_version", f"expected {SCHEMA_VERSION}, got {version!r}")
    model = _require(data, "model", "")
    if model not in ("ev", "phev"):
        raise ScenarioError("model", f"expected 'ev' or 'phev', got {model!r}")
    horizon = _as_number(_require(data, "horizon", ""), "horizon")
    time_steps = _as_int(_require(data, "time_steps", ""), "time_steps")
    TimeGrid(horizon, time_steps)

    space = _require(data, "space", "")
    if not isinstance(space, dict):
        raise ScenarioError("space", "expected a mapping")
    _reject_unknown(space, {"cells"}, "space")
    cells = _require(space, "cells", "space.")
    if model == "ev":
        cells = _as_int(cells, "space.cells")
    else:
        if not isinstance(cells, list) or len(cells) != 2:
            raise ScenarioError("space.cells", "expected [n1, n2] for the 2D model")
        cells = [_as_int(v, f"space.cells[{k}]") for k, v in enumerate(cells)]
    SpaceGrid(cells)

    series_spec = _require(data, "series", "")
    if not isinstance(series_spec, dict):
        raise ScenarioError("series", "expected a mapping")
    wanted = (EvParams if model == "ev" else PhevParams).SERIES
    _reject_unknown(series_spec, set(wanted), "series")
    series = {}
    for key in wanted:
        series[key] = _validate_series_spec(_require(series_spec, key, "series."), f"series.{key}")

    costs_spec = _require(data, "costs", "")
    if not isinstance(costs_spec, dict):
        raise ScenarioError("costs", "expected a mapping")
    cost_keys = _EV_COSTS if model == "ev" else _PHEV_COSTS
    _reject_unknown(costs_spec, set(cost_keys), "costs")
    costs = {}
    for key in cost_keys:
        costs[key] = _validate_cost_spec(_require(costs_spec, key, "costs."), f"costs.{key}")

    price_spec = data.get("price", {})
    if not isinstance(price_spec, dict):
        raise ScenarioError("price", "expected a mapping")
    if model == "ev":
        _reject_unknown(price_spec, {"exponent", "coupled"}, "price")
        exponent = _as_number(price_spec.get("exponent", 2.0), "price.exponent")
        coupled = price_spec.get("coupled", True)
        if not isinstance(coupled, bool):
            raise ScenarioError("price.coupled", "expected a boolean")
        price = {"exponent": exponent, "coupled": coupled}
    else:
        _reject_unknown(price_spec, {"offset", "r2"}, "price")
        offset = _as_number(price_spec.get("offset", 0.5), "price.offset")
        if offset < 0.0:
            raise ScenarioError("price.offset", "must be nonnegative")
        r2 = _as_number(_require(price_spec, "r2", "price."), "price.r2")
        price = {"offset": offset, "r2": r2}

    density = _validate_density_spec(_require(data, "initial_density", ""), model, "initial_density")

    solver_spec = data.get("solver", {})
    if not isinstance(solver_spec, dict):
        raise ScenarioError("solver", "expected a mapping")
    _reject_unknown(solver_spec, set(_SOLVER_DEFAULTS), "solver")
    solver = dict(_SOLVER_DEFAULTS)
    for key, value in solver_spec.items():
        solver[key] = value
    solver["max_iters"] = _as_int(solver["max_iters"], "solver.max_iters")
    solver["tol"] = _as_number(solver["tol"], "solver.tol")
    solver["damping"] = _as_number(solver["damping"], "solver.damping")
    SolverOptions(**solver)

    name = data.get("name", name_default)
    if not isinstance(name, str) or not name:
        raise ScenarioError("name", "expected a nonempty string")

    return {
        "schema_version": SCHEMA_VERSION,
        "name": name,
        "model": model,
        "horizon": horizon,
        "time_steps": time_steps,
        "space": {"cells": cells},
        "series": series,
        "costs": costs,
        "price": price,
        "initial_density": density,
        "solver": solver,
    }


def bundled_scenarios() -> list[str]:
    root = resources.files("evmfg").joinpath("scenarios")
    return sorted(p.name.removesuffix(".yaml") for p in root.iterdir() if p.name.endswith(".yaml"))


def load_scenario(path_or_name: str | Path) -> ScenarioConfig:
    """Load a scenario from a file path or a bundled scenario name."""
    path = Path(path_or_name)
    if path.exists():
        text = path.read_text()
        base_dir = path.parent
        stem = path.stem
    else:
        name = str(path_or_name)
        candidate = resources.files("evmfg").joinpath("scenarios", f"{name}.yaml")
        if "/" in name or not candidate.is_file():
            raise ScenarioError("path", f"scenario file not found: {path_or_name}")
        text = candidate.read_text()
        base_dir = Path.cwd()
        stem = name
    try:
        raw = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ScenarioError("document", f"not valid YAML: {exc}") from exc
    return ScenarioConfig(data=validate_config(raw, name_default=stem), base_dir=base_dir)


def write_scenario(config: ScenarioConfig, path: str | Path) -> None:
    Path(path).write_text(canonical_yaml(config.data))


def canonical_yaml(data: dict) -> str:
    return yaml.safe_dump(data, sort_keys=True, default_flow_style=False)


def scenario_hash(data: dict) -> str:
    return hashlib.sha256(canonical_yaml(data).encode()).hexdigest()


def apply_overrides(config: ScenarioConfig, overrides: list[str]) -> ScenarioConfig:
    """Apply dotted key=value overrides and re-validate.

    Values parse as YAML scalars (so ``true``, ``0.5``, ``[1, 2]`` work).
    Bare solver keys are shorthand for ``solver.<key>``.
    """
    data = json.loads(json.dumps(config.data))  # deep copy of plain data
    for item in overrides:
        if "=" not in item:
            raise ScenarioError("override", f"expected key=value, got {item!r}")
        key, _, raw_value = item.partition("=")
        key = key.strip()
        if not key:
            raise ScenarioError("override", f"empty key in {item!r}")
        if "." not in key and key in _SOLVER_DEFAULTS:
            key = f"solver.{key}"
        try:
            value = yaml.load(raw_value, Loader=_YAML_LOADER) if raw_value.strip() else ""
        except yaml.YAMLError as exc:
            raise ScenarioError(key, f"override value is not valid YAML: {exc}") from exc
        parts = key.split(".")
        target = data
        for part in parts[:-1]:
            if not isinstance(target, dict) or part not in target:
                raise ScenarioError(key, "no such scenario field")
            target = target[part]
        if not isinstance(target, dict):
            raise ScenarioError(key, "no such scenario field")
        target[parts[-1]] = value
    return ScenarioConfig(data=validate_config(data, name_default=config.name), base_dir=config.base_dir)


def _read_two_column_csv(path: Path, fld: str) -> tuple[np.ndarray, np.ndarray]:
    if not path.exists():
        raise ScenarioError(fld, f"file not found: {path}")
    try:
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise ScenarioError(fld, f"could not parse {path}: {exc}") from exc
    if table.shape[1] < 2 or len(table) < 2:
        raise ScenarioError(fld, f"{path} needs two columns (t, value) and at least 2 rows")
    return table[:, 0], table[:, 1]


def _materialize_series(spec, tgrid: TimeGrid, base_dir: Path, fld: str) -> tuple[np.ndarray, bool]:
    """Return (the series on the time grid, whether it was resampled); the params check its length."""
    if isinstance(spec, (int, float)):
        return np.full(tgrid.n_nodes, float(spec)), False
    if isinstance(spec, list):
        return np.asarray(spec, dtype=float), False
    if "csv" in spec:
        times, values = _read_two_column_csv(base_dir / spec["csv"], fld)
        if np.any(np.diff(times) <= 0.0):
            raise ScenarioError(fld, "csv times must be strictly increasing")
        return np.interp(tgrid.nodes, times, values), True
    times = np.asarray(spec["times"], dtype=float)
    values = np.asarray(spec["values"], dtype=float)
    return np.interp(tgrid.nodes, times, values), True


def _make_cost(spec: dict):
    """(running, terminal) cost of the state levels (x, or z1, z2)."""
    if spec["kind"] == "zero":
        def terminal(*z):
            return np.zeros_like(z[0])
    else:
        weight = spec["weight"]
        target = spec["target"]

        def terminal(*z):
            return weight * reduce(operator.sub, z, target) ** 2  # target - z1 - z2, in order

    def running(t, *z):
        return terminal(*z)
    return running, terminal


def _initial_density(spec: dict, sgrid: SpaceGrid, base_dir: Path) -> np.ndarray:
    """Initial density on the grid, normalized to unit mass."""
    axes = sgrid.meshes()
    if spec["kind"] == "triangle":
        values = np.maximum(0.0, 1.0 - np.abs(axes[0] - spec["center"]) / spec["halfwidth"])
    elif spec["kind"] == "truncated_gaussian":
        mean = np.atleast_1d(spec["mean"])
        values = np.exp(-sum((z - c) ** 2 for z, c in zip(axes, mean)) / (2.0 * spec["variance"]))
    else:
        path = base_dir / spec["csv"]
        if not path.exists():
            raise ScenarioError("initial_density.csv", f"file not found: {path}")
        try:
            values = np.loadtxt(path, delimiter=",", ndmin=len(sgrid.shape))
        except ValueError as exc:
            raise ScenarioError("initial_density.csv", f"could not parse {path}: {exc}") from exc
        if values.shape != sgrid.shape:
            raise ScenarioError("initial_density.csv", f"expected shape {sgrid.shape}, got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ScenarioError("initial_density.csv", "histogram values must be finite")
        if values.min() < 0.0:
            raise ScenarioError("initial_density.csv", "histogram values must be nonnegative")
    total = values.sum() * sgrid.cell_volume
    if not total > 0.0:
        raise ScenarioError("initial_density", "density has no mass on the grid")
    return values / total


def build_problem(config: ScenarioConfig):
    """Instantiate (problem, solver options, resampled-series names)."""
    data = config.data
    tgrid = TimeGrid(t1=data["horizon"], n_steps=data["time_steps"])
    resampled: list[str] = []

    def series(key: str) -> np.ndarray:
        arr, was_resampled = _materialize_series(data["series"][key], tgrid, config.base_dir, f"series.{key}")
        if was_resampled:
            resampled.append(key)
        return arr

    sgrid = SpaceGrid(data["space"]["cells"])
    if data["model"] == "ev":
        problem_class = EvProblem
        f_run, _ = _make_cost(data["costs"]["f"])
        _, kappa = _make_cost(data["costs"]["kappa"])
        params = EvParams(
            tgrid=tgrid, **{key: series(key) for key in EvParams.SERIES}, f_cost=f_run, kappa=kappa,
            price_exponent=data["price"]["exponent"],
            demand_coupled=data["price"]["coupled"],
        )
    else:
        problem_class = PhevProblem
        s_run, _ = _make_cost(data["costs"]["s"])
        _, xi = _make_cost(data["costs"]["xi"])
        params = PhevParams(
            tgrid=tgrid, **{key: series(key) for key in PhevParams.SERIES}, r2=data["price"]["r2"],
            s_cost=s_run, xi=xi, price_offset=data["price"]["offset"],
        )
    m0 = _initial_density(data["initial_density"], sgrid, config.base_dir)
    problem = problem_class(params=params, sgrid=sgrid, m0=m0)
    options = SolverOptions(**data["solver"])
    return problem, options, resampled


def _fmt_all(values) -> list[str]:
    """17-significant-digit strings, one per value (``format(x, ".17g")``)."""
    return ["%.17g" % x for x in np.asarray(values, dtype=float).ravel().tolist()]


class _HashingWriter:
    """A binary file handle that hashes (sha256) every byte written through it."""

    def __init__(self, handle):
        self.handle = handle
        self.sha256 = hashlib.sha256()

    def write(self, data) -> int:
        self.sha256.update(data)
        return self.handle.write(data)


def _write_rows(path: Path, header: str, coords: list[str], slices) -> str:
    """Write ``header``, then one row ``lead + coords[j] + values[j]`` per coordinate for each slice.

    ``slices`` yields ``(lead, values)`` with ``values`` of shape (len(coords),)
    or (len(coords), columns); a field file has one slice per time node, led
    by its time. Coordinates and leads arrive formatted, so each slice is one
    ``%``-template over its values and the file is written slice by slice,
    never held whole. Returns the sha256 of the file, hashed as it is written.
    """
    with open(path, "wb") as handle:
        out = _HashingWriter(handle)
        out.write(header.encode() + b"\n")
        for lead, values in slices:
            values = np.asarray(values, dtype=float)
            cell = ",%.17g" * (values.size // len(coords)) + "\n"
            template = lead + (cell + lead).join(coords) + cell
            out.write((template % tuple(values.ravel().tolist())).encode())
    return out.sha256.hexdigest()


def _write_series_csv(path: Path, header: str, t: np.ndarray, columns: list[np.ndarray]) -> str:
    return _write_rows(path, header, _fmt_all(t), [("", np.column_stack(columns))])


def _write_twin(path: Path, values: np.ndarray) -> str:
    """Save ``values`` as a float64 ``.npy`` file without pickles; returns its sha256, hashed as it is written."""
    with open(path, "wb") as handle:
        out = _HashingWriter(handle)
        np.save(out, np.asarray(values, dtype=float), allow_pickle=False)
    return out.sha256.hexdigest()


def export_results(
    sol: MfeSolution,
    problem,
    config: ScenarioConfig,
    out_dir: str | Path,
    wall_time: float = 0.0,
    resampled: list[str] | None = None,
) -> list[str]:
    """Write the ``RUN_LAYOUT`` files and their twins, the model's summaries and the run manifest.

    Returns the file names. The manifest's ``sha256`` maps every file but
    itself to the sha256 of its bytes.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    columns, stems, price = RUN_LAYOUT[config.model]
    t = problem.tgrid.nodes
    leads = [ti + "," for ti in _fmt_all(t)]
    axes = (_fmt_all(problem.sgrid.nodes(k)) for k in range(len(columns)))
    coords = [",".join(c) for c in itertools.product(*axes)]
    header = ",".join(("t", *columns, "value"))
    digests = {}
    for stem, values in zip(stems, (sol.m, sol.v, *sol.alpha)):
        digests[f"{stem}.csv"] = _write_rows(out / f"{stem}.csv", header, coords, zip(leads, values))
        digests[f"{stem}.npy"] = _write_twin(out / f"{stem}.npy", values)
    digests[f"{price}.csv"] = _write_series_csv(out / f"{price}.csv", "t,value", t, [sol.p])
    digests[f"{price}.npy"] = _write_twin(out / f"{price}.npy", sol.p)
    digests.update((_export_ev if config.model == "ev" else _export_phev)(sol, problem, out))
    manifest = {
        "scenario": config.data,
        "scenario_hash": scenario_hash(config.data),
        "scenario_dir": str(Path(config.base_dir).resolve()),
        "solver_version": _solver_version(),
        "model": config.model,
        "grid": {
            "time_steps": problem.tgrid.n_steps,
            "space_cells": list(problem.sgrid.shape),
        },
        "convergence": {
            "converged": sol.converged,
            "iterations": sol.iterations,
            "tol": sol.tol,
            "residuals": [float(r) for r in sol.residuals],
        },
        "resampled_series": sorted(resampled or []),
        "sha256": digests,
        "wall_time_s": wall_time,
    }
    with open(out / "manifest.json", "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return [*digests, "manifest.json"]


def _solver_version() -> str:
    from . import __version__

    return __version__


def ev_purchases(m: np.ndarray, problem: EvProblem) -> np.ndarray:
    """Aggregate purchase series g + d/dt of the mean battery level."""
    return problem.params.g + mean_rate(m, problem.sgrid, problem.tgrid)


def _export_ev(sol: MfeSolution, problem: EvProblem, out: Path) -> dict[str, str]:
    t = problem.tgrid.nodes
    purchases = ev_purchases(sol.m, problem)
    regulated = purchases + problem.params.d
    baseline = float(purchases.mean()) + problem.params.d
    return {
        "purchases.csv": _write_series_csv(out / "purchases.csv", "t,value", t, [purchases]),
        "total_consumption.csv": _write_series_csv(
            out / "total_consumption.csv", "t,regulated,baseline", t, [regulated, baseline]),
    }


def _export_phev(sol: MfeSolution, problem: PhevProblem, out: Path) -> dict[str, str]:
    z2 = problem.sgrid.nodes(1)
    s1, s2 = _fmt_all(problem.sgrid.nodes(0)), _fmt_all(z2)
    ks = [int(np.argmin(np.abs(z2 - target))) for target in (0.5, 0.9)]
    sections = [(s2[k] + ",", np.stack([mu[0, :, k] for mu in sol.alpha], axis=1)) for k in ks]
    return {"control_sections.csv": _write_rows(out / "control_sections.csv", "z2,z1,mu1,mu2", s1, sections)}


def _read_twin(path: str | Path, shape: tuple[int, ...], digests: dict[str, str]) -> np.ndarray:
    """The twin ``<stem>.npy`` of the run file ``path``, once both match their sha256 in ``digests``.

    ``digests`` is the manifest's ``sha256`` mapping. The CSV is hashed,
    never parsed: its twin holds the same float64 values, so any changed,
    cut or missing byte of either file is an error naming it.
    """
    path = Path(path)
    twin = path.with_suffix(".npy")
    for checked in (path, twin):
        if digests.get(checked.name) != _sha256_file(checked):
            raise ScenarioError(checked.name, f"{checked} does not match its sha256 in manifest.json "
                                              "(changed or cut since export)")
    values = np.load(twin, allow_pickle=False)
    if values.shape != shape:
        raise ScenarioError(twin.name, f"{twin} holds shape {values.shape}, expected {shape}")
    return values


def _sha256_file(path: Path) -> str:
    """The sha256 of a file, read through one 1 MiB buffer so that a large CSV is never held whole."""
    digest, buffer = hashlib.sha256(), bytearray(1 << 20)
    try:
        with open(path, "rb") as handle:
            while size := handle.readinto(buffer):
                digest.update(memoryview(buffer)[:size])
    except OSError as exc:
        raise ScenarioError(path.name, f"could not read {path}: {exc.strerror or exc}") from exc
    return digest.hexdigest()


def read_field_csv(path: str | Path, shape: tuple[int, ...], digests: dict[str, str]) -> np.ndarray:
    """A long-format field CSV's values as (n_nodes, *space_shape), read from its hash-checked twin."""
    return _read_twin(path, shape, digests)


def read_series_csv(path: str | Path, n_nodes: int, digests: dict[str, str]) -> np.ndarray:
    """A per-time-node series CSV's ``n_nodes`` values, read from its hash-checked twin."""
    return _read_twin(path, (n_nodes,), digests)
