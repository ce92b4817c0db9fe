"""Declarative scenario files, series ingestion and result export.

Scenarios are YAML documents validated against a fixed schema (printed by
the ``schema`` CLI command). Loading fills defaults and canonicalizes the
document, so ``load_scenario(write_scenario(c)) == c``. Two scenarios ship
inside the package: ``ev_weekend`` (a weekend consumption profile with an
endogenous quadratic price) and ``phev_flat`` (constant consumption, two
battery packs).

A run directory stores each solved field (density, value and the controls)
once, as ``<stem>.npy`` (``np.save`` without pickles): the float64 bits
themselves, of shape (time node, *cells). The per-node series (the price,
on the 1D model the purchase and load curves) and the 2D model's control
sections are small CSVs whose every value is ``"%.17g"``, 17 significant
digits that give the float64 back exactly, so identical runs produce
byte-identical files. The run manifest records the scenario (resolved
form, hash and directory), solver version, grid sizes, convergence
history, the sha256 of every exported file and wall time; the wall time
necessarily varies between runs, so bit-reproducibility is a property of
the other files. ``read_manifest`` reads the manifest back, so this module
is the one that writes and reads a run directory's format.
"""

from __future__ import annotations

import hashlib
import json
import operator
import re
from dataclasses import MISSING, asdict, dataclass, field, fields
from functools import reduce
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from .errors import ScenarioError, as_float, as_int
from .ev import EvParams, EvProblem, ev_load
from .grids import SpaceGrid, TimeGrid
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
  # ev model:    g, d, sigma >= 0, H > 0
  # phev model:  g, Q1 > 0, Q2 > 0
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
  exponent: <float>        # default 2.0; needs series.d >= 0 if fractional, d > 0 if negative
  coupled: <bool>          # default true; false freezes demand out of p
  # phev model:
  offset: <float >= 0>     # default 0.5, added to the positive grid draw
  r2: <float>              # required, flat second-pack price

initial_density:           # normalized to unit mass on the grid
  kind: triangle | truncated_gaussian | histogram
  # triangle (ev only):    center, halfwidth > 0; support within [0, 1]
  # truncated_gaussian:    mean (scalar for ev, [m1, m2] for phev),
  #                        variance (isotropic, > 0)
  # histogram:             csv: <path>, one value per cell (row-major)

solver:                    # optional block, defaults below
  max_iters: 200           # int >= 1
  tol: 1.0e-06             # > 0
  damping: 0.5             # in (0, 1], weight of the plain (unaccelerated) step

# Overrides (--set) use dotted paths into this document, e.g.
#   --set solver.max_iters=50   --set price.coupled=false
# Bare solver keys (max_iters, tol, damping) are accepted as shorthand.
# Numbers read as in YAML 1.2: 1e-5 is a float, like 1.0e-05.
"""

_SOLVER_DEFAULTS = asdict(SolverOptions())
# Each model's params class, which names the scenario's series, cost and
# price keys and holds the price defaults, and the problem that solves it.
MODELS = {"ev": (EvParams, EvProblem), "phev": (PhevParams, PhevProblem)}


class _YAML_LOADER(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """The safe loader, libyaml's where PyYAML was built with it: the same documents, parsed in C."""


class _YAML_DUMPER(getattr(yaml, "CSafeDumper", yaml.SafeDumper)):
    """The safe dumper, libyaml's where PyYAML was built with it, which quotes a string ``_YAML_LOADER`` reads as another type.

    libyaml's emitter writes PyYAML's document for every ASCII scenario, but
    it folds a long double-quoted non-ASCII string otherwise, so the
    ``scenario_hash`` of a scenario with such a name depends on the build.
    """


# YAML 1.1 reads an exponent without a decimal point or exponent sign (1e-5, 2.5e3) as a string;
# both classes read it as a float, as YAML 1.2 does, so a dumped string of that form is quoted.
for _yaml_class in (_YAML_LOADER, _YAML_DUMPER):
    _yaml_class.add_implicit_resolver("tag:yaml.org,2002:float",
                                      re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"),
                                      list("-+.0123456789"))


# What a run directory holds, per model: (the field stems, m and v then the
# controls; the price series stem). Export writes each field as <stem>.npy, an
# array of shape (n_nodes, *cells), and the price as the series <stem>.csv;
# ``read_field_csv`` and ``read_series_csv`` read them back.
RUN_LAYOUT = {
    "ev": (("m", "v", "alpha"), "price"),
    "phev": (("m", "v", "mu1", "mu2"), "r1"),
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


def _section(data: dict, key: str, allowed, default=None) -> dict:
    """The mapping ``data[key]`` (``default`` where absent; required where None), holding only ``allowed`` keys."""
    section = _require(data, key, "") if default is None else data.get(key, default)
    if not isinstance(section, dict):
        raise ScenarioError(key, "expected a mapping")
    _reject_unknown(section, allowed, key)
    return section


def _validate_series_spec(spec, fld: str):
    """Normalize a series entry to one of the four canonical forms."""
    if isinstance(spec, bool):
        raise ScenarioError(fld, "expected a series, got a boolean")
    if isinstance(spec, (int, float)):
        return as_float(spec, fld)
    if isinstance(spec, list):
        return [as_float(v, f"{fld}[{k}]") for k, v in enumerate(spec)]
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
            times = [as_float(v, f"{fld}.times[{k}]") for k, v in enumerate(times)]
            values = [as_float(v, f"{fld}.values[{k}]") for k, v in enumerate(values)]
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
        weight = as_float(_require(spec, "weight", f"{fld}."), f"{fld}.weight")
        if weight < 0.0:
            raise ScenarioError(f"{fld}.weight", "must be nonnegative")
        target = as_float(_require(spec, "target", f"{fld}."), f"{fld}.target")
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
        center = as_float(_require(spec, "center", f"{fld}."), f"{fld}.center")
        halfwidth = as_float(_require(spec, "halfwidth", f"{fld}."), f"{fld}.halfwidth")
        if halfwidth <= 0.0:
            raise ScenarioError(f"{fld}.halfwidth", "must be positive")
        if center - halfwidth < 0.0 or center + halfwidth > 1.0:
            raise ScenarioError(fld, f"triangle support [{center - halfwidth}, {center + halfwidth}] not within [0, 1]")
        return {"kind": "triangle", "center": center, "halfwidth": halfwidth}
    if kind == "truncated_gaussian":
        _reject_unknown(spec, {"kind", "mean", "variance"}, fld)
        mean = _require(spec, "mean", f"{fld}.")
        if model == "ev":
            mean = as_float(mean, f"{fld}.mean")
        else:
            if not isinstance(mean, list) or len(mean) != 2:
                raise ScenarioError(f"{fld}.mean", "expected [m1, m2] for the 2D model")
            mean = [as_float(v, f"{fld}.mean[{k}]") for k, v in enumerate(mean)]
        variance = as_float(_require(spec, "variance", f"{fld}."), f"{fld}.variance")
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

    Grid and solver ranges are checked by building the grids and ``SolverOptions``;
    a price key's default is its params field's.
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
    if not isinstance(model, str) or model not in MODELS:
        raise ScenarioError("model", f"expected {' or '.join(map(repr, MODELS))}, got {model!r}")
    params_class = MODELS[model][0]
    tgrid = TimeGrid(_require(data, "horizon", ""), _require(data, "time_steps", ""))

    cells = _require(_section(data, "space", {"cells"}), "cells", "space.")
    if model == "ev":
        cells = as_int(cells, "space.cells")  # a scalar, where the grid would also take a one-entry list
    elif not isinstance(cells, list) or len(cells) != 2:
        raise ScenarioError("space.cells", "expected [n1, n2] for the 2D model")
    shape = SpaceGrid(cells).shape
    cells = shape[0] if model == "ev" else list(shape)

    series_spec = _section(data, "series", params_class.SERIES)
    series = {}
    for key in params_class.SERIES:
        series[key] = _validate_series_spec(_require(series_spec, key, "series."), f"series.{key}")

    costs_spec = _section(data, "costs", params_class.COSTS)
    costs = {}
    for key in params_class.COSTS:
        costs[key] = _validate_cost_spec(_require(costs_spec, key, "costs."), f"costs.{key}")

    price_spec = _section(data, "price", params_class.PRICE, {})
    defaults = {f.name: f.default for f in fields(params_class)}
    price = {}
    for key in params_class.PRICE:
        default = defaults[key]
        value = _require(price_spec, key, "price.") if default is MISSING else price_spec.get(key, default)
        if not isinstance(default, bool):
            value = as_float(value, f"price.{key}")
        elif not isinstance(value, bool):
            raise ScenarioError(f"price.{key}", "expected a boolean")
        price[key] = value

    density = _validate_density_spec(_require(data, "initial_density", ""), model, "initial_density")
    solver = asdict(SolverOptions(**_section(data, "solver", _SOLVER_DEFAULTS, {})))

    name = data.get("name", name_default)
    if not isinstance(name, str) or not name:
        raise ScenarioError("name", "expected a nonempty string")

    return {
        "schema_version": SCHEMA_VERSION,
        "name": name,
        "model": model,
        "horizon": tgrid.t1,
        "time_steps": tgrid.n_steps,
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
    """Load a scenario from a file path or a bundled scenario name (a directory is neither)."""
    path = Path(path_or_name)
    if path.is_file():
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
    return yaml.dump(data, Dumper=_YAML_DUMPER, sort_keys=True, default_flow_style=False)


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


def _load_csv(path: Path, fld: str, **loadtxt_kwargs) -> np.ndarray:
    """``np.loadtxt`` of the CSV ``path``; a missing or unparsable file raises ``ScenarioError`` on ``fld``."""
    if not path.exists():
        raise ScenarioError(fld, f"file not found: {path}")
    try:
        return np.loadtxt(path, delimiter=",", **loadtxt_kwargs)
    except ValueError as exc:
        raise ScenarioError(fld, f"could not parse {path}: {exc}") from exc


def _materialize_series(spec, tgrid: TimeGrid, base_dir: Path, fld: str) -> np.ndarray:
    """The series on the time grid, resampled from a mapping form; the params check its length."""
    if isinstance(spec, (int, float)):
        return np.full(tgrid.n_nodes, float(spec))
    if isinstance(spec, list):
        return np.asarray(spec, dtype=float)
    if "csv" in spec:
        path = base_dir / spec["csv"]
        table = _load_csv(path, fld, skiprows=1, ndmin=2)
        if table.shape[1] < 2 or len(table) < 2:
            raise ScenarioError(fld, f"{path} needs two columns (t, value) and at least 2 rows")
        if np.any(np.diff(table[:, 0]) <= 0.0):
            raise ScenarioError(fld, "csv times must be strictly increasing")
        return np.interp(tgrid.nodes, table[:, 0], table[:, 1])
    times = np.asarray(spec["times"], dtype=float)
    values = np.asarray(spec["values"], dtype=float)
    return np.interp(tgrid.nodes, times, values)


def _make_cost(spec: dict, running: bool = False):
    """The cost of the state levels z = (x,) or (z1, z2); a running cost takes the time t before them."""
    skip = 1 if running else 0
    if spec["kind"] == "zero":
        return lambda *args: np.zeros_like(args[skip])
    weight, target = spec["weight"], spec["target"]
    return lambda *args: weight * reduce(operator.sub, args[skip:], target) ** 2  # target - z1 - z2, in order


def _initial_density(spec: dict, sgrid: SpaceGrid, base_dir: Path) -> np.ndarray:
    """Initial density on the grid, normalized to unit mass."""
    axes = sgrid.meshes()
    if spec["kind"] == "triangle":
        values = np.maximum(0.0, 1.0 - np.abs(axes[0] - spec["center"]) / spec["halfwidth"])
    elif spec["kind"] == "truncated_gaussian":
        mean = np.atleast_1d(spec["mean"])
        values = np.exp(-sum((z - c) ** 2 for z, c in zip(axes, mean)) / (2.0 * spec["variance"]))
    else:
        values = _load_csv(base_dir / spec["csv"], "initial_density.csv", ndmin=len(sgrid.shape))
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


def scenario_inputs(data: dict) -> dict[str, str]:
    """The CSVs a scenario reads, scenario field -> path relative to its directory: ``{csv}`` series, a histogram."""
    inputs = {f"series.{key}": spec["csv"] for key, spec in data["series"].items()
              if isinstance(spec, dict) and "csv" in spec}
    if data["initial_density"]["kind"] == "histogram":
        inputs["initial_density"] = data["initial_density"]["csv"]
    return inputs


def check_inputs(config: ScenarioConfig, digests: dict) -> None:
    """Raise ``ScenarioError`` on the field of the first input CSV whose bytes differ from its sha256 in ``digests``."""
    for fld, name in scenario_inputs(config.data).items():
        path = Path(config.base_dir) / name
        if name not in digests:
            raise ScenarioError(f"{fld}.csv", f"manifest.json records no sha256 for {path}; re-run to record it")
        if digests[name] != _sha256_file(path):
            raise ScenarioError(f"{fld}.csv", f"{path} does not match its sha256 in manifest.json "
                                              "(changed since the run)")


def build_problem(config: ScenarioConfig):
    """Instantiate (problem, solver options, resampled-series names)."""
    data = config.data
    tgrid = TimeGrid(t1=data["horizon"], n_steps=data["time_steps"])
    sgrid = SpaceGrid(data["space"]["cells"])
    params_class, problem_class = MODELS[data["model"]]
    keys = params_class.SERIES
    series = {key: _materialize_series(data["series"][key], tgrid, config.base_dir, f"series.{key}") for key in keys}
    resampled = [key for key in keys if isinstance(data["series"][key], dict)]
    costs = {key: _make_cost(data["costs"][key], running) for key, running in zip(params_class.COSTS, (True, False))}
    params = params_class(tgrid=tgrid, **series, **costs, **data["price"])
    m0 = _initial_density(data["initial_density"], sgrid, config.base_dir)
    problem = problem_class(params=params, sgrid=sgrid, m0=m0)
    options = SolverOptions(**data["solver"])
    return problem, options, resampled


class _HashingWriter:
    """A binary file handle that hashes (sha256) every byte written through it."""

    def __init__(self, handle):
        self.handle = handle
        self.sha256 = hashlib.sha256()

    def write(self, data) -> int:
        self.sha256.update(data)
        return self.handle.write(data)


def _write_csv(path: Path, header: str, columns: list[np.ndarray]) -> str:
    """Write ``header``, then one row of the equal-length ``columns`` per line; returns the file's sha256.

    Every value is ``%.17g``: 17 significant digits give each float64 back exactly.
    """
    rows = np.column_stack(columns).tolist()
    template = b",".join([b"%.17g"] * len(columns)) + b"\n"
    data = header.encode() + b"\n" + b"".join(template % tuple(row) for row in rows)
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def _write_npy(path: Path, values: np.ndarray) -> str:
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
    """Write the ``RUN_LAYOUT`` files, the model's summaries and the run manifest.

    Returns the file names. The manifest's ``sha256`` maps every file but
    itself to the sha256 of its bytes, and ``input_sha256`` each input CSV
    of the scenario (``scenario_inputs``, by its path relative to
    ``scenario_dir``) to the sha256 of its bytes. The model's field CSVs
    and price ``.npy`` of the older layout are deleted from ``out_dir``
    where present, so they cannot pass for this run's files.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stems, price = RUN_LAYOUT[config.model]
    for stale in (*(f"{stem}.csv" for stem in stems), f"{price}.npy"):
        (out / stale).unlink(missing_ok=True)
    digests = {f"{stem}.npy": _write_npy(out / f"{stem}.npy", values)
               for stem, values in zip(stems, (sol.m, sol.v, *sol.alpha))}
    digests[f"{price}.csv"] = _write_csv(out / f"{price}.csv", "t,value", [problem.tgrid.nodes, sol.p])
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
        "input_sha256": {name: _sha256_file(Path(config.base_dir) / name)
                         for name in scenario_inputs(config.data).values()},
        "wall_time_s": wall_time,
    }
    with open(out / "manifest.json", "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return [*digests, "manifest.json"]


def read_manifest(run_dir: Path) -> tuple[ScenarioConfig, dict[str, str]]:
    """The validated scenario of the run ``run_dir`` and its manifest's ``sha256`` mapping (``ScenarioError``).

    The scenario's input CSVs resolve against ``scenario_dir`` and must match ``input_sha256`` (``check_inputs``).
    """
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.exists():
        raise ScenarioError("run_dir", f"manifest not found: {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except ValueError as exc:  # not JSON, or not text
        raise ScenarioError("manifest.json", f"{manifest_path} is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict) or not isinstance(manifest.get("scenario"), dict):
        raise ScenarioError("manifest.json", f"no 'scenario' mapping in {manifest_path}")
    scenario_dir = manifest.get("scenario_dir")
    if not isinstance(scenario_dir, str):
        raise ScenarioError("manifest.json", f"'scenario_dir' is not a path in {manifest_path}")
    digests = manifest.get("sha256")
    if not isinstance(digests, dict):
        raise ScenarioError("manifest.json", f"no 'sha256' mapping in {manifest_path}; a run written "
                                             "before run files were hash-checked must be re-run")
    inputs = manifest.get("input_sha256", {})  # absent from a run of a scenario with no input CSV
    if not isinstance(inputs, dict):
        raise ScenarioError("manifest.json", f"'input_sha256' is not a mapping in {manifest_path}")
    config = ScenarioConfig(data=validate_config(manifest["scenario"]), base_dir=Path.cwd() / scenario_dir)
    check_inputs(config, inputs)
    return config, digests


def _solver_version() -> str:
    from . import __version__

    return __version__


def _export_ev(sol: MfeSolution, problem: EvProblem, out: Path) -> dict[str, str]:
    t = problem.tgrid.nodes
    purchases, regulated, baseline = ev_load(sol.m, problem.params, problem.sgrid)
    return {
        "purchases.csv": _write_csv(out / "purchases.csv", "t,value", [t, purchases]),
        "total_consumption.csv": _write_csv(out / "total_consumption.csv", "t,regulated,baseline",
                                            [t, regulated, baseline]),
    }


def _export_phev(sol: MfeSolution, problem: PhevProblem, out: Path) -> dict[str, str]:
    z1, z2 = problem.sgrid.nodes(0), problem.sgrid.nodes(1)
    ks = [int(np.argmin(np.abs(z2 - target))) for target in (0.5, 0.9)]
    columns = [np.repeat(z2[ks], len(z1)), np.tile(z1, len(ks)), *(mu[0][:, ks].T.ravel() for mu in sol.alpha)]
    return {"control_sections.csv": _write_csv(out / "control_sections.csv", "z2,z1,mu1,mu2", columns)}


def _sha256_file(path: Path) -> str:
    """The sha256 of a run file or an input CSV, read through one 1 MiB buffer so that it is never held whole."""
    digest, buffer = hashlib.sha256(), bytearray(1 << 20)
    try:
        with open(path, "rb") as handle:
            while size := handle.readinto(buffer):
                digest.update(memoryview(buffer)[:size])
    except OSError as exc:
        raise ScenarioError(path.name, f"could not read {path}: {exc.strerror or exc}") from exc
    return digest.hexdigest()


def _check_sha256(path: Path, digests: dict[str, str]) -> None:
    """Raise ``ScenarioError`` naming the run file ``path`` unless its bytes match its sha256 in ``digests``."""
    if digests.get(path.name) != _sha256_file(path):
        raise ScenarioError(path.name, f"{path} does not match its sha256 in manifest.json "
                                       "(changed or cut since export)")


def read_field_csv(path: str | Path, shape: tuple[int, ...], digests: dict[str, str]) -> np.ndarray:
    """The field in the run file ``path`` (``<stem>.npy``), of ``shape`` (n_nodes, *cells).

    A changed, cut or missing byte, against the file's sha256 in ``digests``
    (the manifest's ``sha256``), is an error naming it, and so is another
    shape. The name is older than the ``.npy`` layout. It stays because the
    benchmark's read spans rebind it by name and size each read from
    ``path`` (ROADMAP item 9).
    """
    path = Path(path)
    _check_sha256(path, digests)
    values = np.load(path, allow_pickle=False)
    if values.shape != shape:
        raise ScenarioError(path.name, f"{path} holds shape {values.shape}, expected {shape}")
    return values


def read_series_csv(path: str | Path, n_nodes: int, digests: dict[str, str]) -> np.ndarray:
    """The ``n_nodes`` values of the series CSV ``path`` (columns t, value), hash-checked as a field is."""
    path = Path(path)
    _check_sha256(path, digests)
    values = _load_csv(path, path.name, skiprows=1, usecols=1, ndmin=1)
    if values.shape != (n_nodes,):
        raise ScenarioError(path.name, f"{path} holds {values.size} values, expected {n_nodes}")
    return values
