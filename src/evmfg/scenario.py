"""Declarative scenario files, series ingestion and result export.

Scenarios are YAML documents validated against a fixed schema (printed by
the ``schema`` CLI command). Loading fills defaults and canonicalizes the
document, so ``load_scenario(write_scenario(c)) == c``. Two scenarios ship
inside the package: ``ev_weekend`` (a weekend consumption profile with an
endogenous quadratic price) and ``phev_flat`` (constant consumption, two
battery packs).

Exports are long-format CSV with a fixed column order and 17-significant-
digit floats, so identical runs produce byte-identical CSV files. The text
of every float, field value, coordinate, time or series value alike, is
``format(x, ".17g")``: one vectorised numpy kernel makes it exactly, a block
of values at a time, and a value it cannot prove exact goes through
``"%.17g"`` on its own, so the bytes are those of per-value formatting. Each
field and price CSV has a binary twin ``<stem>.npy`` of the same float64
values, which is what the audits read back. The run manifest records the
scenario (resolved form, hash and directory), solver version, grid sizes,
convergence history, the sha256 of every exported file and wall time; the
wall time necessarily varies between runs, so bit-reproducibility is a
property of the CSV and twin set. ``read_manifest`` reads the manifest back,
so this module is the one that writes and reads a run directory's format.
"""

from __future__ import annotations

import hashlib
import itertools
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


class _YAML_DUMPER(yaml.SafeDumper):
    """The safe dumper, which quotes a string that ``_YAML_LOADER`` would read as another type."""


# YAML 1.1 reads an exponent without a decimal point or exponent sign (1e-5, 2.5e3) as a string;
# both classes read it as a float, as YAML 1.2 does, so a dumped string of that form is quoted.
for _yaml_class in (_YAML_LOADER, _YAML_DUMPER):
    _yaml_class.add_implicit_resolver("tag:yaml.org,2002:float",
                                      re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"),
                                      list("-+.0123456789"))


# What a run directory holds, per model: (the coordinate columns of a field
# file, between t and value; the field stems, m and v then the controls; the
# price series stem). Export writes each as <stem>.csv and its binary twin
# <stem>.npy; ``read_field_csv`` reads the twins back.
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


# The text of a float64 in run files is format(x, ".17g"), 17 significant digits that give it back
# exactly. ``_format_block`` makes it for a block of values in numpy: it scales |x| to a 17-digit
# integer by a power of ten in long double, cuts the integer into characters and lays them out.
# Values per call, as ev.CONTROL_BLOCK_CELLS: a call spans many 100-value slices (one call per slice
# doubled the ev export), and its largest temporary, the 0.8 MB gather index, stays small.
_FORMAT_BLOCK = 4096
# 10**k for k in -285..317, which scales every |x| in [1e-300, 1e300] to 17 digits even where log10
# misjudges its exponent by one; parsed from text, so each is correctly rounded.
_POW10_MIN = -285
_POW10 = np.array([np.longdouble(f"1e{k}") for k in range(_POW10_MIN, 318)])
# The scaled value rounds twice (the power of ten, the product), each time within eps / 2 relative,
# so below 1e17 it is off by less than 1e17 * eps: 0.011 with the x87 long double. A fraction that
# close to one half may round either way and takes the fallback; where long double is a plain
# double the margin exceeds 0.5 and every value does.
_ROUND_MARGIN = 1e17 * float(np.finfo(np.longdouble).eps)


def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """By k = 0..9999: its four digits as ASCII in one 32-bit word, and how many of them end it as zeros."""
    digits = (np.arange(10000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16) % 10)
    digits = digits.astype(np.uint8)
    zeros = np.cumprod(digits[:, ::-1] == 0, axis=1, dtype=np.uint8).sum(axis=1, dtype=np.uint8)
    return (digits + ord("0")).view(np.uint32).ravel(), zeros


_DIGITS4, _TRAILING_ZEROS = _digit_tables()
# A value's source row, in bytes: its first digit and three exponent digits, its other 16 digits,
# then ".-0e+" and NULs, which pad the text to 24 bytes.
_ROW_TAIL = np.frombuffer(b".-0e+\0\0\0", np.uint32)
_ROW_WORDS = 5 + len(_ROW_TAIL)


def _layouts() -> np.ndarray:
    """The source-row bytes of each text, by (negative, exponent class, significant digits - 1), flattened.

    Classes 0-20 are fixed notation for the exponents -4..16; 21-24 are exponent
    notation with a positive or negative exponent of two or three digits.
    """
    exponent, digits = [1, 2, 3], [0, *range(4, 20)]
    dot, minus, zero, e, plus, nul = range(20, 26)
    table = np.full((2, 25, 17, 24), nul, dtype=np.uint8)
    for negative, cls, count in itertools.product(range(2), range(25), range(1, 18)):
        fraction = [dot, *digits[1:count]] if count > 1 else []
        if cls > 20:  # 21 + (negative exponent) + 2 * (three exponent digits)
            sign = minus if (cls - 21) % 2 else plus
            text = [digits[0], *fraction, e, sign, *exponent[cls < 23:]]
        elif cls >= 4:  # exponent cls - 4 >= 0: the integer part keeps its zeros
            whole = cls - 3
            text = digits[:whole] + ([dot, *digits[whole:count]] if count > whole else [])
        else:
            text = [zero, dot] + [zero] * (3 - cls) + digits[:count]
        text = [minus] * negative + text
        table[negative, cls, count - 1, :len(text)] = text
    return table.reshape(-1, 24)


_LAYOUTS = _layouts()
_ROW_STARTS = np.arange(_FORMAT_BLOCK)[:, None] * (4 * _ROW_WORDS)


def _source_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each value's source row, the ``_LAYOUTS`` row of its text, and whether the row is exact.

    A value is not exact where it is zero, not finite or |v| is outside
    [1e-300, 1e300], where log10 misjudged its exponent, and where its scaled
    fraction lies within ``_ROUND_MARGIN`` of one half.
    """
    magnitude = np.abs(x)
    exact = (magnitude >= 1e-300) & (magnitude <= 1e300)
    magnitude[~exact] = 1.0  # a stand-in: the fallback formats these
    exp10 = np.floor(np.log10(magnitude)).astype(np.intp)
    scaled = magnitude.astype(np.longdouble) * _POW10[16 - _POW10_MIN - exp10]
    whole = scaled.astype(np.int64)
    fraction = scaled - whole
    up = fraction > 0.5 + _ROUND_MARGIN
    exact &= (whole >= 10**16) & (whole < 10**17 - 1) & (up | (fraction < 0.5 - _ROUND_MARGIN))
    first, rest = np.divmod(np.where(exact, whole + up, 10**16), 10**16)
    high, low = np.divmod(rest, 10**8)
    groups = (*np.divmod(high, 10**4), *np.divmod(low, 10**4))
    exponent = np.abs(exp10)
    source = np.empty((len(x), _ROW_WORDS), np.uint32)
    source[:, 0] = _DIGITS4[first * 1000 + exponent]
    for word, group in enumerate(groups, start=1):
        source[:, word] = _DIGITS4[group]
    for word, tail in enumerate(_ROW_TAIL, start=5):
        source[:, word] = tail
    zeros = reduce(lambda z, group: _TRAILING_ZEROS[group] + (group == 0) * z, groups[1:], _TRAILING_ZEROS[groups[0]])
    cls = np.where((exp10 >= -4) & (exp10 <= 16), exp10 + 4, 21 + (exp10 < 0) + 2 * (exponent >= 100))
    return source, ((x < 0) * 25 + cls) * 17 + 16 - zeros, exact


def _format_block(x: np.ndarray) -> list[bytes]:
    """``format(v, ".17g")`` of each of at most ``_FORMAT_BLOCK`` values, as ASCII bytes.

    A value whose row is not exact (``_source_rows``) goes through ``"%.17g"`` on its own.
    """
    source, layout, exact = _source_rows(x)
    chars = source.view(np.uint8).ravel().take(_LAYOUTS.take(layout, axis=0) + _ROW_STARTS[:len(x)])
    texts = chars.view("S24").ravel().tolist()  # without the NULs that pad each text
    inexact = np.flatnonzero(~exact)
    for i, value in zip(inexact.tolist(), x[inexact].tolist()):
        texts[i] = b"%.17g" % value
    return texts


def _format_17g(values) -> list[bytes]:
    """``format(v, ".17g")`` of every value, as ASCII bytes, formatted ``_FORMAT_BLOCK`` values at a time."""
    x = np.asarray(values, dtype=float).ravel()
    texts = []
    for start in range(0, x.size, _FORMAT_BLOCK):
        texts += _format_block(x[start:start + _FORMAT_BLOCK])
    return texts


class _HashingWriter:
    """A binary file handle that hashes (sha256) every byte written through it."""

    def __init__(self, handle):
        self.handle = handle
        self.sha256 = hashlib.sha256()

    def write(self, data) -> int:
        self.sha256.update(data)
        return self.handle.write(data)


def _write_rows(path: Path, header: str, coords: list[bytes], leads: list[bytes], values) -> str:
    """Write ``header``, then per slice i and coordinate j the row ``leads[i] + coords[j]``, ``values[i, j]``.

    ``values`` has shape (len(leads), len(coords)[, columns]): a field file has
    one slice per time node, led by its time. Coordinates and leads arrive
    formatted. Whole slices of about ``_FORMAT_BLOCK`` values are formatted
    and written at a time, each block through one ``%``-template, so the file
    is never held whole. Returns the sha256 of the file, hashed as it is written.
    """
    values = np.asarray(values, dtype=float).reshape(len(leads), len(coords), -1)
    cell = b",%s" * values.shape[2] + b"\n"
    rows = max(1, _FORMAT_BLOCK // values[0].size)
    with open(path, "wb") as handle:
        out = _HashingWriter(handle)
        out.write(header.encode() + b"\n")
        for start in range(0, len(leads), rows):
            texts = tuple(_format_17g(values[start:start + rows]))
            out.write(b"".join(lead + (cell + lead).join(coords) + cell for lead in leads[start:start + rows]) % texts)
    return out.sha256.hexdigest()


def _write_series_csv(path: Path, header: str, t: np.ndarray, columns: list[np.ndarray]) -> str:
    return _write_rows(path, header, _format_17g(t), [b""], np.column_stack(columns))


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
    itself to the sha256 of its bytes, and ``input_sha256`` each input CSV
    of the scenario (``scenario_inputs``, by its path relative to
    ``scenario_dir``) to the sha256 of its bytes.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    columns, stems, price = RUN_LAYOUT[config.model]
    t = problem.tgrid.nodes
    leads = [ti + b"," for ti in _format_17g(t)]
    axes = (_format_17g(problem.sgrid.nodes(k)) for k in range(len(columns)))
    coords = [b",".join(c) for c in itertools.product(*axes)]
    header = ",".join(("t", *columns, "value"))
    digests = {}
    for stem, values in zip(stems, (sol.m, sol.v, *sol.alpha)):
        digests[f"{stem}.csv"] = _write_rows(out / f"{stem}.csv", header, coords, leads, values)
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
        "purchases.csv": _write_series_csv(out / "purchases.csv", "t,value", t, [purchases]),
        "total_consumption.csv": _write_series_csv(
            out / "total_consumption.csv", "t,regulated,baseline", t, [regulated, baseline]),
    }


def _export_phev(sol: MfeSolution, problem: PhevProblem, out: Path) -> dict[str, str]:
    z2 = problem.sgrid.nodes(1)
    s1, s2 = _format_17g(problem.sgrid.nodes(0)), _format_17g(z2)
    ks = [int(np.argmin(np.abs(z2 - target))) for target in (0.5, 0.9)]
    sections = np.stack([mu[0][:, ks].T for mu in sol.alpha], axis=2)  # (section, z1, control)
    leads = [s2[k] + b"," for k in ks]
    return {"control_sections.csv": _write_rows(out / "control_sections.csv", "z2,z1,mu1,mu2", s1, leads, sections)}


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
    """The values of the run file ``path``, of ``shape`` (a field's is (n_nodes, *cells)), from its twin ``<stem>.npy``.

    The CSV is hashed, never parsed: the twin holds the same float64 values. A changed, cut or missing
    byte of either file, against its sha256 in ``digests`` (the manifest's ``sha256``), is an error naming it.
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


def read_series_csv(path: str | Path, n_nodes: int, digests: dict[str, str]) -> np.ndarray:
    """A per-time-node series CSV's ``n_nodes`` values, read as ``read_field_csv`` reads a field."""
    return read_field_csv(path, (n_nodes,), digests)
