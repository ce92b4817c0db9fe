"""Scenario documents: validation, overrides, hashing, and run exports."""

import dataclasses
import hashlib
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from evmfg import (
    EvParams,
    PhevParams,
    ScenarioError,
    SolverOptions,
    SpaceGrid,
    TimeGrid,
    apply_overrides,
    build_problem,
    bundled_scenarios,
    canonical_yaml,
    ev_load,
    integrate,
    load_scenario,
    mean_rate,
    read_field_csv,
    read_series_csv,
    scenario_hash,
    solve_mfe,
    validate_config,
    write_scenario,
)
from evmfg import scenario
from evmfg.scenario import RUN_LAYOUT, SCHEMA_TEXT, ScenarioConfig, check_inputs, scenario_inputs


def _minimal_ev(**tweaks):
    doc = {
        "schema_version": 1,
        "model": "ev",
        "horizon": 0.2,
        "time_steps": 12,
        "space": {"cells": 20},
        "series": {"g": 0.4, "d": 0.8, "sigma": 0.1, "H": 2.0},
        "costs": {
            "f": {"kind": "quadratic_shortage", "weight": 1.0, "target": 1.0},
            "kappa": {"kind": "quadratic_shortage", "weight": 1.0, "target": 1.0},
        },
        "initial_density": {"kind": "triangle", "center": 0.5, "halfwidth": 0.2},
    }
    doc.update(tweaks)
    return doc


def _minimal_phev(**tweaks):
    doc = {
        "schema_version": 1,
        "model": "phev",
        "horizon": 0.2,
        "time_steps": 8,
        "space": {"cells": [8, 8]},
        "series": {"g": 0.2, "Q1": 125.0, "Q2": 125.0},
        "costs": {
            "s": {"kind": "quadratic_shortage", "weight": 20.0, "target": 2.0},
            "xi": {"kind": "quadratic_shortage", "weight": 10.0, "target": 2.0},
        },
        "price": {"r2": 0.7},
        "initial_density": {"kind": "truncated_gaussian", "mean": [0.4, 0.6], "variance": 0.02},
    }
    doc.update(tweaks)
    return doc


# ---------------------------------------------------------------------------
# bundled scenarios


def test_bundled_scenario_names():
    assert bundled_scenarios() == ["ev_weekend", "phev_flat"]


def test_ev_weekend_contents():
    cfg = load_scenario("ev_weekend")
    d = cfg.data
    assert d["model"] == "ev"
    assert d["horizon"] == pytest.approx(0.2)
    assert d["time_steps"] == 143
    assert d["space"]["cells"] == 100
    assert d["price"] == {"exponent": 2.0, "coupled": True}
    assert d["initial_density"] == {"kind": "triangle", "center": 0.5, "halfwidth": 0.2}
    assert d["costs"]["f"] == {"kind": "quadratic_shortage", "weight": 1.0, "target": 1.0}
    assert d["series"]["sigma"] == pytest.approx(0.1)
    assert d["series"]["H"] == pytest.approx(30.0)
    # tabulated weekend series resample onto the fine grid
    assert isinstance(d["series"]["g"], dict) and "times" in d["series"]["g"]
    assert isinstance(d["series"]["d"], dict) and "times" in d["series"]["d"]


def test_phev_flat_contents():
    cfg = load_scenario("phev_flat")
    d = cfg.data
    assert d["model"] == "phev"
    assert d["horizon"] == pytest.approx(0.2)
    assert d["time_steps"] == 11
    assert d["space"]["cells"] == [16, 16]
    assert d["price"] == {"offset": 0.5, "r2": 0.7}
    assert d["series"]["g"] == pytest.approx(0.2)
    assert d["series"]["Q1"] == pytest.approx(125.0)
    assert d["initial_density"]["kind"] == "truncated_gaussian"
    assert d["initial_density"]["mean"] == [0.4, 0.6]
    assert d["initial_density"]["variance"] == pytest.approx(0.02)


def test_load_missing_scenario_raises():
    with pytest.raises(ScenarioError, match="not found"):
        load_scenario("no_such_scenario")


def test_directory_is_not_a_scenario_file(tmp_path, monkeypatch):
    # an earlier `evmfg run ev_weekend --out ev_weekend` leaves this directory
    bundled = load_scenario("ev_weekend")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ev_weekend").mkdir()
    (tmp_path / "mine").mkdir()
    assert load_scenario("ev_weekend").data == bundled.data
    with pytest.raises(ScenarioError, match="not found: mine"):
        load_scenario("mine")


# ---------------------------------------------------------------------------
# round trip and hashing


def test_a_file_that_is_not_yaml_is_named(tmp_path):
    text = "schema_version: 1\nmodel: [ev\n"
    with pytest.raises(yaml.YAMLError) as parse:
        yaml.load(text, Loader=scenario._YAML_LOADER)
    (tmp_path / "broken.yaml").write_text(text)
    with pytest.raises(ScenarioError) as err:
        load_scenario(tmp_path / "broken.yaml")
    assert str(err.value) == f"document: not valid YAML: {parse.value}"


@pytest.mark.parametrize("text, value", [("1e-5", 1e-5), ("2.5e3", 2500.0), ("+1E2", 100.0), (".5e1", 5.0),
                                         ("1.0e-06", 1e-6)])
def test_an_exponent_reads_as_a_float_in_a_file_and_an_override(text, value, tmp_path):
    # YAML 1.1 reads a number with no decimal point or no exponent sign as a string; YAML 1.2 does not
    assert apply_overrides(load_scenario("ev_weekend"), [f"solver.tol={text}"]).data["solver"]["tol"] == value
    document = canonical_yaml(load_scenario("ev_weekend").data)
    assert "tol: 1.0e-06\n" in document
    (tmp_path / "doc.yaml").write_text(document.replace("tol: 1.0e-06\n", f"tol: {text}\n"))
    assert load_scenario(tmp_path / "doc.yaml").data["solver"]["tol"] == value


@pytest.mark.parametrize("name", ["1e5", "1e", "e5", "1e5x"])
def test_a_name_like_an_exponent_round_trips(name, tmp_path):
    cfg = apply_overrides(load_scenario("ev_weekend"), [f"name='{name}'"])
    assert cfg.name == name
    write_scenario(cfg, tmp_path / "doc.yaml")
    assert load_scenario(tmp_path / "doc.yaml") == cfg


def test_round_trip_preserves_document(tmp_path):
    cfg = load_scenario("ev_weekend")
    out = tmp_path / "copy.yaml"
    write_scenario(cfg, out)
    again = load_scenario(out)
    assert again.data == cfg.data
    assert scenario_hash(again.data) == scenario_hash(cfg.data)


def test_scenario_hash_ignores_key_order():
    a = validate_config(_minimal_ev())
    shuffled = dict(reversed(list(_minimal_ev().items())))
    b = validate_config(shuffled)
    assert scenario_hash(a) == scenario_hash(b)


def test_scenario_hash_tracks_values():
    a = validate_config(_minimal_ev())
    b = validate_config(_minimal_ev(horizon=0.3))
    assert scenario_hash(a) != scenario_hash(b)


def test_canonical_yaml_is_sorted_and_parseable():
    data = validate_config(_minimal_ev())
    text = canonical_yaml(data)
    assert yaml.safe_load(text) == data
    keys = [line.split(":")[0] for line in text.splitlines() if line and not line[0].isspace()]
    assert keys == sorted(keys)


_TRICKY_ASCII = {"name": "1e-5", "quoted": ["yes", "no", "1e5", "", "x: y", "a" * 200], "inf": float("inf"),
                 "-inf": float("-inf"), "nan": float("nan"), "nested": [[1, 2.5e-300], {"key": None, "on": True}]}


@pytest.mark.skipif(not hasattr(yaml, "CSafeDumper"), reason="PyYAML built without libyaml")
@pytest.mark.parametrize("name", bundled_scenarios() + ["tricky_ascii"])
def test_libyamls_emitter_writes_the_pure_python_emitters_document(name):
    class PythonDumper(yaml.SafeDumper):
        yaml_implicit_resolvers = scenario._YAML_DUMPER.yaml_implicit_resolvers  # the same float rule

    assert issubclass(scenario._YAML_DUMPER, yaml.CSafeDumper)
    data = _TRICKY_ASCII if name == "tricky_ascii" else load_scenario(name).data
    assert canonical_yaml(data) == yaml.dump(data, Dumper=PythonDumper, sort_keys=True, default_flow_style=False)


# ---------------------------------------------------------------------------
# validation errors name the offending field


@pytest.mark.parametrize(
    "mutate, field_fragment",
    [
        (lambda d: d.pop("horizon"), "horizon"),
        (lambda d: d.update(horizon=-1.0), "horizon"),
        (lambda d: d.update(schema_version=2), "schema_version"),
        (lambda d: d.update(model="diesel"), "model"),
        (lambda d: d.update(time_steps=1), "time_steps"),
        (lambda d: d["space"].update(cells=2), "space.cells"),
        (lambda d: d.update(unexpected=1), "unexpected"),
        (lambda d: d["series"].pop("sigma"), "series.sigma"),
        (lambda d: d["series"].update(g=True), "series.g"),
        (lambda d: d["costs"]["f"].update(kind="cubic"), "costs.f.kind"),
        (lambda d: d["costs"]["f"].update(weight=-1.0), "costs.f.weight"),
        (lambda d: d["initial_density"].update(center=0.9), "initial_density"),
        (lambda d: d["initial_density"].update(halfwidth=0.0), "halfwidth"),
        (lambda d: d.update(solver={"damping": 0.0}), "solver.damping"),
        (lambda d: d.update(solver={"tol": -1.0}), "solver.tol"),
        (lambda d: d.update(price={"exponent": 2.0, "r2": 0.7}), "r2"),
    ],
)
def test_invalid_ev_documents(mutate, field_fragment):
    doc = _minimal_ev()
    mutate(doc)
    with pytest.raises(ScenarioError) as err:
        validate_config(doc)
    assert field_fragment in str(err.value)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: [_minimal_ev()], "document: scenario must be a mapping"),
        (lambda: _minimal_ev(model=["ev"]), "model: expected 'ev' or 'phev', got ['ev']"),
        (lambda: _minimal_ev(horizon="abc"), "horizon: expected a number, got 'abc'"),
        (lambda: _minimal_ev(space=[20]), "space: expected a mapping"),
        (lambda: _minimal_ev(space={"cells": 20, "rows": 2}), "space.rows: unknown key"),
        (lambda: _minimal_ev(series=[0.4]), "series: expected a mapping"),
        (lambda: _minimal_ev(series={**_minimal_ev()["series"], "Q1": 1.0}), "series.Q1: unknown key"),
        (lambda: _minimal_ev(costs="zero"), "costs: expected a mapping"),
        (lambda: _minimal_ev(costs={**_minimal_ev()["costs"], "s": {"kind": "zero"}}), "costs.s: unknown key"),
        (lambda: _minimal_ev(price=[2.0]), "price: expected a mapping"),
        (lambda: _minimal_ev(price={"offset": 0.5}), "price.offset: unknown key"),
        (lambda: _minimal_ev(price={"coupled": "yes"}), "price.coupled: expected a boolean"),
        (lambda: _minimal_ev(price={"exponent": "2"}), "price.exponent: expected a number, got '2'"),
        (lambda: _minimal_ev(price={"exponent": True}), "price.exponent: expected a number, got True"),
        (lambda: _minimal_phev(price={"r2": None}), "price.r2: expected a number, got None"),
        (lambda: _minimal_phev(price={"r2": 0.7, "offset": "half"}), "price.offset: expected a number, got 'half'"),
        (lambda: _minimal_phev(price={"r2": 0.7, "coupled": True}), "price.coupled: unknown key"),
        (lambda: _minimal_ev(solver=5), "solver: expected a mapping"),
        (lambda: _minimal_ev(solver={"tolerance": 1e-6}), "solver.tolerance: unknown key"),
        (lambda: _minimal_ev(solver={"tol": "small"}), "solver.tol: expected a number, got 'small'"),
        (lambda: _minimal_ev(solver={"damping": None}), "solver.damping: expected a number, got None"),
        (lambda: _minimal_ev(name=""), "name: expected a nonempty string"),
        (lambda: _minimal_ev(name=3), "name: expected a nonempty string"),
        (lambda: _minimal_ev(series={**_minimal_ev()["series"], "g": "high"}),
         "series.g: expected scalar, list, {times, values} or {csv}"),
        (lambda: _minimal_ev(series={**_minimal_ev()["series"], "g": {"times": 0.0, "values": [0.4]}}),
         "series.g: times and values must be lists"),
        (lambda: _minimal_ev(series={**_minimal_ev()["series"], "g": {"times": [0.0, 0.1, 0.1], "values": [1, 2, 3]}}),
         "series.g.times: must be strictly increasing"),
        (lambda: _minimal_ev(series={**_minimal_ev()["series"], "g": {"csv": 3}}), "series.g.csv: expected a path string"),
        (lambda: _minimal_ev(costs={**_minimal_ev()["costs"], "f": "zero"}),
         "costs.f: expected a mapping with a 'kind' key"),
        (lambda: _minimal_ev(initial_density="triangle"), "initial_density: expected a mapping with a 'kind' key"),
        (lambda: _minimal_ev(initial_density={"kind": "cube"}), "initial_density.kind: unknown density kind 'cube'"),
        (lambda: _minimal_ev(initial_density={"kind": "histogram", "csv": 3}),
         "initial_density.csv: expected a path string"),
    ],
)
def test_each_reader_error_names_its_field(make, message):
    with pytest.raises(ScenarioError) as err:
        validate_config(make())
    assert str(err.value) == message
    assert err.value.field == message.split(": ")[0]


def test_triangle_support_message_names_interval():
    doc = _minimal_ev(initial_density={"kind": "triangle", "center": 0.95, "halfwidth": 0.2})
    with pytest.raises(ScenarioError, match="not within"):
        validate_config(doc)


@pytest.mark.parametrize(
    "mutate, field_fragment",
    [
        (lambda d: d["space"].update(cells=16), "space.cells"),
        (lambda d: d["price"].pop("r2"), "price.r2"),
        (lambda d: d["initial_density"].update(mean=0.4), "initial_density.mean"),
        (lambda d: d["initial_density"].update(variance=0.0), "variance"),
        (lambda d: d.update(initial_density={"kind": "triangle", "center": 0.5, "halfwidth": 0.2}), "kind"),
    ],
)
def test_invalid_phev_documents(mutate, field_fragment):
    doc = _minimal_phev()
    mutate(doc)
    with pytest.raises(ScenarioError) as err:
        validate_config(doc)
    assert field_fragment in str(err.value)


def test_series_list_must_match_node_count(tmp_path):
    doc = _minimal_ev()
    doc["series"]["g"] = [0.4] * 5  # needs time_steps + 1 = 13
    cfg = ScenarioConfig(data=validate_config(doc), base_dir=tmp_path)
    with pytest.raises(ScenarioError, match="series.g"):
        build_problem(cfg)


def test_series_positivity_checks(tmp_path):
    doc = _minimal_ev()
    doc["series"]["H"] = 0.0
    cfg = ScenarioConfig(data=validate_config(doc), base_dir=tmp_path)
    with pytest.raises(ScenarioError, match="series.H"):
        build_problem(cfg)
    doc = _minimal_ev()
    doc["series"]["sigma"] = -0.1
    cfg = ScenarioConfig(data=validate_config(doc), base_dir=tmp_path)
    with pytest.raises(ScenarioError, match="series.sigma"):
        build_problem(cfg)


def _full(tgrid, values):
    """One value per node of ``tgrid`` for each scalar in ``values``; arrays pass as they are."""
    return {k: v if isinstance(v, np.ndarray) else np.full(tgrid.n_nodes, v) for k, v in values.items()}


def _ev_params(**series):
    tgrid = TimeGrid(0.2, 12)  # _minimal_ev's
    values = {"g": 0.4, "d": 0.8, "sigma": 0.1, "H": 2.0, **series}
    return EvParams(tgrid=tgrid, **_full(tgrid, values), f=None, kappa=None)


def _phev_params(**series):
    tgrid = TimeGrid(0.2, 8)  # _minimal_phev's
    values = {"g": 0.2, "Q1": 125.0, "Q2": 125.0, **series}
    return PhevParams(tgrid=tgrid, **_full(tgrid, values), r2=0.7, s=None, xi=None)


@pytest.mark.parametrize(
    "model, mutate, construct",
    [
        ("ev", lambda d: d.update(horizon=-1.0), lambda: TimeGrid(-1.0, 12)),
        ("ev", lambda d: d.update(horizon=float("inf")), lambda: TimeGrid(float("inf"), 12)),
        ("ev", lambda d: d.update(time_steps=1), lambda: TimeGrid(0.2, 1)),
        ("ev", lambda d: d["space"].update(cells=2), lambda: SpaceGrid((2,))),
        ("phev", lambda d: d["space"].update(cells=[2, 8]), lambda: SpaceGrid((2, 8))),
        ("ev", lambda d: d.update(solver={"max_iters": 0}), lambda: SolverOptions(max_iters=0)),
        ("ev", lambda d: d.update(solver={"tol": -1.0}), lambda: SolverOptions(tol=-1.0)),
        ("ev", lambda d: d.update(solver={"tol": float("nan")}), lambda: SolverOptions(tol=float("nan"))),
        ("ev", lambda d: d.update(solver={"damping": 0.0}), lambda: SolverOptions(damping=0.0)),
        ("ev", lambda d: d["series"].update(g=[0.4] * 5), lambda: _ev_params(g=np.full(5, 0.4))),
        ("ev", lambda d: d["series"].update(H=0.0), lambda: _ev_params(H=0.0)),
        ("ev", lambda d: d["series"].update(sigma=-1.0), lambda: _ev_params(sigma=-1.0)),
        ("ev", lambda d: d["series"].update(d={"csv": "nan.csv"}), lambda: _ev_params(d=np.nan)),
        ("phev", lambda d: d["series"].update(Q1=0.0), lambda: _phev_params(Q1=0.0)),
        ("phev", lambda d: d["series"].update(Q2=-1.0), lambda: _phev_params(Q2=-1.0)),
        ("phev", lambda d: d["series"].update(g={"csv": "nan.csv"}), lambda: _phev_params(g=np.nan)),
        ("ev", lambda d: d.update(price={"exponent": float("nan")}),
         lambda: dataclasses.replace(_ev_params(), exponent=float("nan"))),
        ("phev", lambda d: d["price"].update(offset=-1.0),
         lambda: dataclasses.replace(_phev_params(), offset=-1.0)),
        ("phev", lambda d: d["price"].update(r2=float("inf")),
         lambda: dataclasses.replace(_phev_params(), r2=float("inf"))),
        ("ev", lambda d: d.update(price={"exponent": 2.5}, series={**d["series"], "d": -2.0}),
         lambda: dataclasses.replace(_ev_params(d=-2.0), exponent=2.5)),
        ("ev", lambda d: d.update(price={"exponent": -1.0}, series={**d["series"], "d": 0.0}),
         lambda: dataclasses.replace(_ev_params(d=0.0), exponent=-1.0)),
    ],
    ids=["horizon", "horizon-inf", "time_steps", "cells", "cells-2d", "max_iters", "tol", "tol-nan", "damping",
         "length",         "H", "sigma", "finite", "Q1", "Q2", "finite-2d", "exponent", "offset", "r2",
         "exponent-fractional", "exponent-negative"],
)
def test_each_range_rule_has_one_source(tmp_path, model, mutate, construct):
    # the document route and the object that holds the rule raise the same error
    (tmp_path / "nan.csv").write_text("t,value\n0.0,0.4\n0.2,nan\n")
    doc = _minimal_ev() if model == "ev" else _minimal_phev()
    mutate(doc)
    with pytest.raises(ScenarioError) as through_document:
        build_problem(ScenarioConfig(data=validate_config(doc), base_dir=tmp_path))
    with pytest.raises(ScenarioError) as direct:
        construct()
    assert str(through_document.value) == str(direct.value)
    assert through_document.value.field == direct.value.field


@pytest.mark.parametrize(
    "model, mutate, construct",
    [
        ("ev", lambda d: d.update(time_steps=4.5), lambda: TimeGrid(1.0, 4.5)),
        ("ev", lambda d: d.update(time_steps=True), lambda: TimeGrid(1.0, True)),
        ("ev", lambda d: d["space"].update(cells=4.5), lambda: SpaceGrid((4.5,))),
        ("phev", lambda d: d["space"].update(cells=[8, 4.5]), lambda: SpaceGrid((8, 4.5))),
        ("phev", lambda d: d["space"].update(cells=[False, 8]), lambda: SpaceGrid((False, 8))),
        ("ev", lambda d: d.update(solver={"max_iters": 2.5}), lambda: SolverOptions(max_iters=2.5)),
        ("ev", lambda d: d.update(solver={"max_iters": True}), lambda: SolverOptions(max_iters=True)),
    ],
    ids=["time_steps", "time_steps-bool", "cells", "cells-2d", "cells-2d-bool", "max_iters", "max_iters-bool"],
)
def test_each_count_rule_has_one_source(model, mutate, construct):
    # a direct constructor rejects a non-integral or boolean count exactly as the document does
    doc = _minimal_ev() if model == "ev" else _minimal_phev()
    mutate(doc)
    with pytest.raises(ScenarioError, match="expected an integer, got") as through_document:
        validate_config(doc)
    with pytest.raises(ScenarioError) as direct:
        construct()
    assert str(through_document.value) == str(direct.value)
    assert through_document.value.field == direct.value.field


def test_counts_accept_numpy_integers_as_ints():
    tgrid = TimeGrid(1.0, np.int64(4))
    assert tgrid == TimeGrid(1.0, 4) and type(tgrid.n_steps) is int
    assert tgrid.nodes[-1] == 1.0
    sgrid = SpaceGrid(np.array([8, 6], dtype=np.int32))
    assert sgrid.shape == (8, 6) and all(type(n) is int for n in sgrid.shape)
    options = SolverOptions(max_iters=np.int16(3))
    assert options.max_iters == 3 and type(options.max_iters) is int


# ---------------------------------------------------------------------------
# series forms


def test_series_forms_materialize(tmp_path):
    csv_path = tmp_path / "d.csv"
    csv_path.write_text("t,value\n0.0,0.5\n0.2,0.9\n")
    doc = _minimal_ev(
        series={
            "g": 0.4,
            "d": {"csv": "d.csv"},
            "sigma": [0.1] * 13,
            "H": {"times": [0.0, 0.1, 0.2], "values": [2.0, 3.0, 2.0]},
        }
    )
    cfg = ScenarioConfig(data=validate_config(doc), base_dir=tmp_path)
    problem, options, resampled = build_problem(cfg)
    n = problem.tgrid.n_nodes
    np.testing.assert_allclose(problem.params.g, 0.4)
    np.testing.assert_allclose(problem.params.sigma, 0.1)
    np.testing.assert_allclose(problem.params.d, np.linspace(0.5, 0.9, n), atol=1e-12)
    assert problem.params.H[0] == pytest.approx(2.0)
    assert problem.params.H.max() == pytest.approx(3.0)
    # scalar and exact-length series are not resampled; csv and times are
    assert sorted(resampled) == ["H", "d"]
    assert options.max_iters == 200 and options.damping == 0.5


def test_csv_series_needs_two_rows_as_a_times_values_table_does(tmp_path):
    # one row would be a constant recorded as resampled
    (tmp_path / "d.csv").write_text("t,value\n0.0,0.5\n")
    doc = _minimal_ev(series={"g": 0.4, "d": {"csv": "d.csv"}, "sigma": 0.1, "H": 2.0})
    cfg = ScenarioConfig(data=validate_config(doc), base_dir=tmp_path)
    with pytest.raises(ScenarioError, match=r"series.d: .*d.csv needs .* at least 2 rows"):
        build_problem(cfg)
    doc["series"]["d"] = {"times": [0.0], "values": [0.5]}
    with pytest.raises(ScenarioError, match=r"series.d: .*length >= 2"):
        validate_config(doc)


@pytest.mark.parametrize("text, message", [
    (None, "file not found: {path}"),
    ("t,value\n0.0,0.5\n0.2,x\n", r"could not parse {path}: .*'x'.*"),
    ("t,value\n0.0,0.5\n0.2,0.9\n0.1,0.7\n", "csv times must be strictly increasing"),
], ids=["missing", "unparsable", "unordered"])
def test_csv_series_file_that_is_missing_unparsable_or_unordered_is_named(tmp_path, text, message):
    if text is not None:
        (tmp_path / "d.csv").write_text(text)
    doc = _minimal_ev(series={"g": 0.4, "d": {"csv": "d.csv"}, "sigma": 0.1, "H": 2.0})
    cfg = ScenarioConfig(data=validate_config(doc), base_dir=tmp_path)
    with pytest.raises(ScenarioError) as exc:
        build_problem(cfg)
    assert exc.value.field == "series.d"
    assert re.fullmatch("series.d: " + message.format(path=re.escape(str(tmp_path / "d.csv"))), str(exc.value))


def test_initial_density_normalized(tmp_path):
    for doc in (_minimal_ev(), _minimal_phev()):
        cfg = ScenarioConfig(data=validate_config(doc), base_dir=tmp_path)
        problem, _, _ = build_problem(cfg)
        assert integrate(problem.m0, problem.sgrid) == pytest.approx(1.0, abs=1e-12)
        assert np.all(problem.m0 >= 0.0)


def test_histogram_density_from_csv(tmp_path):
    (tmp_path / "m0.csv").write_text("\n".join(["1.0"] * 10 + ["3.0"] * 10) + "\n")
    doc = _minimal_ev(initial_density={"kind": "histogram", "csv": "m0.csv"})
    cfg = ScenarioConfig(data=validate_config(doc), base_dir=tmp_path)
    problem, _, _ = build_problem(cfg)
    assert integrate(problem.m0, problem.sgrid) == pytest.approx(1.0, abs=1e-12)
    assert problem.m0[-1] == pytest.approx(3.0 * problem.m0[0])


def test_a_changed_histogram_is_named(tmp_path):
    (tmp_path / "m0.csv").write_text("\n".join(["1.0"] * 20) + "\n")
    cfg = ScenarioConfig(data=validate_config(_minimal_ev(initial_density={"kind": "histogram", "csv": "m0.csv"})),
                         base_dir=tmp_path)
    assert scenario_inputs(cfg.data) == {"initial_density": "m0.csv"}
    digests = {"m0.csv": hashlib.sha256((tmp_path / "m0.csv").read_bytes()).hexdigest()}
    check_inputs(cfg, digests)
    (tmp_path / "m0.csv").write_text("\n".join(["1.0"] * 19 + ["2.0"]) + "\n")
    with pytest.raises(ScenarioError, match=r"^initial_density.csv: .*m0.csv does not match its sha256"):
        check_inputs(cfg, digests)


def _phev_histogram(tmp_path, values):
    np.savetxt(tmp_path / "m0.csv", values, delimiter=",")
    doc = _minimal_phev(initial_density={"kind": "histogram", "csv": "m0.csv"})
    return ScenarioConfig(data=validate_config(doc), base_dir=tmp_path)


def test_histogram_density_2d(tmp_path):
    values = np.arange(64.0).reshape(8, 8) % 7
    problem, _, _ = build_problem(_phev_histogram(tmp_path, values))
    assert np.array_equal(problem.m0, values / (values.sum() * problem.sgrid.cell_volume))
    assert integrate(problem.m0, problem.sgrid) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("values, message", [
    (np.ones((8, 7)), r"expected shape \(8, 8\), got \(8, 7\)"),
    (np.ones((8, 1)), r"expected shape \(8, 8\), got \(8, 1\)"),
    (np.where(np.eye(8) > 0, -1.0, 1.0), "must be nonnegative"),
    (np.where(np.eye(8) > 0, np.inf, 1.0), "must be finite"),
    (np.where(np.eye(8) > 0, np.nan, 1.0), "must be finite"),
])
def test_histogram_density_2d_errors(tmp_path, values, message):
    with pytest.raises(ScenarioError, match=rf"initial_density.csv: .*{message}"):
        build_problem(_phev_histogram(tmp_path, values))


def test_a_density_with_no_mass_on_the_grid_is_named(tmp_path):
    with pytest.raises(ScenarioError) as err:
        build_problem(_phev_histogram(tmp_path, np.zeros((8, 8))))
    assert str(err.value) == "initial_density: density has no mass on the grid"


def test_histogram_density_that_does_not_parse_is_named(tmp_path):
    config = _phev_histogram(tmp_path, np.ones((8, 8)))
    (tmp_path / "m0.csv").write_text("1,1,1,x,1,1,1,1\n" * 8)
    with pytest.raises(ScenarioError, match=r"initial_density.csv: could not parse .*m0.csv: .*'x'"):
        build_problem(config)


def test_missing_histogram_is_named(tmp_path):
    doc = _minimal_ev(initial_density={"kind": "histogram", "csv": "m0.csv"})
    with pytest.raises(ScenarioError) as exc:
        build_problem(ScenarioConfig(data=validate_config(doc), base_dir=tmp_path))
    assert exc.value.field == "initial_density.csv"
    assert str(exc.value) == f"initial_density.csv: file not found: {tmp_path / 'm0.csv'}"


def test_gaussian_density_matches_closed_form(tmp_path):
    ev = _minimal_ev(initial_density={"kind": "truncated_gaussian", "mean": 0.37, "variance": 0.013})
    problem, _, _ = build_problem(ScenarioConfig(data=validate_config(ev), base_dir=tmp_path))
    x = problem.sgrid.nodes(0)
    values = np.exp(-((x - 0.37) ** 2) / (2.0 * 0.013))
    assert np.array_equal(problem.m0, values / (values.sum() * problem.sgrid.spacing(0)))
    problem, _, _ = build_problem(ScenarioConfig(data=validate_config(_minimal_phev()), base_dir=tmp_path))
    z1, z2 = problem.sgrid.meshes()
    values = np.exp(-((z1 - 0.4) ** 2 + (z2 - 0.6) ** 2) / (2.0 * 0.02))
    assert np.array_equal(problem.m0, values / (values.sum() * problem.sgrid.cell_volume))


def test_cost_presets_match_closed_forms(tmp_path):
    problem, _, _ = build_problem(ScenarioConfig(data=validate_config(_minimal_ev()), base_dir=tmp_path))
    x = problem.sgrid.nodes(0)
    assert np.array_equal(problem.params.f(0.1, x), 1.0 * (1.0 - x) ** 2)
    assert np.array_equal(problem.params.kappa(x), 1.0 * (1.0 - x) ** 2)
    problem, _, _ = build_problem(ScenarioConfig(data=validate_config(_minimal_phev()), base_dir=tmp_path))
    z1, z2 = problem.sgrid.meshes()
    assert np.array_equal(problem.params.s(0.1, z1, z2), 20.0 * (2.0 - z1 - z2) ** 2)
    assert np.array_equal(problem.params.xi(z1, z2), 10.0 * (2.0 - z1 - z2) ** 2)


def test_zero_cost_preset_on_both_grids(tmp_path):
    zero = {"kind": "zero"}
    ev = _minimal_ev(costs={"f": zero, "kappa": zero})
    problem, options, _ = build_problem(ScenarioConfig(data=validate_config(ev), base_dir=tmp_path))
    x = problem.sgrid.nodes(0)
    for values in (problem.params.f(0.1, x), problem.params.kappa(x)):
        assert values.shape == x.shape and not values.any()
    assert solve_mfe(problem, options).converged
    phev = _minimal_phev(costs={"s": zero, "xi": zero})
    problem, options, _ = build_problem(ScenarioConfig(data=validate_config(phev), base_dir=tmp_path))
    z1, z2 = problem.sgrid.meshes()
    for values in (problem.params.s(0.1, z1, z2), problem.params.xi(z1, z2)):
        assert values.shape == z1.shape and not values.any()
    assert solve_mfe(problem, options).converged


# ---------------------------------------------------------------------------
# overrides


def test_apply_overrides_dotted_and_bare():
    cfg = load_scenario("ev_weekend")
    new = apply_overrides(cfg, ["solver.max_iters=7", "damping=1.0", "price.coupled=false"])
    assert new.data["solver"]["max_iters"] == 7
    assert new.data["solver"]["damping"] == 1.0
    assert new.data["price"]["coupled"] is False
    # the source config is untouched
    assert cfg.data["solver"]["max_iters"] == 200
    assert cfg.data["price"]["coupled"] is True


def test_apply_overrides_rejects_unknown_path():
    cfg = load_scenario("ev_weekend")
    with pytest.raises(ScenarioError, match="no such scenario field"):
        apply_overrides(cfg, ["nonexistent.key=1"])


@pytest.mark.parametrize("item, message", [
    ("=1", "override: empty key in '=1'"),
    ("horizon.x=1", "horizon.x: no such scenario field"),
    ("horizon.x.y=1", "horizon.x.y: no such scenario field"),
])
def test_apply_overrides_names_an_empty_key_or_a_path_through_a_value(item, message):
    with pytest.raises(ScenarioError) as err:
        apply_overrides(load_scenario("ev_weekend"), [item])
    assert str(err.value) == message


def test_an_override_value_that_is_not_yaml_is_named():
    with pytest.raises(yaml.YAMLError) as parse:
        yaml.load("[1,", Loader=scenario._YAML_LOADER)
    with pytest.raises(ScenarioError) as err:
        apply_overrides(load_scenario("ev_weekend"), ["price.exponent=[1,"])
    assert str(err.value) == f"price.exponent: override value is not valid YAML: {parse.value}"


def test_apply_overrides_rejects_bad_syntax():
    cfg = load_scenario("ev_weekend")
    with pytest.raises(ScenarioError, match="key=value"):
        apply_overrides(cfg, ["max_iters"])


def test_apply_overrides_revalidates():
    cfg = load_scenario("ev_weekend")
    with pytest.raises(ScenarioError, match="damping"):
        apply_overrides(cfg, ["damping=2.0"])


def test_schema_text_documents_the_keys():
    for key in ("schema_version", "model", "horizon", "time_steps", "space",
                "series", "costs", "price", "initial_density", "solver"):
        assert key in SCHEMA_TEXT
    assert "--set" in SCHEMA_TEXT
    # every range rule the params and options enforce sits on its key's line
    bounds = {"# ev model:    g": ["sigma >= 0", "H > 0"], "# phev model:  g": ["Q1 > 0", "Q2 > 0"],
              "max_iters:": [">= 1"], "tol:": ["> 0"], "damping:": ["(0, 1]"],
              "# triangle (ev only):": ["halfwidth > 0"],
              "exponent:": ["series.d >= 0 if fractional", "d > 0 if negative"]}
    for key, rules in bounds.items():
        (line,) = [line for line in SCHEMA_TEXT.splitlines() if line.strip().startswith(key)]
        assert all(rule in line for rule in rules), line


# ---------------------------------------------------------------------------
# exports


EV_FILES = {"m.npy", "v.npy", "alpha.npy", "price.csv", "purchases.csv", "total_consumption.csv", "manifest.json"}
PHEV_FILES = {"m.npy", "v.npy", "mu1.npy", "mu2.npy", "r1.csv", "control_sections.csv", "manifest.json"}


def _digests(run_dir):
    return json.loads((Path(run_dir) / "manifest.json").read_text())["sha256"]


def test_ev_export_file_set(ev_run_dir):
    assert {p.name for p in Path(ev_run_dir).iterdir()} == EV_FILES


def test_phev_export_file_set(phev_run_dir):
    assert {p.name for p in Path(phev_run_dir).iterdir()} == PHEV_FILES


def test_ev_manifest_contents(ev_run, ev_run_dir):
    manifest = json.loads((Path(ev_run_dir) / "manifest.json").read_text())
    assert manifest["model"] == "ev"
    assert manifest["scenario"] == ev_run["config"].data
    assert manifest["scenario_hash"] == scenario_hash(ev_run["config"].data)
    assert manifest["grid"] == {"time_steps": 143, "space_cells": [100]}
    assert manifest["convergence"]["converged"] is True
    assert manifest["convergence"]["tol"] == pytest.approx(1e-6)
    assert len(manifest["convergence"]["residuals"]) == manifest["convergence"]["iterations"]
    assert manifest["resampled_series"] == ["d", "g"]
    assert manifest["input_sha256"] == {}  # the bundled scenario reads no CSV
    assert manifest["wall_time_s"] > 0.0


def test_phev_manifest_contents(phev_run, phev_run_dir):
    manifest = json.loads((Path(phev_run_dir) / "manifest.json").read_text())
    assert manifest["model"] == "phev"
    assert manifest["grid"] == {"time_steps": 11, "space_cells": [16, 16]}
    assert manifest["convergence"]["converged"] is True
    assert manifest["scenario_hash"] == scenario_hash(phev_run["config"].data)


def test_ev_run_files_round_trip(ev_run, ev_run_dir):
    sol = ev_run["solution"]
    shape = sol.m.shape
    out = Path(ev_run_dir)
    digests = _digests(out)
    np.testing.assert_array_equal(read_field_csv(out / "m.npy", shape, digests), sol.m)
    np.testing.assert_array_equal(read_field_csv(out / "v.npy", shape, digests), sol.v)
    np.testing.assert_array_equal(read_field_csv(out / "alpha.npy", shape, digests), sol.alpha[0])
    np.testing.assert_array_equal(read_series_csv(out / "price.csv", sol.p.size, digests), sol.p)


def test_phev_run_files_round_trip(phev_run, phev_run_dir):
    sol = phev_run["solution"]
    shape = sol.m.shape
    out = Path(phev_run_dir)
    digests = _digests(out)
    np.testing.assert_array_equal(read_field_csv(out / "m.npy", shape, digests), sol.m)
    np.testing.assert_array_equal(read_field_csv(out / "mu1.npy", shape, digests), sol.alpha[0])
    np.testing.assert_array_equal(read_series_csv(out / "r1.csv", sol.p.size, digests), sol.p)


@pytest.mark.parametrize("run, run_dir", [("ev_run", "ev_run_dir"), ("phev_run", "phev_run_dir")])
def test_run_files_hold_the_solved_bits_and_the_manifest_holds_every_digest(run, run_dir, request):
    # a field file is the float64 array itself; the price's %.17g text parses back to the same float64s
    bundled = request.getfixturevalue(run)
    sol = bundled["solution"]
    out = Path(request.getfixturevalue(run_dir))
    stems, price = RUN_LAYOUT[bundled["config"].model]
    for stem, solved in zip(stems, (sol.m, sol.v, *sol.alpha), strict=True):
        saved = np.load(out / f"{stem}.npy", allow_pickle=False)
        assert saved.dtype == np.float64 and saved.tobytes() == solved.tobytes(), stem
    parsed = np.loadtxt(out / f"{price}.csv", delimiter=",", skiprows=1, usecols=-1)
    assert parsed.tobytes() == sol.p.tobytes()
    digests = _digests(out)
    assert set(digests) == {p.name for p in out.iterdir()} - {"manifest.json"}
    for name, digest in digests.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


@pytest.mark.parametrize("run, run_dir", [("ev_run", "ev_run_dir"), ("phev_run", "phev_run_dir")])
def test_read_series_csv_gives_back_the_price_bit_for_bit(run, run_dir, request):
    bundled = request.getfixturevalue(run)
    sol = bundled["solution"]
    out = Path(request.getfixturevalue(run_dir))
    price = RUN_LAYOUT[bundled["config"].model][1]
    read = read_series_csv(out / f"{price}.csv", sol.p.size, _digests(out))
    assert np.array_equal(read, sol.p) and read.tobytes() == sol.p.tobytes()


@pytest.mark.parametrize("cut, found", [(3, 141), (-2, 146)])
def test_a_series_csv_of_the_wrong_length_is_named(ev_run_dir, tmp_path, cut, found):
    # the file matches its recorded hash, but holds three rows too few or two too many
    lines = (Path(ev_run_dir) / "price.csv").read_text().splitlines(keepends=True)
    body = lines[:-cut] if cut > 0 else lines + lines[cut:]
    path = tmp_path / "price.csv"
    path.write_text("".join(body))
    digests = {"price.csv": hashlib.sha256(path.read_bytes()).hexdigest()}
    with pytest.raises(ScenarioError, match=f"price.csv holds {found} values, expected 144$") as err:
        read_series_csv(path, 144, digests)
    assert err.value.field == "price.csv"


@pytest.mark.parametrize("run, run_dir", [("ev_run", "ev_run_dir"), ("phev_run", "phev_run_dir")])
def test_read_manifest_gives_back_the_exported_scenario_and_digests(run, run_dir, request):
    bundled = request.getfixturevalue(run)
    out = Path(request.getfixturevalue(run_dir))
    config, digests = scenario.read_manifest(out)
    assert config == bundled["config"]
    assert config.base_dir == Path(bundled["config"].base_dir).resolve()
    assert digests == _digests(out)


def test_readers_reject_a_file_that_no_longer_matches_its_hash(ev_run_dir, tmp_path):
    # a field without its last value, a series row with a column too many
    digests = _digests(ev_run_dir)
    fields = (Path(ev_run_dir) / "v.npy").read_bytes()[:-8]
    lines = (Path(ev_run_dir) / "price.csv").read_text().splitlines()
    series = "\n".join([*lines[:-1], lines[-1] + ",0.5"]) + "\n"
    for name, data, read in (
        ("v.npy", fields, lambda path: read_field_csv(path, (144, 100), digests)),
        ("price.csv", series.encode(), lambda path: read_series_csv(path, 144, digests)),
    ):
        (tmp_path / name).write_bytes(data)
        with pytest.raises(ScenarioError, match=f"{name} does not match its sha256 in manifest.json") as err:
            read(tmp_path / name)
        assert err.value.field == name


def _npy_with_header(header: dict, body: bytes) -> bytes:
    """The bytes of a ``.npy`` file of format 1.0 whose header is ``header``, followed by ``body``."""
    out = io.BytesIO()
    np.lib.format.write_array_header_1_0(out, header)
    return out.getvalue() + body


def test_a_field_header_of_another_shape_is_named_by_shape_only_when_its_hash_matches(ev_run_dir, tmp_path):
    # the value field's bytes under a header that declares them as (100, 144)
    source = Path(ev_run_dir) / "v.npy"
    values = np.load(source, allow_pickle=False)
    path = tmp_path / "v.npy"
    np.save(path, values.reshape(100, 144), allow_pickle=False)
    assert path.stat().st_size == source.stat().st_size
    rehashed = {"v.npy": hashlib.sha256(path.read_bytes()).hexdigest()}
    with pytest.raises(ScenarioError, match=re.escape(f"{path} holds shape (100, 144), expected (144, 100)")):
        read_field_csv(path, (144, 100), rehashed)
    with pytest.raises(ScenarioError, match="v.npy does not match its sha256 in manifest.json"):
        read_field_csv(path, (144, 100), _digests(ev_run_dir))


def test_a_field_header_that_leaves_a_length_to_be_inferred_is_named_by_shape(ev_run_dir, tmp_path):
    # the value field's bytes, whole, under a header of shape (-1, 100), which reshape alone would accept
    data = np.load(Path(ev_run_dir) / "v.npy", allow_pickle=False).tobytes()
    path = tmp_path / "v.npy"
    path.write_bytes(_npy_with_header({"descr": "<f8", "fortran_order": False, "shape": (-1, 100)}, data))
    rehashed = {"v.npy": hashlib.sha256(path.read_bytes()).hexdigest()}
    with pytest.raises(ScenarioError, match=re.escape(f"{path} holds shape (-1, 100), expected (144, 100)")):
        read_field_csv(path, (144, 100), rehashed)


@pytest.mark.parametrize("shape", [(10 ** 6, 10 ** 6), (144, 100)], ids=["as_expected", "other"])
def test_a_field_header_that_declares_a_trillion_values_allocates_nothing(tmp_path, shape):
    # eight bytes of data under a header of 10^12 float64 values: the size
    # the file should have is checked before anything is allocated for it
    path = tmp_path / "v.npy"
    header = {"descr": "<f8", "fortran_order": False, "shape": (10 ** 6, 10 ** 6)}
    path.write_bytes(_npy_with_header(header, bytes(8)))
    with pytest.raises(ScenarioError, match="v.npy does not match its sha256 in manifest.json"):
        read_field_csv(path, shape, {"v.npy": "0" * 64})


def test_a_run_file_that_matches_its_hash_is_read_once(ev_run, ev_run_dir, monkeypatch):
    # the hash comes from the bytes the readers load, so no second, streamed pass reads the file
    def streamed(path):
        raise AssertionError(f"{path} was hashed by a second read")

    monkeypatch.setattr(scenario, "_sha256_file", streamed)
    sol, out = ev_run["solution"], Path(ev_run_dir)
    digests = _digests(out)
    assert read_field_csv(out / "v.npy", sol.v.shape, digests).tobytes() == sol.v.tobytes()
    assert read_series_csv(out / "price.csv", sol.p.size, digests).tobytes() == sol.p.tobytes()


def test_a_field_is_a_read_only_view_of_the_bytes_after_its_header(ev_run_dir):
    path = Path(ev_run_dir) / "v.npy"
    field = read_field_csv(path, (144, 100), _digests(ev_run_dir))
    assert not field.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        field[0, 0] = 0.0
    data = path.read_bytes()
    stream = io.BytesIO(data)
    assert np.lib.format.read_magic(stream) == (1, 0)
    np.lib.format.read_array_header_1_0(stream)
    assert field.tobytes() == data[stream.tell():]


@pytest.mark.parametrize("run, stale, files", [
    ("ev_run", ("m.csv", "price.npy"), EV_FILES),
    ("phev_run", ("mu2.csv", "r1.npy"), PHEV_FILES),
])
def test_export_deletes_the_field_csvs_and_price_twin_of_the_old_layout(run, stale, files, request, tmp_path):
    from evmfg import export_results

    bundled = request.getfixturevalue(run)
    for name in stale:
        (tmp_path / name).write_text("stale\n")
    names = export_results(bundled["solution"], bundled["problem"], bundled["config"], tmp_path,
                           resampled=bundled["resampled"])
    digests = _digests(tmp_path)
    assert {p.name for p in tmp_path.iterdir()} == set(digests) | {"manifest.json"} == set(names) == files


def test_export_takes_the_resampled_series_from_its_caller(ev_run, tmp_path):
    # no default, which once recorded [] for a scenario whose g and d are resampled
    from evmfg import export_results

    with pytest.raises(TypeError, match="resampled"):
        export_results(ev_run["solution"], ev_run["problem"], ev_run["config"], tmp_path)
    assert ev_run["resampled"] == ["g", "d"]


def test_purchases_series_definition(ev_run, ev_run_dir):
    sol = ev_run["solution"]
    problem = ev_run["problem"]
    purchases = np.loadtxt(Path(ev_run_dir) / "purchases.csv", delimiter=",", skiprows=1, usecols=1)
    assert purchases.shape == (144,)
    expected = problem.params.g + mean_rate(sol.m, problem.sgrid, problem.tgrid)
    np.testing.assert_array_equal(purchases, ev_load(sol.m, problem.params, problem.sgrid)[0])
    np.testing.assert_allclose(purchases, expected, atol=1e-12)


def test_ev_load_is_what_the_run_exports(ev_run, ev_run_dir):
    # 17 significant digits give each float64 back exactly
    problem = ev_run["problem"]
    purchases, regulated, baseline = ev_load(ev_run["solution"].m, problem.params, problem.sgrid)
    exported = np.loadtxt(Path(ev_run_dir) / "purchases.csv", delimiter=",", skiprows=1, usecols=1)
    table = np.loadtxt(Path(ev_run_dir) / "total_consumption.csv", delimiter=",", skiprows=1)
    assert np.array_equal(purchases, exported)
    assert np.array_equal(regulated, table[:, 1])
    assert np.array_equal(baseline, table[:, 2])


def test_total_consumption_columns(ev_run, ev_run_dir):
    lines = (Path(ev_run_dir) / "total_consumption.csv").read_text().splitlines()
    assert lines[0] == "t,regulated,baseline"
    assert len(lines) == 1 + 144
    table = np.loadtxt(Path(ev_run_dir) / "total_consumption.csv", delimiter=",", skiprows=1)
    problem = ev_run["problem"]
    purchases = ev_load(ev_run["solution"].m, problem.params, problem.sgrid)[0]
    np.testing.assert_allclose(table[:, 1], purchases + problem.params.d, atol=1e-12)
    np.testing.assert_allclose(table[:, 2], purchases.mean() + problem.params.d, atol=1e-12)


def test_control_sections_rows(phev_run, phev_run_dir):
    lines = (Path(phev_run_dir) / "control_sections.csv").read_text().splitlines()
    assert lines[0] == "z2,z1,mu1,mu2"
    n1 = phev_run["problem"].sgrid.shape[0]
    assert len(lines) == 1 + 2 * n1  # sections at z2 near 0.5 and 0.9


def test_export_is_deterministic(ev_run, tmp_path):
    from evmfg import export_results

    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        export_results(
            ev_run["solution"], ev_run["problem"], ev_run["config"], out,
            wall_time=1.0, resampled=ev_run["resampled"],
        )
    for name in sorted(EV_FILES):
        assert (a / name).read_bytes() == (b / name).read_bytes()


# Values whose shortest repr differs from their 17-digit form, or that sit at
# the edges of the format: signed zero, the smallest subnormal, an inexact
# decimal, an exact integer, a repeating fraction, a huge power and 2**53 + 1
# (which rounds to 2**53).
AWKWARD = [-0.0, 5e-324, 0.1, 1.0, 1.0 / 3.0, 1e300, 2.0 ** 53 + 1]


def _awkward(shape, shift=0):
    values = AWKWARD + [-x for x in AWKWARD[1:]]
    return np.resize(np.roll(values, shift), shape).astype(float)


def _reference_csv_set(sol, problem, model) -> dict[str, str]:
    """The series CSVs written row by row with format(x, ".17g"), one call per number."""

    def fmt(x):
        return format(float(x), ".17g")

    t = problem.tgrid.nodes

    def series(header, columns):
        rows = [header] + [",".join([fmt(t[i])] + [fmt(c[i]) for c in columns]) for i in range(len(t))]
        return "\n".join(rows) + "\n"

    if model == "ev":
        purchases = ev_load(sol.m, problem.params, problem.sgrid)[0]
        d = problem.params.d
        return {
            "price.csv": series("t,value", [sol.p]),
            "purchases.csv": series("t,value", [purchases]),
            "total_consumption.csv": series("t,regulated,baseline", [purchases + d, purchases.mean() + d]),
        }
    z1, z2 = problem.sgrid.nodes(0), problem.sgrid.nodes(1)
    mu1, mu2 = sol.alpha
    sections = ["z2,z1,mu1,mu2"]
    for target in (0.5, 0.9):
        k = int(np.argmin(np.abs(z2 - target)))
        sections += [",".join(map(fmt, (z2[k], z1[j], mu1[0, j, k], mu2[0, j, k]))) for j in range(len(z1))]
    return {
        "r1.csv": series("t,value", [sol.p]),
        "control_sections.csv": "\n".join(sections) + "\n",
    }


def _check_export(sol, problem, model, out):
    """Each series CSV holds the per-number text; each field file holds the solution's bits."""
    for fname, text in _reference_csv_set(sol, problem, model).items():
        assert (out / fname).read_bytes() == text.encode(), fname
    for stem, values in zip(RUN_LAYOUT[model][0], (sol.m, sol.v, *sol.alpha), strict=True):
        assert np.load(out / f"{stem}.npy", allow_pickle=False).tobytes() == values.tobytes(), stem


@pytest.mark.parametrize("name, overrides", [
    ("ev_weekend", ["time_steps=3", "space.cells=4"]),
    ("phev_flat", ["time_steps=2", "space.cells=[4,5]"]),
])
def test_export_bytes_match_per_number_format(name, overrides, tmp_path):
    from evmfg import MfeSolution, export_results

    config = apply_overrides(load_scenario(name), overrides)
    problem, _, resampled = build_problem(config)
    shape = (problem.tgrid.n_nodes,) + problem.sgrid.shape
    n = problem.tgrid.n_nodes
    if config.model == "ev":
        alpha = (_awkward(shape, 2),)
    else:
        alpha = (_awkward(shape, 2), _awkward(shape, 5))
    sol = MfeSolution(v=_awkward(shape, 1), m=_awkward(shape), p=_awkward(n, 3), alpha=alpha, converged=True)
    export_results(sol, problem, config, tmp_path, resampled=resampled)
    _check_export(sol, problem, config.model, tmp_path)


def _spread_field(shape, rng):
    """Values of every notation and sign, with an awkward value in about one cell of twenty."""
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-9, 20, shape)
    return np.where(rng.random(shape) < 0.05, _awkward(shape), values)


@pytest.mark.parametrize("name, overrides", [
    ("ev_weekend", ["time_steps=48", "space.cells=100"]),
    ("phev_flat", ["time_steps=2", "space.cells=[65,64]"]),
])
def test_export_bytes_match_on_values_of_every_notation(name, overrides, tmp_path):
    from evmfg import MfeSolution, export_results

    config = apply_overrides(load_scenario(name), overrides)
    problem, _, resampled = build_problem(config)
    shape = (problem.tgrid.n_nodes,) + problem.sgrid.shape
    rng = np.random.default_rng(29)
    alpha = tuple(_spread_field(shape, rng) for _ in problem.sgrid.shape)
    sol = MfeSolution(v=_spread_field(shape, rng), m=_spread_field(shape, rng),
                      p=_spread_field(problem.tgrid.n_nodes, rng), alpha=alpha, converged=True)
    export_results(sol, problem, config, tmp_path, resampled=resampled)
    _check_export(sol, problem, config.model, tmp_path)
