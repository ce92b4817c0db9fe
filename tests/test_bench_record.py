"""``scripts/bench_record.py`` on recorded ``perfbench/run.py --workload all`` output; nothing here runs the benchmark.

``data/run_all_trace0.txt`` and ``data/run_all_trace1.txt`` are the stdout
of ``python3 perfbench/run.py --workload all --seed 11 --seconds 1 --trace
0`` (and ``--trace 1``), kept as printed.
"""

import importlib.util
import json
import statistics
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).resolve().parent / "data"
WORKLOADS = ["ev_weekend", "ev_stiff_fine", "phev_io"]
END_TO_END = ["setup_s", "solve_s", "run_s", "verify_s", "oracle_s", "pipeline_s", "peak_rss_mb"]


def _bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "scripts" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules["bench_record"] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules["bench_record"]
    return module


def _recorded(trace):
    return (DATA / f"run_all_trace{trace}.txt").read_text()


@pytest.mark.parametrize("trace", [0, 1])
def test_parser_reads_each_workload_of_a_recorded_run(trace):
    runs = _bench_record().parse_run_output(_recorded(trace))
    assert list(runs) == WORKLOADS
    for run in runs.values():
        assert run["env"]["seed"] == 11 and run["env"]["python"] and run["env"]["numpy"]
        assert len(run["csv_sha256"]) == 64
        assert list(run["samples"]) == END_TO_END
        assert run["result"]["correct"] is True
        assert run["result"]["failed"] == 0 and run["result"]["attempted"] > 0


def test_record_of_one_round_has_the_medians_quartiles_and_counts_run_py_printed():
    bench = _bench_record()
    text = _recorded(0)
    record = bench.bench_record([bench.parse_run_output(text)], seed=11, seconds=1.0, trace=0)
    json.dumps(record)  # what the file holds
    assert record["rounds"] == 1 and record["command"].endswith("--seed 11 --seconds 1 --trace 0")
    assert record["environment"]["git_commit"] == "3348d8f6548c7106fb37fad16d70ea33c3336abd"
    results = [json.loads(line) for line in text.splitlines() if line.startswith("{")]
    for workload, result in zip(record["workloads"].values(), results):
        assert (workload["correct"], workload["attempted"], workload["failed"]) == (True, result["attempted"], 0)
        assert workload["per_layer"] == {}
        for metric in END_TO_END:
            stats = workload["end_to_end"][metric]
            # run.py's printed median is of the unrounded samples; the samples line keeps 6 decimals
            assert stats["median"] == pytest.approx(result["metrics"][metric]["value"], abs=1e-6)
            assert stats["rounds"] == [stats["median"]]
            assert stats["q1"] <= stats["median"] <= stats["q3"]
    weekend = record["workloads"]["ev_weekend"]
    assert weekend["end_to_end"]["oracle_s"] == pytest.approx(
        {"median": 0.187272, "q1": 0.1837365, "q3": 0.1913635, "n": 3, "rounds": [0.187272]}, abs=1e-12
    )
    assert weekend["end_to_end"]["setup_s"]["n"] == 30
    assert weekend["csv_sha256"] == ["019ce64546f8611406612769c628ddf9b25ecac76ca58d534a1f3fb8d98b6767"]


def test_record_of_two_rounds_pools_the_passes_and_keeps_each_rounds_median():
    bench = _bench_record()
    parsed = bench.parse_run_output(_recorded(0))
    record = bench.bench_record([parsed, parsed], seed=11, seconds=1.0, trace=0)
    stats = record["workloads"]["ev_weekend"]["end_to_end"]["oracle_s"]
    assert stats["n"] == 6 and stats["rounds"] == [0.187272, 0.187272]
    assert record["workloads"]["ev_weekend"]["attempted"] == 18


def test_traced_record_keeps_every_per_layer_metric_of_each_round():
    bench = _bench_record()
    text = _recorded(1)
    record = bench.bench_record([bench.parse_run_output(text)] * 3, seed=11, seconds=1.0, trace=1)
    results = [json.loads(line) for line in text.splitlines() if line.startswith("{")]
    for workload, result in zip(record["workloads"].values(), results):
        assert set(workload["per_layer"]) == set(result["metrics"])
        for metric, body in result["metrics"].items():
            layer = workload["per_layer"][metric]
            assert layer["unit"] == body["unit"] and layer["n"] == 3
            assert layer["median"] == layer["q1"] == layer["q3"] == body["value"]
        # the untraced passes still give the end-to-end samples
        assert set(workload["end_to_end"]) == set(END_TO_END)
    mc = record["workloads"]["ev_weekend"]["per_layer"]["oracle.mc_s"]
    assert statistics.median(mc["rounds"]) == mc["median"] > 0.0


def test_a_broken_gate_is_recorded_as_incorrect():
    # run.py prints only the env and workload lines and a failed result when a gate breaks
    bench = _bench_record()
    text = _recorded(0)
    env = text.splitlines()[0]
    broken = f'{env}\nworkload ev_weekend: x\n{{"correct": false, "attempted": 1, "failed": 1, "metrics": {{}}}}\n'
    crashed = f"{env}\nworkload ev_weekend: x\n"
    for other in (broken, crashed):
        record = bench.bench_record([bench.parse_run_output(text), bench.parse_run_output(other)], 11, 1.0, 0)
        weekend = record["workloads"]["ev_weekend"]
        assert weekend["correct"] is False
        assert weekend["end_to_end"]["oracle_s"]["rounds"] == [0.187272]
    assert weekend["attempted"] == 9 and weekend["failed"] == 0


@pytest.mark.parametrize("second, won, expected", [
    ([0.90, 0.91, 0.89, 0.92, 0.90, 0.88, 0.91, 0.90, 0.89, 1.10], 9, "gain"),
    ([0.90, 0.91, 0.89, 0.92, 0.90, 0.88, 0.91, 0.90, 1.10, 1.10], 8, "flat"),  # one pair too few won
    ([0.95, 0.97, 0.99, 1.01, 1.03, 0.96, 0.99, 1.02, 0.99, 0.97], 10, "flat"),  # every pair, by less than the spread
    ([1.20, 1.21, 1.19, 1.22, 1.20, 1.18, 1.21, 1.20, 1.19, 1.20], 0, "flat"),  # worse, within the 0.25 bound
    ([1.30, 1.31, 1.29, 1.32, 1.30, 1.28, 1.31, 1.30, 1.29, 1.30], 0, "worse beyond bound"),
])
def test_verdict_of_the_claim_rule_on_synthetic_rounds(second, won, expected):
    # the first side's round medians: median 1.0, quartiles 0.98 and 1.015
    first = [0.96, 0.98, 1.0, 1.02, 1.04, 0.97, 1.0, 1.03, 1.0, 0.98]
    got = _bench_record().verdict(first, second, "lower", 0.25)
    assert (got["won"], got["pairs"], got["verdict"]) == (won, 10, expected)
    assert got["medians"] == (statistics.median(first), statistics.median(second))
    assert got["spread"] == pytest.approx(1.015 - 0.98)
    # a higher-is-better metric reads the same rounds the other way round
    mirrored = _bench_record().verdict([-x for x in first], [-x for x in second], "higher", 0.25)
    assert (mirrored["won"], mirrored["verdict"]) == (won, expected)


def test_two_records_print_one_verdict_line_per_workload_and_benchmark_metric():
    bench = _bench_record()
    parsed = bench.parse_run_output(_recorded(0))
    first = bench.bench_record([parsed] * 3, seed=11, seconds=1.0, trace=0)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines = bench.verdict_lines(first, first, benchmark)
    assert len(lines) == len(WORKLOADS) * len(benchmark["end_to_end"])
    assert lines[0].startswith("ev_weekend setup_s: ") and all(line.endswith("won 0/3: flat") for line in lines)
