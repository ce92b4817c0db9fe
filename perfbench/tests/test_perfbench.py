"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import clock  # noqa: E402
import pipeline  # noqa: E402
import spans  # noqa: E402

PRINTED_END_TO_END = ("setup_s", "solve_s", "run_s", "verify_s", "oracle_s", "pipeline_s", "peak_rss_mb",
                      "verify_dev", "oracle_dp_dev", "oracle_mc_l1", "failed_ops_share")


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ev_weekend", "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in spec[section]}
    text = "\n".join(lines[:-1])
    for name in PRINTED_END_TO_END:
        assert f"  {name} " in text
    # The standing criterion-3 DP gap makes the ev oracle exit 1; it is counted, not hidden.
    assert result["failed"] == result["attempted"] // 3


def _span(tracer, span_id, parent, start, end, name="x"):
    span = spans.Span(1, span_id, parent, name, start, end)
    tracer.spans.append(span)
    return span


def test_self_time_on_nested_span_tree():
    tracer = spans.Tracer(lambda: 0.0)
    _span(tracer, 0, None, 0.0, 10.0)   # root
    _span(tracer, 1, 0, 1.0, 4.0)       # a
    _span(tracer, 2, 1, 2.0, 3.0)       # a/c
    _span(tracer, 3, 0, 5.0, 9.0)       # b
    _span(tracer, 4, 3, 5.0, 6.0)       # b/d
    _span(tracer, 5, 3, 6.5, 8.0)       # b/e
    _span(tracer, 6, 5, 7.0, 7.5)       # b/e/g
    got = spans.self_times(tracer.spans)
    want = {0: 10.0 - 3.0 - 4.0, 1: 3.0 - 1.0, 2: 1.0, 3: 4.0 - 1.0 - 1.5, 4: 1.0, 5: 1.5 - 0.5, 6: 0.5}
    assert got == pytest.approx(want)


def test_reference_clock_scales_cpu_time_and_leaves_out_the_kernel(monkeypatch):
    cpu = [0.0]
    kernel_s = [clock.REFERENCE_S, 2.0 * clock.REFERENCE_S]  # full speed, then half speed
    monkeypatch.setattr(clock, "thread_time", lambda: cpu[0])

    def kernel():
        cpu[0] += kernel_s.pop(0)

    monkeypatch.setattr(clock, "reference_kernel", kernel)
    ref = clock.ReferenceClock()
    ref._run_kernel()          # as ``start`` does, without arming the timer
    start = ref.now()
    cpu[0] += 0.010            # 10 ms of work at full speed
    ref._sample(None, None)    # the kernel now takes twice as long
    cpu[0] += 0.010            # 10 ms of work at half speed
    assert ref.now() - start == pytest.approx(0.010 + 0.005)
    assert ref.kernel_s == pytest.approx([clock.REFERENCE_S, 2.0 * clock.REFERENCE_S])


def test_instrument_restores_the_original_functions():
    import evmfg.cli
    import evmfg.ev

    originals = (evmfg.ev.hjb_backward_sweep, evmfg.ev.diff_central, evmfg.cli.read_field_csv)
    with spans.instrument(spans.Tracer(lambda: 0.0)):
        assert evmfg.ev.hjb_backward_sweep is not originals[0]
    assert (evmfg.ev.hjb_backward_sweep, evmfg.ev.diff_central, evmfg.cli.read_field_csv) == originals


def test_missing_m_csv_counts_a_failed_verify(tmp_path, monkeypatch):
    export = pipeline.scenario.export_results

    def export_without_m(sol, problem, config, out_dir, **kwargs):
        files = export(sol, problem, config, out_dir, **kwargs)
        (Path(out_dir) / "m.csv").unlink()
        return files

    monkeypatch.setattr(pipeline.scenario, "export_results", export_without_m)
    ops = []
    with pytest.raises(pipeline.GateError, match="verify failed"), clock.ReferenceClock() as ref:
        pipeline.run_pass("ev_weekend", tmp_path / "run", seed=0, ops=ops, clock=ref)
    assert ops == [("run", True), ("verify", False)]
