"""evmfg benchmark: closed-loop passes of set-up -> run -> verify -> oracle.

    python3 perfbench/run.py --workload ev_weekend --seed 1 --seconds 25 --trace 0

One client, one pass at a time, one thread, one process per workload
(``--workload all`` runs each workload in a child process, one after the
other). A discarded warm-up pass comes first; passes then repeat until
``--seconds`` have elapsed. ``--seed`` feeds ``evmfg oracle --seed`` and
nothing else. Every pass goes through the correctness gate; a broken gate
prints the result with ``"correct": false`` and exits 1.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` untraced and traced passes alternate and it carries the
per-layer metrics of the traced passes (spans are written to
``.perfbench_out/``). Both are medians over the passes of the run.
"""

from __future__ import annotations

import os

# One thread per process, fixed before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("ev_weekend", "ev_stiff_fine", "phev_io")

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "run_s": "s",
    "verify_s": "s",
    "oracle_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
}
# Printed with every result but not gated by a relative bound: each can be
# 0 or absent on some workload, or is roundoff-sized (see README.md).
ACCURACY_UNITS = {"verify_dev": "1", "oracle_dp_dev": "1", "oracle_mc_l1": "1", "failed_ops_share": "ratio"}


def _import_program():
    """Import evmfg from this checkout's ``src``, never from anywhere else."""
    if not (SRC / "evmfg" / "__init__.py").is_file():
        sys.exit(f"perfbench: no evmfg sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import evmfg

    if Path(evmfg.__file__).resolve().parent != SRC / "evmfg":
        sys.exit(f"perfbench: imported evmfg from {evmfg.__file__}, not from {SRC}")


def _git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown (git not available)"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy
    import yaml

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "git_commit": _git_commit(),
        "threads": {var: os.environ.get(var) for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
    }


def _tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, else the max."""
    n = len(values)
    for pct in (99.9, 99.0, 90.0):
        if n * (1.0 - pct / 100.0) >= 10:
            return f"p{pct:g} {statistics.quantiles(values, n=1000)[int(pct * 10) - 1]:.6g}"
    return f"max {max(values):.6g}"


def end_to_end(passes) -> dict[str, list[float]]:
    samples = {
        "setup_s": [t for p in passes for t in p.setup_s],
        "solve_s": [p.solve_s for p in passes],
        "run_s": [p.run_s for p in passes],
        "verify_s": [p.verify_s for p in passes],
        "oracle_s": [p.oracle_s for p in passes],
        "pipeline_s": [p.pipeline_s for p in passes],
    }
    samples["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
    return samples


def accuracy(passes, ops) -> dict[str, float]:
    last = passes[-1]
    out = {"verify_dev": last.verify_dev, "oracle_dp_dev": last.oracle_dp_dev}
    if last.oracle_mc_l1 is not None:
        out["oracle_mc_l1"] = last.oracle_mc_l1
    out["failed_ops_share"] = sum(not ok for _, ok in ops) / len(ops)
    return out


def _print_result(correct: bool, ops, metrics: dict[str, tuple[float, str]]) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": sum(not ok for _, ok in ops),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> int:
    _import_program()
    import pipeline
    import spans
    from clock import REFERENCE_S, ReferenceClock

    print("env", json.dumps(environment(seed)))
    print(f"workload {workload}: {pipeline.WORKLOADS[workload]}")
    OUT.mkdir(exist_ok=True)
    run_dir = OUT / f"{workload}-{os.getpid()}"
    clock = ReferenceClock()
    tracer = spans.Tracer(clock.now)
    untraced, traced_passes, digests, ops = [], [], set(), []
    try:
        with clock:
            digests.add(pipeline.run_pass(workload, run_dir, seed, [], clock).csv_sha256)  # warm-up
            deadline = perf_counter() + seconds
            while True:
                untraced.append(pipeline.run_pass(workload, run_dir, seed, ops, clock))
                digests.add(untraced[-1].csv_sha256)
                if traced:
                    tracer.new_trace()
                    with spans.instrument(tracer):
                        traced_passes.append(pipeline.run_pass(workload, run_dir, seed, ops, clock))
                    if traced_passes[-1].csv_sha256 != untraced[-1].csv_sha256:
                        raise pipeline.GateError("the traced pass exported different CSVs than the untraced one")
                if len(digests) != 1:
                    raise pipeline.GateError(f"passes exported {len(digests)} different CSV sets")
                if perf_counter() >= deadline:
                    break
    except pipeline.GateError as exc:
        traceback.print_exception(exc, file=sys.stderr)
        print(f"perfbench: GATE FAILED on {workload}: {exc}", file=sys.stderr)
        _print_result(False, ops or [("run", False)], {})
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    samples = end_to_end(untraced)
    print(f"passes {len(untraced)} untraced, {len(traced_passes)} traced; csv sha256 {digests.pop()}")
    print("samples", json.dumps({name: [round(v, 6) for v in values] for name, values in samples.items()}))
    for name, values in samples.items():
        print(f"  {name:<18} {statistics.median(values):.6g} {END_TO_END_UNITS[name]} "
              f"(median; {_tail(values)}; n={len(values)})")
    kernel_s = clock.kernel_s
    print(f"  {'pipeline_wall_s':<18} {statistics.median(p.wall_s for p in untraced):.6g} s "
          f"(median wall time of a pass, not scaled)")
    print(f"  {'reference_kernel':<18} {1e3 * statistics.median(kernel_s):.4g} ms (median; "
          f"min {1e3 * min(kernel_s):.4g}, max {1e3 * max(kernel_s):.4g}; n={len(kernel_s)}; "
          f"times above are scaled to {1e3 * REFERENCE_S:g} ms)")
    for name, value in accuracy(untraced, ops).items():
        print(f"  {name:<18} {value:.6g} {ACCURACY_UNITS[name]}")

    if not traced:
        metrics = {name: (statistics.median(v), END_TO_END_UNITS[name]) for name, v in samples.items()}
    else:
        per_pass = [spans.layer_metrics(tracer.trace(t)) for t in range(1, tracer.trace_id + 1)]
        metrics = {}
        for name, unit in spans.LAYER_UNITS.items():
            if name == "trace.overhead_s":
                value = (statistics.median(p.pipeline_s for p in traced_passes)
                         - statistics.median(p.pipeline_s for p in untraced))
            else:
                value = statistics.median(p[name] for p in per_pass)
            metrics[name] = (float(value), unit)
        spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
        tracer.write(str(spans_path))
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    _print_result(True, ops, metrics)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0, help="oracle Monte Carlo seed")
    parser.add_argument("--seconds", type=float, default=25.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload != "all":
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    status = 0
    for workload in WORKLOAD_NAMES:  # one process each, so peak_rss_mb is per workload
        child = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(child).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
