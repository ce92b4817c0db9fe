"""Record benchmark runs of one or more checkouts as BENCH_<n>.json files.

    python scripts/bench_record.py --seed 11 --seconds 8 --trace 0 --rounds 10 \\
        --record <parent_checkout> BENCH_0.json --record <change_checkout> BENCH_1.json

Each round runs ``<checkout>/perfbench/run.py --workload all`` once per
``--record``, each as a child process at the stated seed, ``--seconds`` and
``--trace``: in the order given on even rounds and in reverse on odd ones,
so two records give ``--rounds`` pairs that alternate which side runs
first. The benchmark itself is not changed or imported: this
script reads what ``run.py`` prints for each workload, namely

- the ``env`` line (CPU count and model, Python, numpy and PyYAML
  versions, commit, thread variables, seed);
- the ``passes ...; csv sha256 <hex>`` line;
- the ``samples`` line (every untraced pass's value of every end-to-end
  metric);
- the closing result JSON (``correct``, ``attempted``, ``failed`` and the
  medians of the run: end-to-end with ``--trace 0``, per layer with
  ``--trace 1``).

Each output file holds, per workload, ``correct`` (every run), the summed
``attempted`` and ``failed``, the CSV sha256 and, for every metric, the
median, quartiles and n over all passes of all rounds together with each
round's own median (``rounds``), so the i-th entries of two files that ran
in one invocation form the i-th pair. Per-layer metrics are medians per run
already, so their n counts runs.

When one invocation writes two records, the script also prints, per
workload and end-to-end metric of the first checkout's ``BENCHMARK.json``
(which it only reads), the verdict of the claim rule on the rounds as
pairs: both sides' medians of the round medians, the first side's spread
between the quartiles of its round medians, the pairs the second side won
(ties count for neither) and one of ``gain`` (at least nine tenths of the
pairs won and a median gap larger than that spread), ``worse beyond
bound`` (the second median worse than the first by more than the metric's
relative ``bound``) or ``flat``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_run_output(text: str) -> dict[str, dict]:
    """Per workload: the ``env``, ``csv_sha256``, ``samples`` and ``result`` that ``run.py`` printed.

    A workload whose gate broke prints no ``samples`` or sha256 line, so
    those stay None; one that crashed before its result also keeps
    ``result`` None.
    """
    runs: dict[str, dict] = {}
    current: dict | None = None
    env = None
    for line in text.splitlines():
        if line.startswith("env "):
            env, current = json.loads(line[4:]), None
        elif line.startswith("workload ") and ":" in line:
            name = line[len("workload "):].split(":", 1)[0]
            current = runs[name] = {"env": env, "csv_sha256": None, "samples": None, "result": None}
        elif current is None:
            continue
        elif line.startswith("passes ") and "csv sha256 " in line:
            current["csv_sha256"] = line.rsplit("csv sha256 ", 1)[1].strip()
        elif line.startswith("samples "):
            current["samples"] = json.loads(line[len("samples "):])
        elif line.startswith("{"):
            current["result"] = json.loads(line)
    return runs


def _stats(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def summarize(rounds: list[dict[str, dict]]) -> dict[str, dict]:
    """One record per workload from the parsed output of every round (``parse_run_output`` of each)."""
    workloads = {}
    for name in dict.fromkeys(n for r in rounds for n in r):
        runs = [r.get(name) or {} for r in rounds]
        results = [run.get("result") or {} for run in runs]
        end_to_end: dict[str, dict] = {}
        for run in runs:
            for metric, values in (run.get("samples") or {}).items():
                entry = end_to_end.setdefault(metric, {"values": [], "rounds": []})
                entry["values"] += values
                entry["rounds"].append(statistics.median(values))
        per_layer: dict[str, dict] = {}
        for res in results:
            for metric, body in res.get("metrics", {}).items():
                if "." in metric:  # per-layer names are dotted, end-to-end ones are not
                    per_layer.setdefault(metric, {"unit": body["unit"], "rounds": []})["rounds"].append(body["value"])
        workloads[name] = {
            "correct": all(res.get("correct", False) for res in results),
            "attempted": sum(res.get("attempted", 0) for res in results),
            "failed": sum(res.get("failed", 0) for res in results),
            "csv_sha256": sorted({run["csv_sha256"] for run in runs if run.get("csv_sha256")}),
            "end_to_end": {m: {**_stats(e["values"]), "rounds": e["rounds"]} for m, e in end_to_end.items()},
            "per_layer": {m: {"unit": e["unit"], **_stats(e["rounds"]), "rounds": e["rounds"]}
                          for m, e in per_layer.items()},
        }
    return workloads


def bench_record(rounds: list[dict[str, dict]], seed: int, seconds: float, trace: int) -> dict:
    """The BENCH file of one checkout: the command, its first ``env`` line and ``summarize(rounds)``."""
    env = next((run["env"] for r in rounds for run in r.values() if run["env"]), None)
    return {
        "command": f"perfbench/run.py --workload all --seed {seed} --seconds {seconds:g} --trace {trace}",
        "rounds": len(rounds),
        "environment": env,
        "workloads": summarize(rounds),
    }


def verdict(first: list[float], second: list[float], better: str, bound: float) -> dict:
    """The claim rule on one metric's round medians, the i-th of each side forming the i-th pair.

    ``better`` is "lower" or "higher"; ``bound`` is the relative worsening
    the benchmark allows. Gives both medians, the first side's quartile
    spread, the pairs the second side won and the verdict.
    """
    sign = 1.0 if better == "lower" else -1.0
    won = sum(sign * (a - b) > 0.0 for a, b in zip(first, second))
    pairs = min(len(first), len(second))
    base = _stats(first)
    spread = base["q3"] - base["q1"]
    medians = base["median"], statistics.median(second)
    gain = sign * (medians[0] - medians[1])  # > 0 where the second side is better
    if won >= 0.9 * pairs and gain > spread:
        outcome = "gain"
    elif -gain > bound * abs(medians[0]):
        outcome = "worse beyond bound"
    else:
        outcome = "flat"
    return {"medians": medians, "spread": spread, "won": won, "pairs": pairs, "verdict": outcome}


def verdict_lines(first: dict, second: dict, benchmark: dict) -> list[str]:
    """One line per workload and end-to-end metric of ``benchmark`` (a ``BENCHMARK.json``) found in both records."""
    lines = []
    for name, workload in first["workloads"].items():
        other = second["workloads"].get(name, {}).get("end_to_end", {})
        for metric in benchmark["end_to_end"]:
            a, b = workload["end_to_end"].get(metric["name"]), other.get(metric["name"])
            if not (a and b):
                continue
            v = verdict(a["rounds"], b["rounds"], metric["better"], metric["bound"])
            lines.append(f"{name} {metric['name']}: {v['medians'][0]:.6g} -> {v['medians'][1]:.6g} {metric['unit']}, "
                         f"first IQR {v['spread']:.3g}, second won {v['won']}/{v['pairs']}: {v['verdict']}")
    return lines


def run_benchmark(checkout: Path, seed: int, seconds: float, trace: int) -> str:
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", "all", "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        print(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}", file=sys.stderr)
    return done.stdout


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", nargs=2, action="append", required=True, metavar=("CHECKOUT", "OUT"),
                        help="a checkout to run and the BENCH file to write for it; repeat to alternate")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--rounds", type=int, default=1, help="runs of each checkout, alternating")
    args = parser.parse_args(argv)
    checkouts = [Path(c).resolve() for c, _ in args.record]
    outputs: list[list[dict]] = [[] for _ in checkouts]
    for i in range(args.rounds):
        for checkout, out in list(zip(checkouts, outputs))[::1 if i % 2 == 0 else -1]:
            print(f"round {i + 1}/{args.rounds}: {checkout}", file=sys.stderr, flush=True)
            out.append(parse_run_output(run_benchmark(checkout, args.seed, args.seconds, args.trace)))
    records = [bench_record(out, args.seed, args.seconds, args.trace) for out in outputs]
    commits = [(r["environment"] or {}).get("git_commit", "unknown") for r in records]
    for k, ((_, path), record) in enumerate(zip(args.record, records)):
        record["alternated_with"] = commits[:k] + commits[k + 1:]
        Path(path).write_text(json.dumps(record, indent=1) + "\n")
    if len(records) == 2:
        benchmark = json.loads((checkouts[0] / "BENCHMARK.json").read_text())
        print("\n".join(verdict_lines(*records, benchmark)))
    return 0 if all(w["correct"] for r in records for w in r["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
