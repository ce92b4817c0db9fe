"""Record what the reference runs of a checkout print and write.

    python scripts/reference_runs.py <checkout> <out_dir>

Runs ``evmfg run``, ``verify`` and ``oracle`` (default flags) on each of
the five reference runs, every command in its own process with
``<checkout>/src`` as the only ``PYTHONPATH`` entry. ``<out_dir>/<run>.txt``
gets each command's exit code, stdout and stderr, with the run directory
replaced by ``<RUN>``, then the sha256 of every exported CSV.

The output of two checkouts compares with ``diff -r``: it is empty when a
change keeps every figure and message byte for byte, which is the check a
pure refactor must pass. The script asserts nothing itself.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# name: (bundled scenario, --set overrides)
RUNS = {
    "ev_weekend": ("ev_weekend", []),
    "phev_flat": ("phev_flat", []),
    "ev_stiff_fine": ("ev_weekend", ["space.cells=400", "series.H=3.0", "price.exponent=4.0"]),
    "phev_io": ("phev_flat", ["space.cells=[64,64]", "time_steps=47"]),
    "ev_24x40": ("ev_weekend", ["time_steps=24", "space.cells=40"]),
}


def _evmfg(src: Path, cwd: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "evmfg", *args], cwd=cwd, env=env, capture_output=True, text=True)
    return f"$ evmfg {' '.join(args)}\nexit {done.returncode}\n{done.stdout}{done.stderr}"


def record(src: Path, scenario: str, overrides: list[str]) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        run_dir = str(Path(tmp) / "run")
        sets = [arg for item in overrides for arg in ("--set", item)]
        lines = [
            _evmfg(src, tmp, "run", scenario, "--out", run_dir, *sets),
            _evmfg(src, tmp, "verify", run_dir),
            _evmfg(src, tmp, "oracle", run_dir),
        ]
        for path in sorted(Path(run_dir).glob("*.csv")):
            lines.append(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}\n")
        return "".join(lines).replace(run_dir, "<RUN>")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python scripts/reference_runs.py <checkout> <out_dir>", file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve() / "src"
    out = Path(argv[1])
    out.mkdir(parents=True, exist_ok=True)
    for name, (scenario, overrides) in RUNS.items():
        (out / f"{name}.txt").write_text(record(src, scenario, overrides))
        print(f"wrote {out / name}.txt")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
