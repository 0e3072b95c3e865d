"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload fig1 --runs 10

Runs ``run.py`` once per seed (1, 2, ...), one after another, for the
``run_seconds`` of BENCHMARK.json, and prints for each end-to-end metric
its median and its quartile spread (Q3 - Q1) / median over the runs, next
to the bound in BENCHMARK.json.  A benchmark is steady when every spread
is below a third of its bound; a wider one is marked ``WIDE``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from report import median, quartile_spread  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {}
    for seed in range(1, args.runs + 1):
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        started = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        elapsed = time.perf_counter() - started
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect result: {result}", file=sys.stderr)
            return 1
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
        print(f"seed {seed} ({elapsed:.1f} s): "
              + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, vals in values.items():
        spread = quartile_spread(vals)
        verdict = "ok" if spread < bounds[name] / 3 else "WIDE"
        print(f"{args.workload} {name}: median {median(vals):.5g} spread {spread:.4f} "
              f"bound {bounds[name]} (third {bounds[name] / 3:.4f}) {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
