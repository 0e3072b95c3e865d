"""stealthgrid benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Runs workload W (``fig1``, ``bound_sweep``, ``mc_small``, ``detect``; see
``workloads.py``) for about S seconds.  Every repetition is a fresh
process (``worker.py``), because the import, the package's per-process
caches and the peak resident memory are what each CLI call pays.
Set-up-only processes between the work repetitions of an untraced run
add samples of ``setup_s``.  Outputs are checked in every repetition.

With ``--trace 0`` the last line of output is the JSON result carrying the
end-to-end metrics, medians over the repetitions:

- ``wall_s``: time from the first call into the package to its outputs;
- ``setup_s``: importing the package and building the workload's inputs;
- ``cpu_s``: user+system CPU time of the timed work, all threads;
- ``peak_rss_mb``: peak resident memory of the repetition's process.

With ``--trace 1`` it alternates untraced and traced repetitions and
reports the per-layer metrics of ``report.py`` (medians over the traced
repetitions) plus ``trace.overhead_frac``.  A record of every run, with
the environment and the fig1 CSV digests, is written to
``.perfbench_out/``.  Run from the root of a checkout; the package is
imported from its ``src/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from report import PER_LAYER_UNITS, median  # noqa: E402
from worker import environment  # noqa: E402

WORKLOADS = ("fig1", "bound_sweep", "mc_small", "detect")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
#: Set-up-only processes per round of an untraced run; with those that fill
#: its end and the work repetitions' own, ``setup_s`` is a median of some
#: twenty samples spread over the run.
SETUP_PER_ROUND = 2
#: Every run, and so every worker, must be over well inside this many seconds.
RUN_LIMIT_S = 170.0
#: Longest ``--seconds`` accepted: a repetition started just before the end
#: of the run still has RUN_LIMIT_S - MAX_SECONDS seconds to finish.
MAX_SECONDS = 120.0


class Run:
    """Spawns the repetitions of one benchmark run and collects their records."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = time.perf_counter()
        self.records: list[dict] = []
        self.errors: list[str] = []

    def spawn(self, *flags: str) -> dict | None:
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), *flags]
        remaining = RUN_LIMIT_S - (time.perf_counter() - self.started)
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(remaining, 1.0))
        except subprocess.TimeoutExpired:
            self.errors.append(f"{' '.join(flags) or 'work'} repetition timed out")
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self.errors.append(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
            return None
        record = json.loads(lines[-1])
        record["flags"] = list(flags)
        self.records.append(record)
        return record

    def work(self, *flags: str) -> list[dict]:
        """Records of completed work repetitions spawned with exactly ``flags``."""
        return [r for r in self.records if "wall_s" in r and r["flags"] == list(flags)]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> Run:
    """Spawn rounds of repetitions for ``seconds``.

    In an untraced run each round adds SETUP_PER_ROUND set-up-only
    processes, and more of them fill the time left at the end; traced runs
    report no ``setup_s``.
    """
    run = Run(workload, seed)
    deadline = run.started + seconds
    rounds = []
    while not run.errors:
        t0 = time.perf_counter()
        run.spawn()
        if trace:
            run.spawn("--trace")
        else:
            for _ in range(SETUP_PER_ROUND):
                run.spawn("--setup-only")
        rounds.append(time.perf_counter() - t0)
        # Start another round only if it should end within the run length.
        if time.perf_counter() + median(rounds) > deadline:
            break
    while not trace and not run.errors and time.perf_counter() < deadline:
        run.spawn("--setup-only")
    return run


def end_to_end(run: Run) -> dict[str, float]:
    plain = run.work()
    metrics = {name: median(r[name] for r in plain) for name in END_TO_END_UNITS}
    metrics["setup_s"] = median(r["setup_s"] for r in run.records
                                if r["flags"] in ([], ["--setup-only"]))
    return metrics


def per_layer(run: Run) -> dict[str, float]:
    traced, plain = run.work("--trace"), run.work()
    metrics = {}
    for name in PER_LAYER_UNITS:
        values = [r["layers"].get(name, r["health"].get(name)) for r in traced]
        metrics[name] = median(v for v in values if v is not None)
    if traced and plain:
        metrics["trace.overhead_frac"] = (
            median(r["wall_s"] for r in traced) / median(r["wall_s"] for r in plain) - 1.0
        )
    attempted, failed = tally(run)
    metrics["ops_failed_frac"] = failed / attempted
    return metrics


def tally(run: Run) -> tuple[int, int]:
    """Operations attempted and failed over all repetitions of the run.

    A repetition that crashed counts as one failed operation; for fig1,
    repetitions whose CSV digests differ count as one failed determinism
    check (every repetition of a run uses the same seed).
    """
    attempted = sum(r.get("attempted", 0) for r in run.records) + len(run.errors)
    failed = sum(r.get("failed", 0) for r in run.records) + len(run.errors)
    digests = {json.dumps(r["artifacts"], sort_keys=True) for r in run.records if r.get("artifacts")}
    if digests:
        attempted += 1
        failed += len(digests) > 1
    return attempted, failed


def source_digest() -> str:
    """sha256 over the package sources, standing in for a commit id."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout, or None when the checkout is not its own git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def main() -> int:
    parser = argparse.ArgumentParser(description="stealthgrid benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "stealthgrid" / "__init__.py").is_file():
        print(f"error: no stealthgrid sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not 0 < args.seconds <= MAX_SECONDS:
        print(f"error: --seconds must be above 0 and at most {MAX_SECONDS:g}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**63:
        print("error: --seed must be a non-negative 63-bit integer", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if not run.work():
        print("error: no repetition completed:\n" + "\n".join(run.errors), file=sys.stderr)
        return 1
    attempted, failed = tally(run)
    if args.trace:
        values, units = per_layer(run), PER_LAYER_UNITS
    else:
        values, units = end_to_end(run), END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    notes = [note for r in run.records for note in r.get("notes", [])] + run.errors
    record = {
        "args": vars(args),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "env": environment(),
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        "repetitions": run.records,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1, default=str) + "\n")

    for note in notes[:20]:
        print(f"FAILED: {note}", file=sys.stderr)
    for metric, entry in metrics.items():
        print(f"{metric} = {entry['value']:.6g} {entry['unit']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
