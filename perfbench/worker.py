"""One repetition of a workload in a fresh process.

    python3 perfbench/worker.py --workload W --seed N [--trace] [--setup-only]

Times the import of ``stealthgrid`` (from ``src/`` of this checkout) and
the workload's set-up, then the timed calls, then checks the outputs with
the clock stopped.  Prints one JSON record as its last line of output.
The process is fresh so that the import, the per-process caches of the
package and the peak resident memory are those a CLI user gets.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"


def _import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import stealthgrid.cli  # noqa: F401  (imports every layer, as a CLI call does)

    sg = sys.modules["stealthgrid"]
    expected = (ROOT / "src" / "stealthgrid").resolve()
    if Path(sg.__file__).resolve().parent != expected:
        raise SystemExit(f"imported stealthgrid from {sg.__file__}, not {expected}")
    return sg


def environment() -> dict:
    """Versions, BLAS library and thread counts of this process."""
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "machine": platform.machine(),
    }


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run(workload: str, seed: int, trace: bool, setup_only: bool) -> dict:
    start = time.perf_counter()
    sg = _import_package()
    import_s = time.perf_counter() - start

    sys.path.insert(0, str(HERE))
    import report
    import spans
    import workloads

    wl = workloads.WORKLOADS[workload]
    tracer = spans.Tracer() if trace else None
    if tracer:
        tracer.install()
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR))
    record: dict = {"workload": workload, "seed": seed, "trace": trace}
    try:
        t0 = time.perf_counter()
        ctx = wl.setup(sg, seed, tmp)
        record["setup_s"] = import_s + time.perf_counter() - t0
        record["import_s"] = import_s
        if setup_only:
            return record
        cpu0 = time.process_time()
        w0 = time.perf_counter()
        try:
            outputs = wl.run(sg, ctx)
        except Exception:  # the failure is the measurement: report it, do not crash
            traceback.print_exc()
            record.update(attempted=1, failed=1, notes=["workload raised; see stderr"])
            return record
        record["wall_s"] = time.perf_counter() - w0
        record["cpu_s"] = time.process_time() - cpu0
        # ru_maxrss is in KiB on Linux.
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            tracer.uninstall()
            record["layers"] = report.layer_metrics(tracer.spans, record["wall_s"])
            _write_spans(tracer.spans, workload, seed, w0)
        verdict = wl.check(sg, ctx, outputs)
        record.update(
            attempted=verdict.attempted,
            failed=verdict.failed,
            notes=verdict.notes,
            health=verdict.health,
            artifacts=verdict.artifacts,
        )
        return record
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(tmp, ignore_errors=True)


def _write_spans(span_list: list, workload: str, seed: int, work_start: float) -> None:
    """Spans of the workload's last traced repetition, in seconds from the work start."""
    rows = [[name, s - work_start, e - work_start, parent, info]
            for name, s, e, parent, info in span_list]
    path = OUT_DIR / f"spans-{workload}.json"
    path.write_text(json.dumps({"workload": workload, "seed": seed, "spans": rows}) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    record = run(args.workload, args.seed, args.trace, args.setup_only)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
