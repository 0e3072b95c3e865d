"""Tests of the benchmark's own logic (not of the package).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import stealthgrid as sg  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from report import (  # noqa: E402
    PER_LAYER_UNITS,
    layer_metrics,
    quartile_spread,
    tail_percentile,
)
from spans import Tracer, self_times  # noqa: E402


# --- statistics -------------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected_q",
    [(19, None), (20, 50.0), (40, 75.0), (50, 80.0), (100, 90.0), (999, 95.0), (1000, 99.0),
     (2250, 99.0), (10_000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected_q):
    samples = list(np.random.default_rng(n).exponential(size=n))
    tail = tail_percentile(samples)
    if expected_q is None:
        assert tail is None
        return
    q, value = tail
    assert q == expected_q
    assert sum(s > value for s in samples) >= 10


def test_quartile_spread_uses_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 10.2, 9.8, 10.1, 9.9, 10.3, 10.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx((q3 - q1) / statistics.median(values))


# --- spans and self time ----------------------------------------------------


def _span(name, start, end, parent, info=None):
    return [name, start, end, parent, info]


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("experiment.run_experiment", 0.0, 10.0, -1),
        _span("learning.estimate_ergodic_cost", 1.0, 4.0, 0),
        _span("gaussian.nonzero_spectrum", 2.0, 3.0, 1),
        _span("bounds.ergodic_upper_bound", 5.0, 6.0, 0),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_layer_metrics_counts_outermost_layer_spans_once():
    solve = {"residual": 1e-15, "clipped": 1, "p": 4}
    spans = [
        _span("experiment.emit_fig1_dataset", 0.0, 10.0, -1),
        _span("experiment.run_experiment", 0.0, 8.0, 0),
        _span("learning.estimate_ergodic_cost", 0.5, 6.5, 1,
              {"trials": 1000, "sampler": "bartlett", "rel_stderr": 1e-3}),
        _span("bounds.ergodic_upper_bound", 7.0, 7.5, 1),
        _span("bounds.logdet_lower_bound", 7.1, 7.4, 3),
        _span("bounds.solve_bound_program", 7.1, 7.3, 4, solve),
        _span("bounds.ergodic_upper_bound", 8.5, 9.0, 0),
    ]
    m = layer_metrics(spans, work_wall=10.0)
    assert m["bounds.calls"] == 2
    assert m["bounds.s"] == pytest.approx(1.0)
    assert m["bounds.solve_calls"] == 1
    assert m["bounds.clipped_frac"] == pytest.approx(0.25)
    assert m["learning.mc_share"] == pytest.approx(0.6)
    assert m["learning.trial_us.bartlett"] == pytest.approx(6000.0)
    assert m["learning.trial_us.empirical"] == 0.0
    assert m["experiment.write_s"] == pytest.approx(8.0 - 6.0 - 0.5)
    assert m["experiment.fig1_self_s"] == pytest.approx(2.0)
    assert m["bounds.self_s"] == pytest.approx(0.2 + 0.1 + 0.2 + 0.5)
    assert set(m) <= set(PER_LAYER_UNITS)


def test_tracer_records_nested_spans_and_restores_functions():
    original = sg.bounds.solve_bound_program
    h = np.random.default_rng(0).standard_normal((6, 3))
    sxx = sg.toeplitz_covariance(3, 0.5)
    tracer = Tracer()
    tracer.install()
    try:
        sg.ergodic_upper_bound(h, sxx, 0.3, 10)
    finally:
        tracer.uninstall()
    assert sg.bounds.solve_bound_program is original
    names = [span[0] for span in tracer.spans]
    assert names[0] == "bounds.ergodic_upper_bound"
    assert "gaussian.nonzero_spectrum" in names
    solve = tracer.spans[names.index("bounds.solve_bound_program")]
    assert tracer.spans[solve[3]][0] == "bounds.logdet_lower_bound"
    assert solve[4]["p"] == 3 and solve[4]["residual"] < 1e-9
    assert all(span[3] < i for i, span in enumerate(tracer.spans))


# --- correctness checks count corrupted outputs as failed -------------------


def _fig1_outputs(out: Path, corrupt=None) -> dict:
    """Fig. 1 CSVs consistent with reference.json, optionally corrupted."""
    out.mkdir(parents=True)
    ref = wl.load_reference()["fig1"]
    stdout = []
    for rho in wl.FIG1_RHOS:
        r = ref[f"{rho:g}"]
        rows = []
        for row in r["rows"]:
            stderr = row["sd"] / math.sqrt(wl.FIG1_TRIALS)
            bound = row["mean"] + 0.01
            rows.append([row["k"], row["mean"], stderr, bound, r["optimal_cost"],
                         bound - r["optimal_cost"]])
        if corrupt and rho == 0.8:
            corrupt(rows)
        lines = ["k,mc_mean,mc_stderr,bound,optimal_cost,gap"]
        lines += [",".join(repr(v) for v in row) for row in rows]
        tag = f"{rho:.1f}".replace(".", "")
        (out / f"fig1_rho{tag}.csv").write_text("\n".join(lines) + "\n")
        stdout.append(f"rho={rho:g}: bound(K-1=1e8)=1.0, optimal=1.0, relative gap=1.2e-04")
    return {"code": 0, "stdout": "\n".join(stdout) + "\n"}


def _set(index, column, value):
    def corrupt(rows):
        rows[index][column] = value
    return corrupt


@pytest.mark.parametrize(
    "corrupt",
    [
        _set(3, 1, float("nan")),  # nan Monte Carlo mean
        _set(5, 3, 10.0),  # bound far below the Monte Carlo mean
        _set(0, 1, 20.0),  # mean far from the reference
        lambda rows: [row.__setitem__(2, row[2] * math.sqrt(2)) for row in rows],  # half the trials
        lambda rows: rows.pop(),  # a K value missing
        lambda rows: rows[2].pop(),  # a row with a cell missing
    ],
)
def test_fig1_corrupted_output_is_a_failed_operation(tmp_path, corrupt):
    ctx = {"out": tmp_path / "fig1"}
    verdict = wl.Fig1().check(sg, ctx, _fig1_outputs(ctx["out"], corrupt))
    assert verdict.failed >= 1
    assert verdict.attempted >= 1 + 2 * 12 + 2


def test_fig1_consistent_output_passes(tmp_path):
    ctx = {"out": tmp_path / "fig1"}
    verdict = wl.Fig1().check(sg, ctx, _fig1_outputs(ctx["out"]))
    assert (verdict.attempted, verdict.failed) == (1 + 2 * 12 + 2, 0), verdict.notes
    assert set(verdict.artifacts) == {"fig1_rho01.csv.sha256", "fig1_rho08.csv.sha256"}


def test_fig1_nonzero_exit_is_a_failed_operation(tmp_path):
    ctx = {"out": tmp_path / "fig1"}
    outputs = _fig1_outputs(ctx["out"]) | {"code": 1}
    assert wl.Fig1().check(sg, ctx, outputs).failed == 1


def _small_sweep():
    workload = wl.BoundSweep()
    ctx = workload.setup(sg, 3, Path("."))
    ctx["settings"] = ctx["settings"][9:10]  # one setting: 8x4 at rho=0, 0 dB
    return workload, ctx, workload.run(sg, ctx)


def test_bound_sweep_checks_pass_and_catch_corruption():
    workload, ctx, results = _small_sweep()
    clean = workload.check(sg, ctx, results)
    assert (clean.attempted, clean.failed) == (2 * 25, 0), clean.notes
    broken = list(results)
    broken[4] = dataclasses.replace(broken[4], value=float("nan"))
    broken[7] = dataclasses.replace(broken[7], value=broken[5].value + 1.0)  # increases in K
    broken[9] = dataclasses.replace(broken[9], digamma_sum=broken[9].digamma_sum + 1e-6)
    assert workload.check(sg, ctx, broken).failed == 3


def test_mc_agreement_catches_shifted_mean_and_dropped_trials():
    ref = {"mean": 1.0, "stderr": 0.0025, "sd": 0.4}
    se = 0.4 / math.sqrt(1000)
    assert wl.mc_agrees(1.0 + se, se, 1000, ref)[0]
    assert not wl.mc_agrees(1.0 + 6 * se, se, 1000, ref)[0]
    assert not wl.mc_agrees(1.0, se * math.sqrt(2), 1000, ref)[0]
    assert not wl.mc_agrees(float("inf"), se, 1000, ref)[0]


def test_detect_check_catches_wrong_kl():
    workload = wl.Detect()
    ctx = workload.setup(sg, 1, Path("."))
    scalar = ctx["scalar"]
    exponents = sg.error_exponent_estimate(scalar, (10, 50, 200), trials=20_000, seed=1)
    experiment = sg.run_detection_experiment(ctx["system"], n=5, epsilon=0.05, trials=50_000, seed=1)
    outputs = {"exponents": exponents, "experiment": experiment}
    assert workload.check(sg, ctx, outputs).failed == 0
    outputs["exponents"] = dataclasses.replace(exponents, kl_marginals=0.16)
    assert workload.check(sg, ctx, outputs).failed == 1


# --- the benchmark's contract -----------------------------------------------


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(wl.WORKLOADS)


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "detect", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_run_refuses_a_run_length_it_cannot_finish_in_time():
    cmd = [sys.executable, "perfbench/run.py", "--workload", "detect", "--seed", "1",
           "--seconds", str(run.MAX_SECONDS + 1), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert run.RUN_LIMIT_S - run.MAX_SECONDS >= 30
