"""Summary statistics and the per-layer metrics derived from spans."""

from __future__ import annotations

import statistics
from collections import defaultdict

import numpy as np

from spans import END, INFO, LAYERS, NAME, PARENT, START, self_times

#: Percentiles tried for a tail timing, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)
#: A percentile is reported only with at least this many samples beyond it.
TAIL_MIN_BEYOND = 10

#: Bytes the detection kernel materializes per m-dimensional observation:
#: the standard normal draw and its Cholesky transform (m float64 each),
#: plus one float64 quadratic form.
DETECTION_BYTES_PER_OBS = (16, 8)  # (per coordinate, per observation)

#: Per-layer metrics of a traced run, with their units, in report order.
PER_LAYER_UNITS = {
    "grid.parse_calls": "count",
    "grid.parse_s": "s",
    "grid.jacobian_calls": "count",
    "grid.jacobian_s": "s",
    "gaussian.spectrum_calls": "count",
    "gaussian.spectrum_s": "s",
    "learning.mc_calls": "count",
    "learning.mc_s": "s",
    "learning.trials": "count",
    "learning.trial_us.bartlett": "us",
    "learning.trial_us.empirical": "us",
    "learning.mc_share": "fraction",
    "learning.rel_stderr_median": "fraction",
    "bounds.calls": "count",
    "bounds.s": "s",
    "bounds.call_us_p50": "us",
    "bounds.call_us_tail": "us",
    "bounds.call_tail_pct": "percentile",
    "bounds.solve_calls": "count",
    "bounds.solve_s": "s",
    "bounds.logdet_calls": "count",
    "bounds.logdet_s": "s",
    "bounds.sum_residual_max": "abs",
    "bounds.clipped_frac": "fraction",
    "bounds.margin_min_z": "stderr",
    "detection.calls": "count",
    "detection.s": "s",
    "detection.observations": "count",
    "detection.obs_per_s": "1/s",
    "detection.bytes_computed": "B",
    "detection.exponent_over_kl_max": "ratio",
    "experiment.write_s": "s",
    "experiment.bytes_written": "B",
    "experiment.fig1_self_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.spans": "count",
    "trace.overhead_frac": "fraction",
    "ops_failed_frac": "fraction",
}


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def tail_percentile(samples) -> tuple[float, float] | None:
    """(q, value) of the highest ladder percentile with ten samples beyond it."""
    n = len(samples)
    for q in TAIL_LADDER:
        if n * (100.0 - q) / 100.0 >= TAIL_MIN_BEYOND - 1e-9:
            return q, float(np.percentile(samples, q))
    return None


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as ``statistics.quantiles(n=4)``."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def layer_metrics(spans: list[list], work_wall: float) -> dict[str, float]:
    """Per-layer counts, busy times and health values of one traced repetition.

    A layer's busy time sums its outermost spans (those whose parent is in
    another layer), so nested calls within a layer are not counted twice.
    """
    own = self_times(spans)
    by_name = defaultdict(list)
    for index, span in enumerate(spans):
        by_name[span[NAME]].append(index)

    def duration(i: int) -> float:
        return spans[i][END] - spans[i][START]

    def calls_and_time(name: str) -> tuple[int, float]:
        found = by_name.get(name, [])
        return len(found), sum(duration(i) for i in found)

    def layer_of(i: int) -> str:
        return spans[i][NAME].split(".", 1)[0]

    def outermost(layer: str) -> list[int]:
        return [
            i for i, span in enumerate(spans)
            if layer_of(i) == layer and (span[PARENT] < 0 or layer_of(span[PARENT]) != layer)
        ]

    def infos(name: str) -> list[dict]:
        return [spans[i][INFO] for i in by_name.get(name, []) if spans[i][INFO]]

    m: dict[str, float] = {}
    for key, name in (
        ("grid.parse", "grid.parse_matpower_case"),
        ("grid.jacobian", "grid.build_dc_jacobian"),
        ("gaussian.spectrum", "gaussian.nonzero_spectrum"),
        ("learning.mc", "learning.estimate_ergodic_cost"),
        ("bounds.solve", "bounds.solve_bound_program"),
        ("bounds.logdet", "bounds.expected_logdet_std_wishart"),
    ):
        m[f"{key}_calls"], m[f"{key}_s"] = calls_and_time(name)

    mc = [(duration(i), spans[i][INFO]) for i in by_name.get("learning.estimate_ergodic_cost", [])]
    mc = [(d, info) for d, info in mc if info]
    m["learning.trials"] = sum(info["trials"] for _, info in mc)
    for sampler in ("bartlett", "empirical"):
        chosen = [(d, info["trials"]) for d, info in mc if info["sampler"] == sampler]
        trials = sum(t for _, t in chosen)
        m[f"learning.trial_us.{sampler}"] = 1e6 * sum(d for d, _ in chosen) / trials if trials else 0.0
    m["learning.mc_share"] = m["learning.mc_s"] / work_wall if work_wall > 0 else 0.0
    m["learning.rel_stderr_median"] = median(info["rel_stderr"] for _, info in mc)

    bound_calls = [duration(i) * 1e6 for i in outermost("bounds")]
    m["bounds.calls"] = len(bound_calls)
    m["bounds.s"] = sum(bound_calls) / 1e6
    m["bounds.call_us_p50"] = median(bound_calls)
    tail = tail_percentile(bound_calls)
    m["bounds.call_tail_pct"], m["bounds.call_us_tail"] = tail if tail else (0.0, 0.0)
    solves = infos("bounds.solve_bound_program")
    m["bounds.sum_residual_max"] = max((s["residual"] for s in solves), default=0.0)
    coords = sum(s["p"] for s in solves)
    m["bounds.clipped_frac"] = sum(s["clipped"] for s in solves) / coords if coords else 0.0

    detection = outermost("detection")
    m["detection.calls"] = len(detection)
    m["detection.s"] = sum(duration(i) for i in detection)
    observed = [
        info for name in ("detection.calibrate_threshold", "detection.run_detection_experiment",
                          "detection.error_exponent_estimate")
        for info in infos(name)
    ]
    per_coord, per_obs = DETECTION_BYTES_PER_OBS
    m["detection.observations"] = sum(info["observations"] for info in observed)
    m["detection.bytes_computed"] = sum(
        info["observations"] * (per_coord * info["m"] + per_obs) for info in observed
    )
    m["detection.obs_per_s"] = (
        m["detection.observations"] / m["detection.s"] if m["detection.s"] > 0 else 0.0
    )

    m["experiment.write_s"] = sum(own[i] for i in by_name.get("experiment.run_experiment", []))
    fig1_self = 0.0
    for i in by_name.get("experiment.emit_fig1_dataset", []):
        children = by_name.get("experiment.run_experiment", [])
        fig1_self += duration(i) - sum(duration(c) for c in children if spans[c][PARENT] == i)
    m["experiment.fig1_self_s"] = fig1_self

    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(own[i] for i in range(len(spans)) if layer_of(i) == layer)
    m["trace.spans"] = len(spans)
    return m
