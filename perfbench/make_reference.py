"""Regenerate ``reference.json``: high-trial Monte Carlo means for the checks.

The reference uses seeds independent of any run seed and many more trials
than the workloads (16x for fig1, 16x for mc_small), so a run's mean can be
compared with it by a z-score and its stderr by a ratio.  Run from the
repository root:

    python3 perfbench/make_reference.py

It takes a few minutes on one core.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import stealthgrid as sg  # noqa: E402
import workloads as wl  # noqa: E402

#: Disjoint from the small run seeds the benchmark is driven with.
REFERENCE_SEED = 7_777_777_777
TRIALS_FACTOR = 16


def _entry(estimate) -> dict:
    return {
        "mean": estimate.mean,
        "stderr": estimate.stderr,
        "sd": estimate.stderr * math.sqrt(estimate.trials),
        "trials": estimate.trials,
    }


def _seed(*key: int) -> int:
    return int(np.random.SeedSequence([REFERENCE_SEED, *key]).generate_state(1, np.uint64)[0])


def fig1_reference() -> dict:
    h = sg.build_dc_jacobian(sg.load_ieee30()).h
    out = {}
    for r, rho in enumerate(wl.FIG1_RHOS):
        sxx = sg.toeplitz_covariance(h.shape[1], rho)
        sigma = sg.sigma_from_snr(h, sxx, wl.SNR_DB)
        rows = []
        for k in sg.DEFAULT_K_GRID:
            cfg = sg.TrainingConfig(k=k, seed=_seed(1, r, k), trials=TRIALS_FACTOR * wl.FIG1_TRIALS)
            rows.append({"k": k, **_entry(sg.estimate_ergodic_cost(h, sxx, sigma, cfg))})
            print(f"fig1 rho={rho:g} K={k}", file=sys.stderr)
        f_star = sg.optimal_cost(sg.nonzero_spectrum(h, sxx), sigma)
        out[f"{rho:g}"] = {"optimal_cost": f_star, "rows": rows}
    return out


def mc_small_reference() -> dict:
    out = {}
    for s, (label, h) in enumerate(wl.mc_systems()):
        sxx = sg.toeplitz_covariance(h.shape[1], wl.MC_RHO)
        sigma = sg.sigma_from_snr(h, sxx, wl.SNR_DB)
        out[label] = {}
        for k in wl.mc_k_values(h.shape[1]):
            cfg = sg.TrainingConfig(k=k, seed=_seed(2, s, k), trials=TRIALS_FACTOR * wl.MC_TRIALS)
            out[label][str(k)] = _entry(sg.estimate_ergodic_cost(h, sxx, sigma, cfg))
            print(f"mc_small {label} K={k}", file=sys.stderr)
    return out


def main() -> None:
    reference = {
        "seed": REFERENCE_SEED,
        "sampler": "bartlett",
        "fig1": fig1_reference(),
        "mc_small": mc_small_reference(),
    }
    text = json.dumps(reference, indent=1, sort_keys=True) + "\n"
    wl.REFERENCE_PATH.write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main()
