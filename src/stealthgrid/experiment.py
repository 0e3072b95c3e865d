"""Reproducible end-to-end experiment runner.

Wires case parsing, covariance construction, ergodic Monte Carlo, and the
closed-form bound into a K-sweep that emits plot-ready CSV plus a JSON
manifest from which every number can be replayed.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import FORMULAS, spectral_upper_bound
from .gaussian import Scenario, _check_count, optimal_cost
from .grid import MeasurementSelection, load_measurement_matrix
from .learning import SAMPLERS, ErgodicEstimate, TrainingConfig, spectral_ergodic_costs

__all__ = [
    "ExperimentConfig",
    "load_experiment_config",
    "run_experiment",
    "emit_fig1_dataset",
    "DEFAULT_K_GRID",
    "CSV_COLUMNS",
]

CSV_COLUMNS = ("k", "mc_mean", "mc_stderr", "bound", "optimal_cost", "gap")

#: 12 logarithmically spaced training sizes from 50 to 100000.
DEFAULT_K_GRID = tuple(
    int(round(k)) for k in np.geomspace(50, 100_000, 12)
)

_FIG1_RHOS = (0.1, 0.8)
_ASYMPTOTIC_K = 10**8 + 1
#: A bound more than this many Monte Carlo stderr below the mean is a violation.
_VIOLATION_Z = 3.0


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one K-sweep.

    Exactly one of ``case_path`` (MATPOWER case; ``"bundled:ieee30"`` for
    the packaged test system) or ``h_path`` (precomputed measurement
    matrix as headerless CSV) must be set.  Every ``k_grid`` entry must be
    an integer (a Python or numpy integer; a float, bool or string raises
    ``ValueError``).
    """

    rho: float
    seed: int
    case_path: str | None = None
    h_path: str | None = None
    snr_db: float = 20.0
    k_grid: tuple[int, ...] = DEFAULT_K_GRID
    trials: int = 1000
    formula: str = "real_exact"
    sampler: str = "bartlett"
    measurements: MeasurementSelection = field(default_factory=MeasurementSelection)
    output_dir: str = "."

    def __post_init__(self) -> None:
        if (self.case_path is None) == (self.h_path is None):
            raise ValueError("exactly one of case_path or h_path must be set")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError(f"rho must lie in [0, 1), got {self.rho}")
        k_grid = tuple(self.k_grid)
        for k in k_grid:
            _check_count("K in k_grid", k)
        self.k_grid = tuple(map(int, k_grid))  # numpy integers as Python ints
        if len(self.k_grid) == 0:
            raise ValueError("k_grid must not be empty")
        if any(b <= a for a, b in zip(self.k_grid, self.k_grid[1:])):
            raise ValueError(f"k_grid must be strictly increasing, got {self.k_grid}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.formula not in FORMULAS:
            raise ValueError(f"formula must be one of {FORMULAS}, got {self.formula!r}")
        if self.sampler not in SAMPLERS:
            raise ValueError(f"sampler must be one of {SAMPLERS}, got {self.sampler!r}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_str(value) -> bool:
    return isinstance(value, str)


def _is_str_or_null(value) -> bool:
    return value is None or isinstance(value, str)


_FLAGS = frozenset(f.name for f in fields(MeasurementSelection))

#: Per config key, the JSON type it needs and a test of a parsed value.
_CONFIG_TYPES = {
    "rho": ("a number", _is_number),
    "snr_db": ("a number", _is_number),
    "seed": ("an integer", _is_int),
    "trials": ("an integer", _is_int),
    "k_grid": ("a list of integers", lambda v: isinstance(v, list) and all(map(_is_int, v))),
    "measurements": (
        f"an object of true/false flags among {sorted(_FLAGS)}",
        lambda v: isinstance(v, dict) and set(v) <= _FLAGS
        and all(isinstance(flag, bool) for flag in v.values()),
    ),
    "case_path": ("a string or null", _is_str_or_null),
    "h_path": ("a string or null", _is_str_or_null),
    "formula": ("a string", _is_str),
    "sampler": ("a string", _is_str),
    "output_dir": ("a string", _is_str),
}


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    """Load an :class:`ExperimentConfig` from a JSON file.

    The file holds one JSON object.  Keys are the dataclass field names;
    ``measurements`` is a mapping with the :class:`MeasurementSelection`
    flags; ``k_grid`` is a list of ints.  Any other key, or a value of the
    wrong JSON type, raises ``ValueError`` naming the key.
    """
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(raw, dict):
        raise ValueError(f"config {path} must be a JSON object, got {type(raw).__name__}")
    unknown = sorted(set(raw) - {f.name for f in fields(ExperimentConfig)})
    if unknown:
        raise ValueError(f"unknown config keys {unknown} in {path}")
    for key, value in raw.items():
        expected, valid = _CONFIG_TYPES[key]
        if not valid(value):
            raise ValueError(f"config key {key!r} must be {expected}, got {value!r} in {path}")
    if "measurements" in raw:
        raw["measurements"] = MeasurementSelection(**raw["measurements"])
    if "k_grid" in raw:
        raw["k_grid"] = tuple(raw["k_grid"])
    return ExperimentConfig(**raw)


def blas_kernel() -> bytes | None:
    """Name of the core kernel numpy's OpenBLAS runs, e.g. ``b'SkylakeX'``, or None.

    The last bits of BLAS and LAPACK results depend on it, so byte-identical
    output holds per (config, kernel); ``OPENBLAS_CORETYPE`` overrides the
    one OpenBLAS picks for the CPU.  The library is found among the mapped
    files of this process, so the name is None off Linux or with another BLAS.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        corename = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            return corename()
    return None


def _format_row(values) -> str:
    return ",".join(repr(float(v)) if i else str(int(v)) for i, v in enumerate(values))


def run_experiment(config: ExperimentConfig, csv_name: str | None = None) -> Path:
    """Run the K-sweep and write ``<stem>.csv`` plus ``<stem>_manifest.json``.

    Each CSV row holds the Monte Carlo ergodic estimate, the closed-form
    bound, the optimal cost, and ``gap = bound - optimal_cost`` for one K.
    The manifest adds the bound under the other formula, as
    ``bound_large_k`` the bound at K-1 = 10^8, and per K the Monte Carlo
    health in ``diagnostics``: the relative stderr and
    ``margin_z = (bound - mc_mean) / mc_stderr``, with the allocation
    program's ``bound_newton_steps``, ``bound_clipped`` (coordinates of x*
    on a box edge) and ``bound_sum_residual`` (|sum x* - p|).
    ``bound_violations`` lists the K whose bound lies more than 3 stderr
    below the Monte Carlo mean, and ``blas_kernel`` names the OpenBLAS core
    kernel (null if none is found).  Identical configs produce
    byte-identical files on one kernel; another kernel may round the last
    bits differently.

    Returns the CSV path.
    """
    return _run_sweep([config], [csv_name])[0][0]


def _run_sweep(
    configs: list[ExperimentConfig], csv_names: list[str | None]
) -> list[tuple[Path, dict]]:
    """:func:`run_experiment` for configs of one system, seed, K grid, trial count and sampler.

    The configs may differ only in rho, SNR, formula and output, so one
    Monte Carlo call draws the whole K grid and scores all their scenarios
    on the same draws; every config gets the files that
    :func:`run_experiment` alone writes, and the BLAS kernel is looked up
    once for all of them.  Returns each config's CSV path and manifest.
    """
    first = configs[0]
    h = load_measurement_matrix(first.case_path, first.h_path, first.measurements)
    scenarios = [Scenario.build(h, config.rho, config.snr_db) for config in configs]
    p = scenarios[0].spectrum.p  # the Monte Carlo rejects scenarios of another rank
    if first.k_grid[0] - 1 < p:  # k_grid is increasing
        raise ValueError(
            f"k_grid entry {first.k_grid[0]} violates k-1 >= p (p={p} for this system)"
        )

    cfgs = [
        TrainingConfig(k=k, seed=first.seed, trials=first.trials, sampler=first.sampler)
        for k in first.k_grid
    ]
    estimates = spectral_ergodic_costs(
        [(scenario.spectrum, scenario.sigma) for scenario in scenarios], cfgs
    )
    kernel = blas_kernel()
    return [
        _write_outputs(config, name, scenario, [per_k[i] for per_k in estimates], kernel)
        for i, (config, name, scenario) in enumerate(zip(configs, csv_names, scenarios))
    ]


def _write_outputs(
    config: ExperimentConfig,
    csv_name: str | None,
    scenario: Scenario,
    estimates: list[ErgodicEstimate],
    kernel: bytes | None,
) -> tuple[Path, dict]:
    """Bounds for one config's K grid, then its CSV and manifest; returns both."""
    sigma, spectrum, m = scenario.sigma, scenario.spectrum, scenario.m
    f_star = optimal_cost(spectrum, sigma)
    rows = []
    bounds_other = []
    diagnostics = []
    other = "real_exact" if config.formula == "paper" else "paper"
    for k, estimate in zip(config.k_grid, estimates):
        result = spectral_upper_bound(spectrum, sigma, m, k, config.formula)
        bound, program = result.value, result.program
        rows.append((k, estimate.mean, estimate.stderr, bound, f_star, bound - f_star))
        bounds_other.append(spectral_upper_bound(spectrum, sigma, m, k, other).value)
        diagnostics.append({
            "k": k,
            "mc_rel_stderr": estimate.stderr / abs(estimate.mean) if estimate.mean else None,
            "margin_z": (bound - estimate.mean) / estimate.stderr if estimate.stderr else None,
            "bound_newton_steps": program.newton_steps,
            "bound_clipped": program.clipped,
            "bound_sum_residual": program.sum_residual,
        })
    bound_large_k = spectral_upper_bound(spectrum, sigma, m, _ASYMPTOTIC_K, config.formula).value

    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = Path(csv_name).stem if csv_name else f"sweep_rho{config.rho:g}_snr{config.snr_db:g}"
    csv_path = out_dir / f"{stem}.csv"
    lines = [",".join(CSV_COLUMNS)] + [_format_row(row) for row in rows]
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    manifest = {
        "blas_kernel": kernel.decode() if kernel else None,
        "config": _config_dict(config),
        "csv": csv_path.name,
        "columns": list(CSV_COLUMNS),
        "sigma": sigma,
        "sigma_sq": sigma**2,
        "m": m,
        "n": int(scenario.h.shape[1]),
        "p": spectrum.p,
        "spectrum_sha256": hashlib.sha256(spectrum.eigenvalues.tobytes()).hexdigest(),
        "optimal_cost": f_star,
        f"bound_{other}": bounds_other,
        "bound_large_k": bound_large_k,
        "diagnostics": diagnostics,
        "bound_violations": [
            d["k"] for d in diagnostics
            if d["margin_z"] is not None and d["margin_z"] < -_VIOLATION_Z
        ],
        "version": __version__,
    }
    manifest_path = out_dir / f"{stem}_manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", "utf-8")
    return csv_path, manifest


def _config_dict(config: ExperimentConfig) -> dict:
    data = asdict(config)
    data["k_grid"] = list(config.k_grid)
    return data


def emit_fig1_dataset(
    output_dir: str | Path,
    trials: int = 1000,
    seed: int = 0,
    k_grid: tuple[int, ...] = DEFAULT_K_GRID,
    formula: str = "real_exact",
    sampler: str = "bartlett",
) -> list[Path]:
    """K-sweep of the bundled 30-bus system at SNR 20 dB, rho in {0.1, 0.8}.

    Writes ``fig1_rho01.csv`` and ``fig1_rho08.csv`` (plus manifests) into
    ``output_dir`` and prints, per rho, the analytic large-K check of its
    manifest: the bound at K-1 = 10^8 against the optimal cost.  The two
    rhos are one sweep, scored on the same Monte Carlo draws at each K; the
    files equal those of one :func:`run_experiment` call per rho.
    """
    configs = [
        ExperimentConfig(
            rho=rho,
            seed=seed,
            case_path="bundled:ieee30",
            k_grid=tuple(k_grid),
            trials=trials,
            formula=formula,
            sampler=sampler,
            output_dir=str(output_dir),
        )
        for rho in _FIG1_RHOS
    ]
    names = [f"fig1_rho{rho:.1f}".replace("0.", "0") + ".csv" for rho in _FIG1_RHOS]
    outputs = _run_sweep(configs, names)
    for rho, (_, manifest) in zip(_FIG1_RHOS, outputs):
        asymptotic, f_star = manifest["bound_large_k"], manifest["optimal_cost"]
        rel = abs(asymptotic - f_star) / f_star
        print(
            f"rho={rho:g}: bound(K-1=1e8)={asymptotic:.6f}, "
            f"optimal={f_star:.6f}, relative gap={rel:.3e}"
        )
    return [path for path, _ in outputs]
