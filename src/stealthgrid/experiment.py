"""Reproducible end-to-end experiment runner.

Wires case parsing, covariance construction, ergodic Monte Carlo, and the
closed-form bound into a K-sweep that emits plot-ready CSV plus a JSON
manifest from which every number can be replayed.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import numbers
from collections.abc import Mapping
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import spectral_upper_bound
from .gaussian import Scenario, _check_count, optimal_cost
from .grid import MeasurementSelection, load_measurement_matrix
from .learning import ErgodicEstimate, TrainingConfig, spectral_ergodic_costs

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
#: The formula of the CSV's ``bound`` and ``bound_large_k``; ``bound_paper`` is the paper's.
_BOUND_FORMULA = "real_exact"
#: A bound more than this many Monte Carlo stderr below the mean is a violation.
_VIOLATION_Z = 3.0


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one K-sweep, and the only check of it.

    Exactly one of ``case_path`` (MATPOWER case; ``"bundled:ieee30"`` for
    the packaged test system) or ``h_path`` (precomputed measurement
    matrix as headerless CSV) must be set, as a string; ``output_dir`` is
    a string too.  ``seed``, ``trials`` and every ``k_grid`` entry must be
    integers (Python or numpy) below 2^64, ``seed`` at least 0, ``trials``
    and every K at least 2, and ``rho`` and ``snr_db`` real numbers.
    ``k_grid`` may be any iterable of integers but a string or a mapping;
    it is stored as a tuple of ints.
    ``measurements`` is a :class:`MeasurementSelection` or a mapping of
    its flags, which is turned into one.  A value of the wrong type or
    out of range raises ``ValueError`` naming the field.  The sweep draws
    with the Bartlett sampler and writes the ``real_exact`` bound; the
    paper's Fig. 1 sum goes to the manifest's ``bound_paper``.
    """

    rho: float
    seed: int
    case_path: str | None = None
    h_path: str | None = None
    snr_db: float = 20.0
    k_grid: tuple[int, ...] = DEFAULT_K_GRID
    trials: int = 1000
    measurements: MeasurementSelection = field(default_factory=MeasurementSelection)
    output_dir: str = "."

    def __post_init__(self) -> None:
        for name in ("case_path", "h_path"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise ValueError(f"{name!r} must be a string or None, got {value!r}")
        if (self.case_path is None) == (self.h_path is None):
            raise ValueError("exactly one of case_path or h_path must be set")
        if not isinstance(self.output_dir, str):
            raise ValueError(f"'output_dir' must be a string, got {self.output_dir!r}")
        # numpy scalars become Python numbers, which the manifest's JSON can hold
        for name in ("rho", "snr_db"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name!r} must be a real number, got {value!r}")
            if not isinstance(value, (int, float)):
                setattr(self, name, float(value))
        for name in ("seed", "trials"):
            _check_count(repr(name), getattr(self, name))
            setattr(self, name, int(getattr(self, name)))
        if self.seed < 0:
            raise ValueError(f"'seed' must lie in [0, 2**64), got {self.seed}")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError(f"rho must lie in [0, 1), got {self.rho}")
        if self.trials < 2:
            raise ValueError(f"trials must be >= 2 for a standard error, got {self.trials}")
        try:
            k_grid = tuple(self.k_grid)
        except TypeError:  # not iterable, or a 0-d numpy array
            k_grid = None
        if k_grid is None or isinstance(self.k_grid, (str, bytes, Mapping)):
            raise ValueError(f"'k_grid' must be an iterable of integers, got {self.k_grid!r}")
        try:
            for k in k_grid:
                _check_count("K in k_grid", k)
        except ValueError as exc:
            raise ValueError(f"{exc} (field 'k_grid')") from None
        self.k_grid = tuple(map(int, k_grid))  # numpy integers as Python ints
        if len(self.k_grid) == 0:
            raise ValueError("k_grid must not be empty")
        if min(self.k_grid) < 2:
            raise ValueError(f"every K in 'k_grid' must be >= 2, got {self.k_grid}")
        if any(b <= a for a, b in zip(self.k_grid, self.k_grid[1:])):
            raise ValueError(f"k_grid must be strictly increasing, got {self.k_grid}")
        if isinstance(self.measurements, Mapping):
            unknown = sorted(map(str, set(self.measurements) - _FLAGS))
            if unknown:
                raise ValueError(
                    f"'measurements' has unknown flags {unknown}; choose from {sorted(_FLAGS)}"
                )
            try:
                self.measurements = MeasurementSelection(**self.measurements)
            except ValueError as exc:
                raise ValueError(f"{exc} (field 'measurements')") from None
        elif not isinstance(self.measurements, MeasurementSelection):
            raise ValueError(
                "'measurements' must be a MeasurementSelection or a mapping of its flags, "
                f"got {self.measurements!r}"
            )


_FLAGS = frozenset(f.name for f in fields(MeasurementSelection))


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    """Load an :class:`ExperimentConfig` from a JSON file.

    The file holds one JSON object whose keys are the dataclass field
    names; ``measurements`` is an object of ``true``/``false`` flags and
    ``k_grid`` a list of ints.  A key that is not a field, or a missing
    ``rho`` or ``seed``, raises ``ValueError``; the values are checked by
    :class:`ExperimentConfig` alone, so a file and a Python caller get the
    same errors.
    """
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(raw, dict):
        raise ValueError(f"config {path} must be a JSON object, got {type(raw).__name__}")
    unknown = sorted(set(raw) - {f.name for f in fields(ExperimentConfig)})
    if unknown:
        raise ValueError(f"unknown config keys {unknown} in {path}")
    missing = [f.name for f in fields(ExperimentConfig) if f.name not in raw
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValueError(f"missing config keys {missing} in {path}")
    return ExperimentConfig(**raw)


def blas_kernel() -> bytes | None:
    """Name of the core kernel numpy's OpenBLAS runs, e.g. ``b'SkylakeX'``, or None.

    The last bits of BLAS and LAPACK results depend on it, so byte-identical
    output holds per (config, kernel); ``OPENBLAS_CORETYPE`` overrides the
    one OpenBLAS picks for the CPU.  The library is found among the mapped
    files of this process, by the pathname that ends each line and may hold
    spaces, so the name is None off Linux, with another BLAS or if the
    library does not load.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.rstrip("\n").split(maxsplit=5)[5]
                     for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        corename = getattr(library, "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            return corename()
    return None


def _format_row(values) -> str:
    return ",".join(repr(float(v)) if i else str(int(v)) for i, v in enumerate(values))


def run_experiment(config: ExperimentConfig) -> Path:
    """Run the K-sweep and write ``<stem>.csv`` plus ``<stem>_manifest.json``.

    The stem is ``sweep_rho<rho>_snr<snr_db>``.  Each CSV row holds the
    Monte Carlo ergodic estimate (Bartlett sampler), the ``real_exact``
    bound, the optimal cost, and ``gap = bound - optimal_cost`` for one K.
    The manifest adds the paper's Fig. 1 sum per K as ``bound_paper``, as
    ``bound_large_k`` the ``real_exact`` bound at K-1 = 10^8, and per K the
    Monte Carlo health in ``diagnostics``: the relative stderr and
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
    stem = f"sweep_rho{config.rho:g}_snr{config.snr_db:g}"
    return _run_sweep([config], [stem])[0][0]


def _run_sweep(configs: list[ExperimentConfig], stems: list[str]) -> list[tuple[Path, dict]]:
    """:func:`run_experiment` for configs of one system, seed, K grid and trial count.

    The configs may differ only in rho, SNR and output, so one Monte Carlo
    call draws the whole K grid and scores all their scenarios on the same
    draws; each config gets the files that :func:`run_experiment` alone
    writes, named by its stem, and the BLAS kernel is looked up once for
    all of them.  Returns each config's CSV path and manifest.
    """
    first = configs[0]
    h = load_measurement_matrix(first.case_path, first.h_path, first.measurements)
    scenarios = [Scenario.build(h, config.rho, config.snr_db) for config in configs]
    p = scenarios[0].spectrum.p  # the Monte Carlo rejects scenarios of another rank
    if first.k_grid[0] - 1 < p:  # k_grid is increasing
        raise ValueError(
            f"k_grid entry {first.k_grid[0]} violates k-1 >= p (p={p} for this system)"
        )

    cfgs = [TrainingConfig(k=k, seed=first.seed, trials=first.trials) for k in first.k_grid]
    estimates = spectral_ergodic_costs(
        [(scenario.spectrum, scenario.sigma) for scenario in scenarios], cfgs
    )
    kernel = blas_kernel()
    return [
        _write_outputs(config, stem, scenario, [per_k[i] for per_k in estimates], kernel)
        for i, (config, stem, scenario) in enumerate(zip(configs, stems, scenarios))
    ]


def _write_outputs(
    config: ExperimentConfig,
    stem: str,
    scenario: Scenario,
    estimates: list[ErgodicEstimate],
    kernel: bytes | None,
) -> tuple[Path, dict]:
    """Bounds for one config's K grid, then its CSV and manifest; returns both."""
    sigma, spectrum, m = scenario.sigma, scenario.spectrum, scenario.m
    f_star = optimal_cost(spectrum, sigma)
    rows = []
    bounds_paper = []
    diagnostics = []
    for k, estimate in zip(config.k_grid, estimates):
        result = spectral_upper_bound(spectrum, sigma, m, k, _BOUND_FORMULA)
        bound, program = result.value, result.program
        rows.append((k, estimate.mean, estimate.stderr, bound, f_star, bound - f_star))
        bounds_paper.append(spectral_upper_bound(spectrum, sigma, m, k, "paper").value)
        diagnostics.append({
            "k": k,
            "mc_rel_stderr": estimate.stderr / abs(estimate.mean) if estimate.mean else None,
            "margin_z": (bound - estimate.mean) / estimate.stderr if estimate.stderr else None,
            "bound_newton_steps": program.newton_steps,
            "bound_clipped": program.clipped,
            "bound_sum_residual": program.sum_residual,
        })
    bound_large_k = spectral_upper_bound(spectrum, sigma, m, _ASYMPTOTIC_K, _BOUND_FORMULA).value

    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{stem}.csv"
    lines = [",".join(CSV_COLUMNS)] + [_format_row(row) for row in rows]
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    manifest = {
        "blas_kernel": kernel.decode() if kernel else None,
        "config": asdict(config),
        "csv": csv_path.name,
        "columns": list(CSV_COLUMNS),
        "sigma": sigma,
        "sigma_sq": sigma**2,
        "m": m,
        "n": int(scenario.h.shape[1]),
        "p": spectrum.p,
        "spectrum_sha256": hashlib.sha256(spectrum.eigenvalues.tobytes()).hexdigest(),
        "optimal_cost": f_star,
        "bound_paper": bounds_paper,
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


def emit_fig1_dataset(output_dir: str | Path, trials: int = 1000, seed: int = 0) -> list[Path]:
    """The paper's Figure 1: the bundled 30-bus K-sweep at SNR 20 dB, rho in {0.1, 0.8}.

    Runs :data:`DEFAULT_K_GRID` and writes ``fig1_rho01.csv`` and
    ``fig1_rho08.csv`` (plus manifests, whose ``bound_paper`` is the
    paper's curve) into ``output_dir``, then prints, per rho, the analytic
    large-K check of its manifest: the bound at K-1 = 10^8 against the
    optimal cost.  The two rhos are one sweep, scored on the same Monte
    Carlo draws at each K; each CSV equals the one :func:`run_experiment`
    writes for that rho, and each manifest differs from its one only in the
    file and directory names.
    """
    configs = [
        ExperimentConfig(
            rho=rho, seed=seed, case_path="bundled:ieee30", trials=trials,
            output_dir=str(output_dir),
        )
        for rho in _FIG1_RHOS
    ]
    stems = [f"fig1_rho{rho:.1f}".replace("0.", "0") for rho in _FIG1_RHOS]
    outputs = _run_sweep(configs, stems)
    for rho, (_, manifest) in zip(_FIG1_RHOS, outputs):
        asymptotic, f_star = manifest["bound_large_k"], manifest["optimal_cost"]
        rel = abs(asymptotic - f_star) / f_star
        print(
            f"rho={rho:g}: bound(K-1=1e8)={asymptotic:.6f}, "
            f"optimal={f_star:.6f}, relative gap={rel:.3e}"
        )
    return [path for path, _ in outputs]
