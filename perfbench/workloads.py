"""The four benchmark workloads: inputs, the timed calls, and their checks.

Each workload has three steps, run in one fresh process by ``worker.py``:

- ``setup(sg, seed, tmp)`` builds the inputs (untimed work of the program
  counts towards ``setup_s``);
- ``run(sg, ctx)`` makes the timed calls into the package and returns
  their outputs;
- ``check(sg, ctx, outputs)`` verifies every output after the clock stops and
  returns a :class:`Verdict`.

``sg`` is the imported ``stealthgrid`` package.  Package functions are
looked up on it at call time, so the tracer's wrappers are seen.  Inputs
come only from ``seed``; the Monte Carlo workloads use fixed systems so
that their means can be compared with ``reference.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

REFERENCE_PATH = Path(__file__).with_name("reference.json")

SNR_DB = 20.0
FIG1_RHOS = (0.1, 0.8)
FIG1_TRIALS = 1000

#: Fixed seed of the random systems whose Monte Carlo means are stored in
#: ``reference.json``; the run seed only drives the trial streams.
MC_SYSTEM_SEED = 20190221
MC_SHAPES = ((1, 1), (8, 4), (20, 10))
MC_RHO = 0.5
MC_TRIALS = 2000
MC_SAMPLERS = ("bartlett", "empirical")

SWEEP_SHAPES = ((8, 4), (20, 10), (6, 6), (40, 5))
SWEEP_RHOS = (0.0, 0.5, 0.95)
SWEEP_SNRS_DB = (0.0, 20.0, 40.0)
SWEEP_POINTS = 24
SWEEP_K_MAX = 100_000
ASYMPTOTIC_K = 10**8 + 1
FORMULAS = ("paper", "real_exact")

DETECT_N_GRID = (10, 50, 200)
DETECT_TRIALS = 100_000
DETECT_EPSILON = 0.05
DETECT_SYSTEM = (8, 4)
DETECT_SYSTEM_N = 20
DETECT_SYSTEM_TRIALS = 50_000

#: Largest |z| of a Monte Carlo mean against the reference; P(|z| > 5) is
#: about 6e-7 per comparison.
MAX_ABS_Z = 5.0
#: Allowed ratio of a reported stderr to the reference spread over
#: sqrt(trials).  Half the trials dropped gives 1.41 and fails.
STDERR_BAND = (0.75, 1.33)
#: Width of the false-alarm band, in standard deviations of alpha_hat
#: (binomial, doubled for the calibration quantile's own noise).
ALPHA_BAND_SIGMAS = 5.0


@dataclass
class Verdict:
    """Operations attempted and failed, with health values and failure notes."""

    attempted: int = 0
    failed: int = 0
    health: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    artifacts: dict = field(default_factory=dict)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def mc_systems() -> list[tuple[str, np.ndarray]]:
    """The fixed systems of ``mc_small``: scalar, then random 8x4 and 20x10."""
    rng = np.random.default_rng(MC_SYSTEM_SEED)
    systems = []
    for m, n in MC_SHAPES:
        h = np.ones((1, 1)) if (m, n) == (1, 1) else rng.standard_normal((m, n))
        systems.append((f"{m}x{n}", h))
    return systems


def mc_k_values(n: int) -> tuple[int, ...]:
    return (n + 1, 5 * n + 1, 200)


def mc_agrees(mean: float, stderr: float, trials: int, ref: dict) -> tuple[bool, str]:
    """Mean within MAX_ABS_Z of the reference and stderr within STDERR_BAND."""
    if not (math.isfinite(mean) and math.isfinite(stderr) and stderr > 0.0):
        return False, f"non-finite estimate mean={mean} stderr={stderr}"
    z = (mean - ref["mean"]) / math.hypot(stderr, ref["stderr"])
    ratio = stderr / (ref["sd"] / math.sqrt(trials))
    if abs(z) > MAX_ABS_Z:
        return False, f"mean {mean!r} is {z:.2f} stderr from reference {ref['mean']!r}"
    if not STDERR_BAND[0] <= ratio <= STDERR_BAND[1]:
        return False, f"stderr {stderr!r} is {ratio:.3f} x the reference for {trials} trials"
    return True, ""


def _state_and_sigma(sg, h: np.ndarray, rho: float, snr_db: float):
    sxx = sg.toeplitz_covariance(h.shape[1], rho)
    return sxx, sg.sigma_from_snr(h, sxx, snr_db)


# ---------------------------------------------------------------------------
# fig1: the paper's experiment through the CLI
# ---------------------------------------------------------------------------


class Fig1:
    """``stealthgrid fig1 --trials 1000 --seed <seed>`` into a fresh directory."""

    name = "fig1"

    def setup(self, sg, seed: int, tmp: Path) -> dict:
        # The CLI parses the case and builds H itself, inside the timed work.
        return {"seed": seed, "out": tmp / "fig1"}

    def run(self, sg, ctx: dict) -> dict:
        argv = ["fig1", "--trials", str(FIG1_TRIALS), "--seed", str(ctx["seed"])]
        argv += ["--out", str(ctx["out"])]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = sg.cli.main(argv)
        return {"code": code, "stdout": stdout.getvalue()}

    def check(self, sg, ctx: dict, outputs: dict) -> Verdict:
        verdict = Verdict()
        ref = load_reference()["fig1"]
        out: Path = ctx["out"]
        verdict.record(outputs["code"] == 0, f"fig1 exited with {outputs['code']}")
        margins = []
        for rho in FIG1_RHOS:
            tag = f"{rho:.1f}".replace(".", "")
            path = out / f"fig1_rho{tag}.csv"
            rows = _read_csv(path)
            if rows is not None:
                verdict.artifacts[path.name + ".sha256"] = hashlib.sha256(
                    path.read_bytes()
                ).hexdigest()
            ref_rho = ref[f"{rho:g}"]
            for i, ref_row in enumerate(ref_rho["rows"]):
                what = f"rho={rho:g} K={ref_row['k']}"
                if rows is None or i >= len(rows):
                    verdict.record(False, f"{what}: row missing from {path.name}")
                    continue
                ok, why = self._check_row(rows, i, ref_row, ref_rho["optimal_cost"])
                verdict.record(ok, f"{what}: {why}")
                _, mean, stderr, bound = rows[i][:4]
                if stderr > 0:
                    margins.append((bound - mean) / stderr)
            if rows is not None and len(rows) != len(ref_rho["rows"]):
                verdict.record(False, f"{path.name} has {len(rows)} rows")
        for rho in FIG1_RHOS:
            ok, why = _check_large_k_line(outputs["stdout"], rho)
            verdict.record(ok, f"rho={rho:g} large-K check: {why}")
        verdict.health["bounds.margin_min_z"] = min(margins, default=0.0)
        verdict.health["experiment.bytes_written"] = sum(
            p.stat().st_size for p in out.glob("*") if p.is_file()
        ) if out.is_dir() else 0
        return verdict

    @staticmethod
    def _check_row(rows, i: int, ref_row: dict, f_star: float) -> tuple[bool, str]:
        k, mean, stderr, bound, optimal, gap = rows[i]
        if not all(math.isfinite(v) for v in rows[i]):
            return False, f"non-finite row {rows[i]}"
        if int(k) != ref_row["k"]:
            return False, f"K={k}, expected {ref_row['k']}"
        if not math.isclose(optimal, f_star, rel_tol=1e-9):
            return False, f"optimal_cost {optimal!r} != {f_star!r}"
        if not math.isclose(gap, bound - optimal, rel_tol=1e-9, abs_tol=1e-12):
            return False, f"gap {gap!r} != bound - optimal_cost"
        if bound < mean - 4.0 * stderr:
            return False, f"bound {bound!r} below mc_mean - 4 stderr ({mean!r}, {stderr!r})"
        if i > 0 and not gap < rows[i - 1][5]:
            return False, f"gap {gap!r} does not decrease from {rows[i - 1][5]!r}"
        return mc_agrees(mean, stderr, FIG1_TRIALS, ref_row)


def _read_csv(path: Path) -> list[tuple[float, ...]] | None:
    """Rows of a fig1 CSV, or None if it is missing or malformed."""
    if not path.is_file():
        return None
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "k,mc_mean,mc_stderr,bound,optimal_cost,gap":
        return None
    try:
        rows = [tuple(float(cell) for cell in line.split(",")) for line in lines[1:]]
    except ValueError:
        return None
    return rows if all(len(row) == 6 for row in rows) else None


def _check_large_k_line(stdout: str, rho: float) -> tuple[bool, str]:
    prefix = f"rho={rho:g}: bound(K-1=1e8)="
    for line in stdout.splitlines():
        if line.startswith(prefix):
            try:
                rel = float(line.rsplit("relative gap=", 1)[1])
            except (IndexError, ValueError):
                return False, f"unreadable line {line!r}"
            ok = math.isfinite(rel) and rel < 0.005
            return ok, f"relative gap {rel!r} not below 0.005"
    return False, "line missing from stdout"


# ---------------------------------------------------------------------------
# bound_sweep: the closed-form bound on a grid of systems, rho, SNR and K
# ---------------------------------------------------------------------------


class BoundSweep:
    """``ergodic_upper_bound`` for both formulas over 45 settings x 25 K values."""

    name = "bound_sweep"

    def setup(self, sg, seed: int, tmp: Path) -> dict:
        rng = np.random.default_rng([seed, 1])
        systems = [("ieee30", sg.build_dc_jacobian(sg.load_ieee30()).h)]
        systems += [(f"{m}x{n}", rng.standard_normal((m, n))) for m, n in SWEEP_SHAPES]
        settings = []
        for label, h in systems:
            p = int(np.linalg.matrix_rank(h))
            ks = [int(k) for k in np.round(np.geomspace(p + 1, SWEEP_K_MAX, SWEEP_POINTS))]
            ks.append(ASYMPTOTIC_K)
            for rho in SWEEP_RHOS:
                for snr in SWEEP_SNRS_DB:
                    sxx, sigma = _state_and_sigma(sg, h, rho, snr)
                    settings.append(
                        {"label": f"{label} rho={rho:g} snr={snr:g}", "h": h,
                         "sxx": sxx, "sigma": sigma, "ks": ks}
                    )
        return {"settings": settings}

    def run(self, sg, ctx: dict) -> list:
        results = []
        for s in ctx["settings"]:
            for k in s["ks"]:
                for formula in FORMULAS:
                    results.append(
                        sg.ergodic_upper_bound(s["h"], s["sxx"], s["sigma"], k, formula)
                    )
        return results

    def check(self, sg, ctx: dict, outputs: list) -> Verdict:
        verdict = Verdict()
        results = iter(outputs)
        for s in ctx["settings"]:
            h, sigma = s["h"], s["sigma"]
            ev = np.linalg.eigvalsh(h @ s["sxx"].sigma_xx @ h.T)
            ev = ev[ev > 1e-10 * ev[-1]]
            f_star = 0.5 * float(np.sum(ev / (ev + sigma**2)))
            previous: dict[str, float] = {}
            for k in s["ks"]:
                program = None
                for formula in FORMULAS:
                    r = next(results, None)
                    what = f"{s['label']} K={k} {formula}"
                    if r is None:
                        verdict.record(False, f"{what}: missing result")
                        continue
                    if program is None:
                        program = sg.solve_bound_program(r.spectrum.eigenvalues / sigma**2, k)
                    why = self._failure(r, ev.size, f_star, previous, program, h.shape[0], sigma)
                    verdict.record(not why, f"{what}: {why}")
                    previous[formula] = r.value
        return verdict

    @staticmethod
    def _failure(r, p: int, f_star: float, previous: dict, program, m: int, sigma: float) -> str:
        """Why bound ``r`` fails a check, or "" when it passes them all.

        ``previous`` maps each formula to its bound at the previous K (the
        paper bound at this K is already in it when ``r`` is real_exact);
        ``program`` is the allocation re-solved for this setting and K.
        """
        value = r.value
        if not (math.isfinite(value) and math.isfinite(r.digamma_sum)):
            return f"non-finite bound {value!r}"
        if r.spectrum.p != p:
            return f"rank p={r.spectrum.p}, expected {p}"
        if value < f_star * (1.0 - 1e-12):
            return f"bound {value!r} below optimal cost {f_star!r}"
        if r.formula in previous and value > previous[r.formula] * (1.0 + 1e-12):
            return f"bound {value!r} increases from {previous[r.formula]!r}"
        if r.formula == "real_exact" and value < previous.get("paper", -math.inf):
            return f"real_exact bound {value!r} below paper bound {previous['paper']!r}"
        oracle = _digamma_sum_oracle(p, r.k, r.formula)
        if abs(r.digamma_sum - oracle) > 1e-11 * p * math.log(r.k) + 1e-12:
            return f"digamma sum {r.digamma_sum!r} != scipy oracle {oracle!r}"
        residual = abs(float(np.sum(program.x_star)) - program.p)
        if residual > 1e-9:
            return f"|sum x* - p| = {residual!r} exceeds 1e-9"
        objective = r.logdet_lower - r.digamma_sum - 2.0 * m * math.log(sigma)
        if abs(program.objective - objective) > 1e-9 * max(1.0, abs(objective)):
            return f"allocation objective {program.objective!r} != {objective!r} in the bound"
        return ""


def _digamma_sum_oracle(p: int, k: int, formula: str) -> float:
    """Expected log-det of the standardized sample covariance, via scipy."""
    # Imported here, after the peak-memory reading, so scipy is not in it.
    from scipy.special import digamma as scipy_digamma

    if formula == "paper":
        terms = scipy_digamma(k - 1 - np.arange(p, dtype=float))
        return math.fsum(terms) - p * math.log(k - 1)
    terms = scipy_digamma((k - np.arange(1, p + 1, dtype=float)) / 2.0)
    return math.fsum(terms) + p * math.log(2.0) - p * math.log(k - 1)


# ---------------------------------------------------------------------------
# mc_small: the Monte Carlo on tiny systems, both samplers
# ---------------------------------------------------------------------------


class McSmall:
    """``estimate_ergodic_cost`` on 1x1, 8x4 and 20x10 systems, 2000 trials each."""

    name = "mc_small"

    def setup(self, sg, seed: int, tmp: Path) -> dict:
        calls = []
        for label, h in mc_systems():
            sxx, sigma = _state_and_sigma(sg, h, MC_RHO, SNR_DB)
            for k in mc_k_values(h.shape[1]):
                for sampler in MC_SAMPLERS:
                    calls.append({"label": label, "h": h, "sxx": sxx, "sigma": sigma,
                                  "k": k, "sampler": sampler})
        for index, call in enumerate(calls):
            call["seed"] = int(
                np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0]
            )
        return {"calls": calls}

    def run(self, sg, ctx: dict) -> list:
        results = []
        for c in ctx["calls"]:
            cfg = sg.TrainingConfig(k=c["k"], seed=c["seed"], trials=MC_TRIALS, sampler=c["sampler"])
            results.append(sg.estimate_ergodic_cost(c["h"], c["sxx"], c["sigma"], cfg))
        return results

    def check(self, sg, ctx: dict, outputs: list) -> Verdict:
        verdict = Verdict()
        ref = load_reference()["mc_small"]
        for c, est in zip(ctx["calls"], outputs):
            what = f"{c['label']} K={c['k']} {c['sampler']}"
            if est.trials != MC_TRIALS or est.k != c["k"]:
                verdict.record(False, f"{what}: ran {est.trials} trials at K={est.k}")
                continue
            ok, why = mc_agrees(est.mean, est.stderr, MC_TRIALS, ref[c["label"]][str(c["k"])])
            verdict.record(ok, f"{what}: {why}")
        for c in ctx["calls"][len(outputs):]:
            verdict.record(False, f"{c['label']} K={c['k']} {c['sampler']}: missing")
        return verdict


# ---------------------------------------------------------------------------
# detect: the LRT detection experiments
# ---------------------------------------------------------------------------


class Detect:
    """``error_exponent_estimate`` at the CLI defaults, then one detection run."""

    name = "detect"

    def setup(self, sg, seed: int, tmp: Path) -> dict:
        scalar = sg.DerivedCovariances(sigma_yy=np.array([[1.0]]), sigma_yaya=np.array([[2.0]]))
        h = np.random.default_rng([seed, 2]).standard_normal(DETECT_SYSTEM)
        sxx, sigma = _state_and_sigma(sg, h, MC_RHO, SNR_DB)
        attack = sg.optimal_attack_covariance(h, sxx)
        system = sg.derived_covariances(h, sxx, sigma, attack)
        return {"seed": seed, "scalar": scalar, "system": system}

    def run(self, sg, ctx: dict) -> dict:
        exponents = sg.error_exponent_estimate(
            ctx["scalar"], n_grid=DETECT_N_GRID, epsilon=DETECT_EPSILON,
            trials=DETECT_TRIALS, seed=ctx["seed"],
        )
        experiment = sg.run_detection_experiment(
            ctx["system"], n=DETECT_SYSTEM_N, epsilon=DETECT_EPSILON,
            trials=DETECT_SYSTEM_TRIALS, seed=ctx["seed"],
        )
        return {"exponents": exponents, "experiment": experiment}

    def check(self, sg, ctx: dict, outputs: dict) -> Verdict:
        verdict = Verdict()
        est = outputs["exponents"]
        kl = _gaussian_kl(ctx["scalar"].sigma_yaya, ctx["scalar"].sigma_yy)
        values = [pt.exponent for pt in est.points]
        ok = math.isclose(est.kl_marginals, kl, rel_tol=1e-12)
        why = f"KL {est.kl_marginals!r} != closed form {kl!r}"
        if ok and [pt.n for pt in est.points] != list(DETECT_N_GRID):
            ok, why = False, f"block lengths {[pt.n for pt in est.points]}"
        if ok and not all(math.isfinite(v) for v in values):
            ok, why = False, f"non-finite exponent in {values}"
        if ok and not all(a < b for a, b in zip(values, values[1:])):
            ok, why = False, f"exponents {values} do not increase with n"
        verdict.record(ok, f"error_exponent_estimate: {why}")

        exp = outputs["experiment"]
        band = ALPHA_BAND_SIGMAS * math.sqrt(
            2.0 * DETECT_EPSILON * (1.0 - DETECT_EPSILON) / DETECT_SYSTEM_TRIALS
        )
        ok = (
            exp.trials == DETECT_SYSTEM_TRIALS
            and math.isfinite(exp.tau)
            and abs(exp.alpha_hat - DETECT_EPSILON) <= band
            and 0.0 <= exp.beta_hat <= 1.0
        )
        verdict.record(
            ok, f"run_detection_experiment: alpha_hat={exp.alpha_hat!r} tau={exp.tau!r} "
            f"beta_hat={exp.beta_hat!r} trials={exp.trials}",
        )
        finite = [v for v in values if math.isfinite(v)]
        verdict.health["detection.exponent_over_kl_max"] = max(finite, default=0.0) / kl
        return verdict


def _gaussian_kl(cov_p: np.ndarray, cov_q: np.ndarray) -> float:
    """D(N(0, cov_p) || N(0, cov_q)) computed directly with numpy."""
    m = cov_p.shape[0]
    _, logdet_p = np.linalg.slogdet(cov_p)
    _, logdet_q = np.linalg.slogdet(cov_q)
    return 0.5 * (float(np.trace(np.linalg.solve(cov_q, cov_p))) - m + logdet_q - logdet_p)


WORKLOADS = {w.name: w for w in (Fig1(), BoundSweep(), McSmall(), Detect())}
