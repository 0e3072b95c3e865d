"""Command-line interface.

Subcommands: ``parse``, ``model``, ``optimal``, ``ergodic``, ``bound``,
``detect``, ``fig1``, ``run``.  All experiment subcommands are seeded and
deterministic; precondition violations exit nonzero with a diagnostic.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

import numpy as np

from .bounds import FORMULAS, spectral_upper_bound
from .detection import error_exponent_estimate
from .experiment import emit_fig1_dataset, load_experiment_config, run_experiment
from .gaussian import DerivedCovariances, Scenario, optimal_cost
from .grid import (
    MeasurementSelection,
    build_dc_jacobian,
    load_matpower_case,
    load_measurement_matrix,
)
from .learning import SAMPLERS, TrainingConfig, spectral_ergodic_costs

#: Class name -> default of each ``include_<class>`` flag of :class:`MeasurementSelection`.
_MEASUREMENT_CLASSES = {
    flag.name.removeprefix("include_"): flag.default for flag in fields(MeasurementSelection)
}
_DEFAULT_MEASUREMENTS = ",".join(name for name, on in _MEASUREMENT_CLASSES.items() if on)


def _parse_measurements(spec: str) -> MeasurementSelection:
    chosen = {part.strip() for part in spec.split(",") if part.strip()}
    unknown = chosen - _MEASUREMENT_CLASSES.keys()
    if unknown:
        raise ValueError(
            f"unknown measurement classes {sorted(unknown)}; "
            f"choose from {sorted(_MEASUREMENT_CLASSES)}"
        )
    return MeasurementSelection(
        **{f"include_{name}": name in chosen for name in _MEASUREMENT_CLASSES}
    )


def _parse_n_grid(spec: str) -> tuple[int, ...]:
    return tuple(int(part) for part in spec.split(",") if part.strip())


def _scenario(args) -> Scenario:
    h = load_measurement_matrix(args.case, args.h_csv, _parse_measurements(args.measurements))
    return Scenario.build(h, args.rho, args.snr_db)


def _add_system_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--case", help="MATPOWER case path, or 'bundled:ieee30'")
    group.add_argument("--h-csv", help="precomputed measurement matrix (headerless CSV)")
    parser.add_argument(
        "--measurements",
        default=_DEFAULT_MEASUREMENTS,
        help=f"comma list from {{{','.join(_MEASUREMENT_CLASSES)}}} (default: %(default)s)",
    )
    parser.add_argument("--rho", type=float, required=True, help="Toeplitz decay parameter")
    parser.add_argument("--snr-db", type=float, default=20.0, help="SNR in dB (default: 20)")


def _cmd_parse(args) -> int:
    case = load_matpower_case(args.case)
    print(f"buses: {case.n_buses}")
    print(f"in-service branches: {len(case.in_service_branches)}")
    print(f"slack bus: {case.slack_bus}")
    print(f"base MVA: {case.base_mva:g}")
    return 0


def _cmd_model(args) -> int:
    case = load_matpower_case(args.case)
    model = build_dc_jacobian(case, _parse_measurements(args.measurements))
    print(f"measurements M: {model.n_measurements}")
    print(f"states N: {model.n_states}")
    if args.save_h:
        np.savetxt(args.save_h, model.h, delimiter=",")
        print(f"wrote H to {args.save_h}")
    return 0


def _cmd_optimal(args) -> int:
    s = _scenario(args)
    print(f"sigma^2: {s.sigma**2!r}")
    print(f"rank p: {s.spectrum.p}")
    print(f"optimal cost: {optimal_cost(s.spectrum, s.sigma)!r}")
    return 0


def _cmd_ergodic(args) -> int:
    cfg = TrainingConfig(k=args.k, seed=args.seed, trials=args.trials, sampler=args.sampler)
    s = _scenario(args)
    ((estimate,),) = spectral_ergodic_costs([(s.spectrum, s.sigma)], [cfg])
    print(f"k: {estimate.k}")
    print(f"trials: {estimate.trials}")
    print(f"ergodic cost mean: {estimate.mean!r}")
    print(f"stderr: {estimate.stderr!r}")
    return 0


def _cmd_bound(args) -> int:
    s = _scenario(args)
    result = spectral_upper_bound(s.spectrum, s.sigma, s.m, args.k, args.formula)
    print(f"k: {result.k}")
    print(f"formula: {result.formula}")
    print(f"bound: {result.value!r}")
    print(f"expected logdet term: {result.digamma_sum!r}")
    print(f"logdet lower bound: {result.logdet_lower!r}")
    print(f"optimal cost: {optimal_cost(s.spectrum, s.sigma)!r}")
    return 0


def _cmd_detect(args) -> int:
    derived = DerivedCovariances(
        sigma_yy=np.array([[args.clean_var]]),
        sigma_yaya=np.array([[args.clean_var + args.attack_var]]),
    )
    estimate = error_exponent_estimate(
        derived,
        n_grid=args.n_grid,
        epsilon=args.epsilon,
        trials=args.trials,
        seed=args.seed,
        tail=args.tail,
    )
    print(f"KL(attacked || nominal): {estimate.kl_marginals!r}")
    print("n,exponent,radius,beta_hat,exceed_count")
    for point in estimate.points:
        print(
            f"{point.n},{point.exponent!r},{point.radius!r},"
            f"{point.beta_hat!r},{point.exceed_count}"
        )
    return 0


def _cmd_fig1(args) -> int:
    paths = emit_fig1_dataset(output_dir=args.out, trials=args.trials, seed=args.seed)
    for path in paths:
        print(f"wrote {path}")
    return 0


def _cmd_run(args) -> int:
    path = run_experiment(load_experiment_config(args.config))
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stealthgrid",
        description="Stealth-attack construction, learned-attack Monte Carlo, "
        "and closed-form performance bounds for DC state estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a MATPOWER case and report its size")
    p.add_argument("case", help="case path, or 'bundled:ieee30'")
    p.set_defaults(handler=_cmd_parse)

    p = sub.add_parser("model", help="build the DC measurement matrix")
    p.add_argument("case", help="case path, or 'bundled:ieee30'")
    p.add_argument("--measurements", default=_DEFAULT_MEASUREMENTS)
    p.add_argument("--save-h", help="write H as headerless CSV")
    p.set_defaults(handler=_cmd_model)

    p = sub.add_parser("optimal", help="optimal attack cost for a system")
    _add_system_args(p)
    p.set_defaults(handler=_cmd_optimal)

    p = sub.add_parser("ergodic", help="Monte Carlo ergodic cost at one K")
    _add_system_args(p)
    p.add_argument("--k", type=int, required=True, help="training sample count K")
    p.add_argument("--trials", type=int, default=1000, help="Monte Carlo trials, at least 2")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--sampler", choices=SAMPLERS, default="bartlett")
    p.set_defaults(handler=_cmd_ergodic)

    p = sub.add_parser("bound", help="closed-form ergodic upper bound at one K")
    _add_system_args(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--formula", choices=FORMULAS, default="real_exact")
    p.set_defaults(handler=_cmd_bound)

    p = sub.add_parser(
        "detect", help="error-exponent experiment on a small synthetic system"
    )
    p.add_argument("--clean-var", type=float, default=1.0, help="nominal variance")
    p.add_argument("--attack-var", type=float, default=1.0, help="attack variance")
    p.add_argument("--epsilon", type=float, default=0.05)
    p.add_argument("--n-grid", type=_parse_n_grid, default=(10, 50, 200))
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tail", choices=("normal", "empirical"), default="normal")
    p.set_defaults(handler=_cmd_detect)

    p = sub.add_parser("fig1", help="the paper's Figure 1: bundled 30-bus K-sweep at SNR 20 dB")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--trials", type=int, default=1000, help="Monte Carlo trials per K, at least 2")
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(handler=_cmd_fig1)

    p = sub.add_parser("run", help="K-sweep described by a JSON config file")
    p.add_argument("config", help="JSON file of ExperimentConfig fields")
    p.set_defaults(handler=_cmd_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
