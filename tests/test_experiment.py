from __future__ import annotations

import dataclasses
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stealthgrid
from stealthgrid import (
    DEFAULT_K_GRID,
    ExperimentConfig,
    MeasurementSelection,
    TrainingConfig,
    draw_sample_covariance,
    emit_fig1_dataset,
    ergodic_upper_bound,
    expected_logdet_std_wishart,
    extreme_eig_bounds,
    load_experiment_config,
    nonzero_spectrum,
    optimal_cost,
    run_experiment,
    sigma_from_snr,
    spectral_upper_bound,
    toeplitz_covariance,
)
from stealthgrid import bounds, detection, experiment, gaussian, grid, learning
from stealthgrid.cli import main
from stealthgrid.experiment import CSV_COLUMNS


def read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    return [
        dict(zip(CSV_COLUMNS, [float(cell) for cell in line.split(",")]))
        for line in lines[1:]
    ]


def small_config(tmp_path, **overrides) -> ExperimentConfig:
    base = dict(
        rho=0.8,
        seed=11,
        case_path="bundled:ieee30",
        k_grid=(100, 1000),
        trials=10,
        output_dir=str(tmp_path),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------


def test_run_experiment_schema(tmp_path):
    path = run_experiment(small_config(tmp_path))
    rows = read_rows(path)
    assert [int(r["k"]) for r in rows] == [100, 1000]
    for row in rows:
        assert all(np.isfinite(v) for v in row.values())
        assert row["gap"] == pytest.approx(row["bound"] - row["optimal_cost"])


def test_run_experiment_writes_replayable_manifest(tmp_path, ieee30_h):
    config = small_config(tmp_path)
    path = run_experiment(config)
    manifest = json.loads((tmp_path / f"{path.stem}_manifest.json").read_text())
    assert manifest["m"] == 71
    assert manifest["n"] == 29
    assert manifest["p"] == 29
    assert manifest["config"]["seed"] == 11
    assert manifest["config"]["k_grid"] == [100, 1000]
    assert len(manifest["spectrum_sha256"]) == 64
    # the CSV's bound is real_exact and the manifest's bound_paper the paper's Fig. 1 sum
    cov = toeplitz_covariance(29, config.rho)
    sigma = sigma_from_snr(ieee30_h, cov, config.snr_db)
    spectrum = nonzero_spectrum(ieee30_h, cov)
    for formula, written in (
        ("real_exact", [row["bound"] for row in read_rows(path)]),
        ("paper", manifest["bound_paper"]),
    ):
        assert written == [
            spectral_upper_bound(spectrum, sigma, 71, k, formula).value for k in config.k_grid
        ], formula
    # rerunning from the recorded config reproduces the CSV byte for byte
    cfg = manifest["config"]
    cfg["output_dir"] = str(tmp_path / "rerun")
    rerun_path = run_experiment(ExperimentConfig(**cfg))
    assert rerun_path.name == path.name
    assert rerun_path.read_bytes() == path.read_bytes()


def test_manifest_names_the_blas_kernel_looked_up_once_per_sweep(tmp_path, monkeypatch, capsys):
    lookups = []
    monkeypatch.setattr(experiment, "blas_kernel", lambda: lookups.append(1) or b"Testcore")
    emit_fig1_dataset(tmp_path, trials=2, seed=1)
    manifests = sorted(tmp_path.glob("*_manifest.json"))
    assert len(manifests) == 2 and len(lookups) == 1
    assert all(json.loads(path.read_text())["blas_kernel"] == "Testcore" for path in manifests)
    monkeypatch.setattr(experiment, "blas_kernel", lambda: None)
    path = run_experiment(small_config(tmp_path / "none"))
    manifest = json.loads((path.parent / f"{path.stem}_manifest.json").read_text())
    assert manifest["blas_kernel"] is None


def test_manifest_names_the_running_blas_kernel(tmp_path):
    path = run_experiment(small_config(tmp_path))
    manifest = json.loads((tmp_path / f"{path.stem}_manifest.json").read_text())
    kernel = experiment.blas_kernel()
    assert manifest["blas_kernel"] == (kernel.decode() if kernel else None)


def test_blas_kernel_reads_a_library_path_with_spaces_and_skips_one_that_does_not_load(
    tmp_path, monkeypatch
):
    kernel = experiment.blas_kernel()
    libraries = sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*"))
    if kernel is None or not libraries:
        pytest.skip("numpy runs no OpenBLAS from numpy.libs here")
    spaced = tmp_path / "with space" / libraries[0].name
    spaced.parent.mkdir()
    spaced.symlink_to(libraries[0])

    def maps_naming(path):
        line = f"7f1c2a000000-7f1c2a100000 r-xp 00000000 08:01 1311     {path}\n"
        return lambda *args, **kwargs: io.StringIO(line)

    monkeypatch.setattr(experiment, "open", maps_naming(spaced), raising=False)
    assert experiment.blas_kernel() == kernel
    missing = tmp_path / "not here" / libraries[0].name
    monkeypatch.setattr(experiment, "open", maps_naming(missing), raising=False)
    assert experiment.blas_kernel() is None


def test_run_experiment_deterministic(tmp_path):
    a = run_experiment(small_config(tmp_path / "a"))
    b = run_experiment(small_config(tmp_path / "b"))
    assert a.read_bytes() == b.read_bytes()


def test_run_experiment_gap_strictly_decreasing(tmp_path):
    config = small_config(tmp_path, k_grid=(50, 100, 500, 1000), trials=5)
    rows = read_rows(run_experiment(config))
    gaps = [row["gap"] for row in rows]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_run_experiment_rejects_undersampled_k(tmp_path):
    with pytest.raises(ValueError, match="k-1 >= p"):
        run_experiment(small_config(tmp_path, k_grid=(10, 100)))


def _scalar_config(tmp_path, seed) -> ExperimentConfig:
    # H = [[1]] at 5 dB and K = 11, where the paper's sum lies below the mean
    h_path = tmp_path / "h.csv"
    h_path.write_text("1\n")
    return ExperimentConfig(
        rho=0.0, seed=seed, h_path=str(h_path), snr_db=5.0, k_grid=(11,), trials=20_000,
        output_dir=str(tmp_path),
    )


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_manifest_flags_a_bound_below_the_monte_carlo_mean(tmp_path, monkeypatch, seed):
    # fault injection: a bound of 0 lies below every cost, which is at least f* > 0
    true_bound = experiment.spectral_upper_bound
    monkeypatch.setattr(
        experiment, "spectral_upper_bound",
        lambda *args: dataclasses.replace(true_bound(*args), value=0.0),
    )
    path = run_experiment(_scalar_config(tmp_path, seed))
    manifest = json.loads((tmp_path / f"{path.stem}_manifest.json").read_text())
    (row,) = read_rows(path)
    assert row["bound"] == 0.0
    (diagnostic,) = manifest["diagnostics"]
    assert diagnostic["k"] == 11
    assert diagnostic["margin_z"] == (row["bound"] - row["mc_mean"]) / row["mc_stderr"]
    assert diagnostic["mc_rel_stderr"] == row["mc_stderr"] / row["mc_mean"]
    assert diagnostic["margin_z"] < -3.0
    assert manifest["bound_violations"] == [11]


def test_manifest_records_the_allocation_solver_diagnostics(tmp_path, ieee30_h):
    config = small_config(tmp_path)
    path = run_experiment(config)
    manifest = json.loads((tmp_path / f"{path.stem}_manifest.json").read_text())
    cov = toeplitz_covariance(29, config.rho)
    sigma = sigma_from_snr(ieee30_h, cov, config.snr_db)
    spectrum = nonzero_spectrum(ieee30_h, cov)
    for k, diagnostic in zip(config.k_grid, manifest["diagnostics"]):
        program = spectral_upper_bound(spectrum, sigma, 71, k).program
        assert diagnostic["bound_newton_steps"] == program.newton_steps >= 1
        assert diagnostic["bound_clipped"] == program.clipped
        assert diagnostic["bound_sum_residual"] == program.sum_residual < 1e-9
        x = program.x_star
        assert program.clipped == np.sum((x <= program.box_lo) | (x >= program.box_hi))


def test_manifest_lists_no_violation_for_the_default_bound(tmp_path):
    # the paper's sum, listed in the manifest, lies below the mean here; real_exact does not
    path = run_experiment(_scalar_config(tmp_path, 1))
    manifest = json.loads((tmp_path / f"{path.stem}_manifest.json").read_text())
    assert manifest["diagnostics"][0]["margin_z"] > 3.0
    assert manifest["bound_violations"] == []
    (row,), (paper,) = read_rows(path), manifest["bound_paper"]
    assert (paper - row["mc_mean"]) / row["mc_stderr"] < -3.0


def test_config_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        ExperimentConfig(rho=0.1, seed=0, case_path="x", k_grid=(100, 100))
    with pytest.raises(ValueError, match="rho"):
        ExperimentConfig(rho=1.0, seed=0, case_path="x", k_grid=(100,))
    with pytest.raises(ValueError, match="exactly one"):
        ExperimentConfig(rho=0.1, seed=0, k_grid=(100,))


@pytest.mark.parametrize(
    "changed, message",
    [
        ({"rho": "0.1"}, "'rho' must be a real number, got '0.1'"),
        ({"rho": True}, "'rho' must be a real number, got True"),
        ({"snr_db": None}, "'snr_db' must be a real number, got None"),
        ({"seed": "3"}, "'seed' must be an integer, got '3'"),
        ({"seed": 3.0}, "'seed' must be an integer, got 3.0"),
        ({"trials": 2.5}, "'trials' must be an integer, got 2.5"),
        ({"trials": False}, "'trials' must be an integer, got False"),
        ({"output_dir": 5}, "'output_dir' must be a string, got 5"),
        ({"case_path": 30}, "'case_path' must be a string or None, got 30"),
        ({"h_path": ["h.csv"]}, "'h_path' must be a string or None, got ['h.csv']"),
        ({"measurements": {"include_to_flows": 1}},
         "include_to_flows must be a bool, got 1 (field 'measurements')"),
        ({"measurements": {"include_bogus": True}},
         "'measurements' has unknown flags ['include_bogus']"),
        ({"k_grid": 50}, "'k_grid' must be an iterable of integers, got 50"),
        ({"k_grid": "50"}, "'k_grid' must be an iterable of integers, got '50'"),
        ({"k_grid": np.array(50)}, "'k_grid' must be an iterable of integers, got array(50)"),
        ({"seed": -1}, "'seed' must lie in [0, 2**64), got -1"),
        ({"seed": 2**64}, f"'seed' must lie in [0, 2**64), got {2**64}"),
        ({"k_grid": (1, 50)}, "every K in 'k_grid' must be >= 2, got (1, 50)"),
    ],
    ids=["rho-string", "rho-bool", "snr_db-none", "seed-string", "seed-float", "trials-float",
         "trials-bool", "output_dir-int", "case_path-int", "h_path-list",
         "measurements-int-flag", "measurements-unknown-flag", "k_grid-int", "k_grid-string",
         "k_grid-0d-array", "seed-negative", "seed-2**64", "k_grid-k=1"],
)
def test_config_rejects_values_of_the_wrong_type(changed, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentConfig(**{"rho": 0.1, "seed": 0, "case_path": "x", **changed})


def test_config_turns_a_mapping_of_flags_into_a_measurement_selection(tmp_path):
    config = small_config(tmp_path, k_grid=(50,), trials=2,
                          measurements={"include_to_flows": True})
    assert config.measurements == MeasurementSelection(include_to_flows=True)
    path = run_experiment(config)
    manifest = json.loads((tmp_path / f"{path.stem}_manifest.json").read_text())
    assert (manifest["m"], manifest["n"]) == (112, 29)  # 41 + 41 flows + 30 injections


def test_one_trial_is_rejected_not_reported_with_zero_stderr(tmp_path, capsys):
    # one draw has no standard error; it used to print stderr 0.0 and margin_z null
    with pytest.raises(ValueError, match="trials must be >= 2"):
        TrainingConfig(k=30, seed=1, trials=1)
    with pytest.raises(ValueError, match="trials must be >= 2"):
        small_config(tmp_path, trials=1)
    argv = ["ergodic", "--case", "bundled:ieee30", "--rho", "0.1", "--k", "30", "--trials", "1",
            "--seed", "1"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: trials must be >= 2") and captured.out == ""
    assert main(["fig1", "--out", str(tmp_path), "--trials", "1", "--seed", "1"]) == 1
    assert capsys.readouterr().err.startswith("error: trials must be >= 2")


def test_config_stores_numpy_scalars_as_plain_json_numbers(tmp_path):
    config = small_config(
        tmp_path, rho=np.float32(0.5), snr_db=np.int64(20), seed=np.int64(11), trials=np.int64(4)
    )
    assert (config.rho, config.snr_db, config.seed, config.trials) == (0.5, 20.0, 11, 4)
    assert [type(v) for v in (config.rho, config.snr_db, config.seed, config.trials)] == [
        float, float, int, int
    ]
    path = run_experiment(config)
    manifest = json.loads((tmp_path / f"{path.stem}_manifest.json").read_text())
    assert manifest["config"]["seed"] == 11 and manifest["config"]["snr_db"] == 20.0


@pytest.mark.parametrize("k", [50.7, True, "50"], ids=["float", "bool", "string"])
def test_config_rejects_a_k_that_is_not_an_integer(k):
    with pytest.raises(ValueError, match=f"K in k_grid must be an integer, got {k!r}"):
        ExperimentConfig(rho=0.1, seed=0, case_path="x", k_grid=(k, 100.2))


def test_config_accepts_numpy_integer_ks():
    config = ExperimentConfig(rho=0.1, seed=0, case_path="x", k_grid=np.array([50, 100]))
    assert config.k_grid == (50, 100)
    assert [type(k) for k in config.k_grid] == [int, int]


def test_load_experiment_config_rejects_unknown_keys(tmp_path):
    # formula and sampler were config keys once; the sweep no longer varies them
    raw = {"rho": 0.1, "seed": 3, "case_path": "bundled:ieee30", "trails": 4, "threads": 2,
           "formula": "paper", "sampler": "empirical"}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    with pytest.raises(
        ValueError, match=r"unknown config keys \['formula', 'sampler', 'threads', 'trails'\]"
    ):
        load_experiment_config(cfg_path)


@pytest.mark.parametrize("key", ["rho", "seed"])
def test_cli_run_rejects_a_config_without_a_required_key(tmp_path, capsys, key):
    raw = {"rho": 0.1, "seed": 3, "case_path": "bundled:ieee30", "k_grid": [50], "trials": 2,
           "output_dir": str(tmp_path)}
    del raw[key]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert main(["run", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith(f"error: missing config keys ['{key}']")


@pytest.mark.parametrize(
    "changed, key",
    [
        ({"rho": "a"}, "'rho'"),
        ({"snr_db": "20"}, "'snr_db'"),
        ({"seed": 1.5}, "'seed'"),
        ({"seed": True}, "'seed'"),
        ({"trials": 10.0}, "'trials'"),
        ({"k_grid": 50}, "'k_grid'"),
        ({"k_grid": [50, 100.5]}, "'k_grid'"),
        ({"measurements": 5}, "'measurements'"),
        ({"measurements": {"include_to_flows": 1}}, "'measurements'"),
        ({"measurements": {"include_bogus": True}}, "'measurements'"),
        ({"case_path": 30}, "'case_path'"),
        ({"formula": ["paper"]}, "unknown config keys ['formula']"),
        ({"sampler": "empirical"}, "unknown config keys ['sampler']"),
        ({"output_dir": 7}, "'output_dir'"),
        ([1, 2], "must be a JSON object, got list"),
    ],
    ids=[
        "rho-string", "snr-string", "seed-float", "seed-bool", "trials-float", "k_grid-int",
        "k_grid-float-entry", "measurements-int", "measurements-int-flag",
        "measurements-unknown-flag", "case_path-int", "formula-list", "sampler-string",
        "output_dir-int",
        "top-level-array",
    ],
)
def test_cli_run_rejects_config_values_of_the_wrong_type(tmp_path, capsys, changed, key):
    raw = {"rho": 0.1, "seed": 3, "case_path": "bundled:ieee30", "k_grid": [50], "trials": 2,
           "output_dir": str(tmp_path)}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**raw, **changed} if isinstance(changed, dict) else changed))
    assert main(["run", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and key in captured.err
    assert captured.out == ""


def test_load_experiment_config_roundtrip(tmp_path):
    raw = {
        "rho": 0.1,
        "seed": 3,
        "case_path": "bundled:ieee30",
        "k_grid": [50, 100],
        "trials": 4,
        "measurements": {"include_from_flows": True, "include_injections": True},
        "output_dir": str(tmp_path),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    config = load_experiment_config(cfg_path)
    assert config.k_grid == (50, 100)
    assert config.trials == 4
    path = run_experiment(config)
    assert len(read_rows(path)) == 2


# ---------------------------------------------------------------------------
# emit_fig1_dataset
# ---------------------------------------------------------------------------


def test_fig1_default_grid_schema(tmp_path, capsys):
    paths = emit_fig1_dataset(tmp_path, trials=3, seed=21)
    names = sorted(p.name for p in paths)
    assert names == ["fig1_rho01.csv", "fig1_rho08.csv"]
    printed = capsys.readouterr().out
    assert "K-1=1e8" in printed
    for path in paths:
        rows = read_rows(path)
        assert len(rows) >= 8
        assert [int(r["k"]) for r in rows] == sorted(int(r["k"]) for r in rows)
        optimal = {r["optimal_cost"] for r in rows}
        assert len(optimal) == 1


def test_fig1_rows_satisfy_bound_and_closed_form(tmp_path, ieee30_h):
    paths = emit_fig1_dataset(tmp_path, trials=40, seed=5)
    for path, rho in zip(sorted(paths), (0.1, 0.8)):
        rows = read_rows(path)
        cov = toeplitz_covariance(29, rho)
        sigma = sigma_from_snr(ieee30_h, cov, 20.0)
        expected = optimal_cost(nonzero_spectrum(ieee30_h, cov), sigma)
        for row in rows:
            assert row["bound"] >= row["mc_mean"] - 3.0 * row["mc_stderr"]
            assert row["optimal_cost"] == pytest.approx(expected, abs=1e-9)


def test_fig1_prints_the_large_k_bound_recorded_in_the_manifest(tmp_path, capsys, ieee30_h):
    paths = emit_fig1_dataset(tmp_path, trials=3, seed=4)
    printed = capsys.readouterr().out
    for path, rho in zip(sorted(paths), (0.1, 0.8)):
        manifest = json.loads((tmp_path / f"{path.stem}_manifest.json").read_text())
        cov = toeplitz_covariance(29, rho)
        sigma = sigma_from_snr(ieee30_h, cov, 20.0)
        expected = ergodic_upper_bound(ieee30_h, cov, sigma, 10**8 + 1, "real_exact").value
        assert manifest["bound_large_k"] == expected
        assert f"rho={rho:g}: bound(K-1=1e8)={expected:.6f}," in printed


def test_fig1_joint_sweep_writes_the_files_of_one_run_per_rho(tmp_path, capsys):
    # both rhos are scored on shared draws; alone, each run draws the same ones
    paths = emit_fig1_dataset(tmp_path / "fig1", trials=30, seed=8)
    assert len(list((tmp_path / "fig1").iterdir())) == 4

    def manifest_of(csv_path):
        manifest = json.loads(csv_path.with_name(f"{csv_path.stem}_manifest.json").read_text())
        del manifest["csv"], manifest["config"]["output_dir"]
        return manifest

    for path, rho in zip(paths, (0.1, 0.8)):
        config = small_config(tmp_path / f"rho{rho}", rho=rho, k_grid=DEFAULT_K_GRID, trials=30,
                              seed=8)
        alone = run_experiment(config)
        assert alone.read_bytes() == path.read_bytes()
        assert manifest_of(alone) == manifest_of(path)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_parse_bundled(capsys):
    assert main(["parse", "bundled:ieee30"]) == 0
    out = capsys.readouterr().out
    assert "buses: 30" in out
    assert "in-service branches: 41" in out


def test_cli_model_save_roundtrip(tmp_path, capsys, ieee30_h):
    out_csv = tmp_path / "h.csv"
    assert main(["model", "bundled:ieee30", "--save-h", str(out_csv)]) == 0
    from stealthgrid import load_matrix_csv

    np.testing.assert_allclose(load_matrix_csv(out_csv), ieee30_h, atol=1e-12)


@pytest.mark.parametrize(
    "spec, rows",
    [(None, 71), ("from_flows,injections", 71), (" to_flows ,", 41),
     ("injections,to_flows,from_flows", 112)],
    ids=["default", "from_flows,injections", "to_flows", "all"],
)
def test_cli_measurement_classes_are_the_selection_flags(capsys, spec, rows):
    argv = ["model", "bundled:ieee30"] + (["--measurements", spec] if spec else [])
    assert main(argv) == 0
    assert f"measurements M: {rows}\n" in capsys.readouterr().out


def test_cli_rejects_an_unknown_measurement_class(capsys):
    assert main(["model", "bundled:ieee30", "--measurements", "from_flows,bogus"]) == 1
    assert capsys.readouterr().err == (
        "error: unknown measurement classes ['bogus']; "
        "choose from ['from_flows', 'injections', 'to_flows']\n"
    )


def test_cli_optimal(capsys):
    assert main(["optimal", "--case", "bundled:ieee30", "--rho", "0.8"]) == 0
    out = capsys.readouterr().out
    assert "rank p: 29" in out
    assert "optimal cost: 13.05305" in out


def test_cli_ergodic_and_bound(capsys):
    assert (
        main(
            [
                "ergodic",
                "--case",
                "bundled:ieee30",
                "--rho",
                "0.8",
                "--k",
                "100",
                "--trials",
                "5",
                "--seed",
                "1",
            ]
        )
        == 0
    )
    assert main(["bound", "--case", "bundled:ieee30", "--rho", "0.8", "--k", "100"]) == 0
    out = capsys.readouterr().out
    assert "ergodic cost mean" in out
    assert "bound:" in out


def test_cli_detect(capsys):
    assert main(["detect", "--n-grid", "5,10", "--trials", "5000", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "KL(attacked || nominal)" in out
    assert out.count("\n") >= 4


def test_cli_detect_identical_hypotheses_prints_no_negative_zero(capsys):
    assert main(["detect", "--attack-var", "0", "--trials", "2000", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    rows = out.splitlines()[2:]
    assert [row.split(",")[1] for row in rows] == ["0.0", "0.0", "0.0"]
    assert "-0.0" not in out


def test_cli_detect_rejects_an_empty_n_grid(capsys):
    assert main(["detect", "--n-grid", ",", "--seed", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: need at least one block length n\n"
    assert captured.out == ""


def test_cli_errors_exit_nonzero(capsys, tmp_path):
    assert main(["parse", str(tmp_path / "missing.m")]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["bound", "--case", "bundled:ieee30", "--rho", "1.5", "--k", "100"]) == 1
    assert main(["ergodic", "--case", "bundled:ieee30", "--rho", "0.1", "--k", "10",
                 "--seed", "0"]) == 1


#: Each entry point that takes a training size K, with K as its one argument.
K_ENTRY_POINTS = pytest.mark.parametrize(
    "call",
    [
        lambda k: TrainingConfig(k, seed=1, trials=2),
        lambda k: draw_sample_covariance(np.eye(3), k, 1),
        lambda k: ExperimentConfig(rho=0.1, seed=0, case_path="x", k_grid=(50, k)),
        lambda k: expected_logdet_std_wishart(3, k, "paper"),
        lambda k: expected_logdet_std_wishart(3, k, "real_exact"),
        lambda k: extreme_eig_bounds(3, k),
    ],
    ids=["TrainingConfig", "draw_sample_covariance", "ExperimentConfig.k_grid",
         "expected_logdet_std_wishart-paper", "expected_logdet_std_wishart-real_exact",
         "extreme_eig_bounds"],
)


@K_ENTRY_POINTS
@pytest.mark.parametrize("k", [2**64, 10**400], ids=["2**64", "10**400"])
def test_k_from_2_to_the_64_is_rejected_at_every_entry_point(call, k):
    # numpy's integers stop below 2**64: such a K used to end in a TypeError
    # or OverflowError deep in numpy, or in a bound computed in floats
    with pytest.raises(ValueError, match=re.escape(f"must lie in [0, 2**64), got {k}")):
        call(k)


@K_ENTRY_POINTS
@pytest.mark.parametrize("k", [2**64 - 1, np.uint64(2**64 - 1)], ids=["int", "uint64"])
def test_k_just_below_2_to_the_64_is_accepted_at_every_entry_point(call, k):
    call(k)


@pytest.mark.parametrize(
    "argv",
    [
        ["ergodic", "--case", "bundled:ieee30", "--rho", "0.8", "--k", str(2**64),
         "--trials", "2", "--seed", "1"],
        ["bound", "--case", "bundled:ieee30", "--rho", "0.8", "--k", str(2**64)],
        ["bound", "--case", "bundled:ieee30", "--rho", "0.8", "--k", str(10**400)],
        ["run", "{config}"],
    ],
    ids=["ergodic", "bound-2**64", "bound-10**400", "run"],
)
def test_cli_rejects_k_from_2_to_the_64_with_one_error_line(tmp_path, capsys, argv):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"rho": 0.8, "seed": 1, "case_path": "bundled:ieee30",
                                  "k_grid": [50, 2**64], "trials": 2,
                                  "output_dir": str(tmp_path)}))
    assert main([arg.format(config=config) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: [^\n]*must lie in \[0, 2\*\*64\)[^\n]*\n", captured.err)


@pytest.mark.parametrize(
    "argv, file_text, match",
    [
        (["ergodic", "--h-csv", "{path}", "--k", "10", "--seed", "0"], lambda case: "1,0\n0,inf\n",
         "cell 'inf' at line 2, column 2 is not a finite number"),
        (["bound", "--h-csv", "{path}", "--k", "10"], lambda case: "nan,1\n",
         "cell 'nan' at line 1, column 1 is not a finite number"),
        (["optimal", "--case", "{path}"], lambda case: case.replace("\t0.5\t", "\tnan\t"),
         "reactance must be finite, got nan (line 11)"),
        (["optimal", "--case", "{path}"], lambda case: case.replace("= 100;", "= Inf;"),
         "baseMVA must be finite, got inf (line 3)"),
        (["optimal", "--case", "{path}"], lambda case: case.replace("= 100;", "= abc;"),
         "baseMVA must be a number, got 'abc' (line 3)"),
        (["optimal", "--case", "{path}"], lambda case: case.replace("\t2\t1\t10", "\tInf\t1\t10"),
         "bus id must be an integer, got inf (line 7)"),
        (["optimal", "--case", "{path}"], lambda case: case.replace("\t2\t1\t10", "\tnan\t1\t10"),
         "bus id must be an integer, got nan (line 7)"),
        (["optimal", "--case", "{path}"], lambda case: case.replace("\t2\t1\t10", "\t2.5\t1\t10"),
         "bus id must be an integer, got 2.5 (line 7)"),
        (["optimal", "--case", "{path}"], lambda case: case.replace("\t2\t1\t10", "\t2\tnan\t10"),
         "bus type must be an integer, got nan (line 7)"),
        (["optimal", "--case", "{path}"], lambda case: case.replace("\t1\t2\t0.01", "\t1\t-inf\t0.01"),
         "branch to bus must be an integer, got -inf (line 11)"),
        (["optimal", "--case", "{path}"], lambda case: case.replace("\t1\t-360", "\tinf\t-360"),
         "branch status must be an integer, got inf (line 11)"),
        (["optimal", "--case", "{path}"], lambda case: case.replace("\t1\t-360", "\t-1\t-360"),
         "branch status must be 0 or 1, got -1 (line 11)"),
        (["optimal", "--case", "{path}"], lambda case: case.replace("\t2\t1\t10", "\t2_0\t1\t10"),
         "non-numeric field '2_0' (line 7, column 2)"),
        (["optimal", "--case", "{path}"], lambda case: case.replace("\t1\t2\t0.01", "\t1\t2_0\t0.01"),
         "non-numeric field '2_0' (line 11, column 4)"),
        (["optimal", "--case", "bundled:ieee30", "--snr-db", "nan"], None, "snr_db must be finite"),
        (["optimal", "--case", "bundled:ieee30", "--snr-db=inf"], None, "snr_db must be finite"),
        (["optimal", "--case", "bundled:ieee30", "--snr-db=-inf"], None, "snr_db must be finite"),
        (["optimal", "--case", "bundled:ieee30", "--snr-db=4000"], None, "not finite and > 0"),
        (["optimal", "--case", "bundled:ieee30", "--snr-db=-4000"], None, "not finite and > 0"),
    ],
    ids=["csv-inf", "csv-nan", "case-reactance-nan", "case-basemva-inf", "case-basemva-text",
         "case-bus-id-inf", "case-bus-id-nan", "case-bus-id-fraction", "case-bus-type-nan",
         "case-branch-to-inf", "case-branch-status-inf", "case-branch-status-minus-one",
         "case-bus-id-underscore", "case-branch-to-underscore", "snr-nan", "snr-inf",
         "snr-minus-inf", "snr-overflow", "snr-underflow"],
)
def test_cli_rejects_non_finite_input(tmp_path, capsys, two_bus_text, argv, file_text, match):
    path = tmp_path / "input"
    if file_text is not None:
        path.write_text(file_text(two_bus_text))
    assert main([arg.format(path=path) for arg in argv] + ["--rho", "0.5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert match in err


@pytest.mark.parametrize(
    "argv, match",
    [
        (["--trials", "0"], "need at least 1000 trials"),
        (["--trials", "1"], "need at least 1000 trials"),
        (["--n-grid", "0"], "block length n must be >= 1, got 0"),
        (["--attack-var", "nan"], "sigma_yaya has non-finite entries"),
        (["--clean-var", "inf"], "sigma_yy has non-finite entries"),
        (["--attack-var=-0.5"], "sigma_yaya - sigma_yy is not positive semidefinite"),
        (["--clean-var", "0"], "sigma_yy is not positive definite"),
        (["--clean-var=-1"], "sigma_yy is not positive definite"),
        (["--clean-var", "1e-320", "--trials", "20000"],
         "the log likelihood ratio of these covariances overflows float64"),
        (["--attack-var", "1e300", "--trials", "20000"],
         "the detection statistics overflow float64"),
        (["--clean-var", "1e308", "--attack-var", "1e308"], "sigma_yaya has non-finite entries"),
    ],
    ids=["trials-zero", "trials-one", "n-grid-zero", "attack-var-nan", "clean-var-inf",
         "attack-var-negative", "clean-var-zero", "clean-var-negative", "clean-var-subnormal",
         "attack-var-1e300", "both-vars-1e308"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_detect_rejects_out_of_domain_input(capsys, argv, match):
    assert main(["detect", "--seed", "2"] + argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert match in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [["--attack-var", "1e100"], ["--clean-var", "1e-100", "--attack-var", "1"]],
    ids=["attack-var-1e100", "clean-var-1e-100"],
)
def test_cli_detect_prints_finite_numbers_for_far_apart_variances(capsys, argv):
    # the normal tail's z reaches 1e99 here, where z**4 used to overflow
    assert main(["detect", "--trials", "20000", "--seed", "3"] + argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    kl_line, header, *rows = captured.out.splitlines()
    assert header == "n,exponent,radius,beta_hat,exceed_count" and len(rows) == 3
    numbers = [float(kl_line.split(": ")[1])] + [float(c) for row in rows for c in row.split(",")]
    assert all(np.isfinite(numbers))


def test_cli_run_config_file(tmp_path, capsys):
    raw = {
        "rho": 0.8,
        "seed": 9,
        "case_path": "bundled:ieee30",
        "k_grid": [50, 100],
        "trials": 3,
        "output_dir": str(tmp_path / "out"),
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert main(["run", str(cfg)]) == 0
    csv = tmp_path / "out" / "sweep_rho0.8_snr20.csv"
    assert capsys.readouterr().out == f"wrote {csv}\n"
    manifest = json.loads((tmp_path / "out" / "sweep_rho0.8_snr20_manifest.json").read_text())
    assert manifest["config"]["seed"] == 9 and manifest["config"]["trials"] == 3
    # the config file has its own subcommand; fig1 takes no config
    with pytest.raises(SystemExit):
        main(["fig1", "--out", str(tmp_path), "--seed", "9", "--config", str(cfg)])


@pytest.mark.parametrize("knob", [["--k-grid", "50,100"], ["--formula", "paper"],
                                  ["--sampler", "empirical"]])
def test_cli_fig1_is_the_papers_figure_with_no_sweep_knobs(tmp_path, capsys, knob):
    with pytest.raises(SystemExit):
        main(["fig1", "--out", str(tmp_path), "--seed", "9"] + knob)
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_entrypoint_subprocess(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "stealthgrid.cli", "parse", "bundled:ieee30"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "buses: 30" in result.stdout


def test_default_k_grid_is_documented_shape():
    assert len(DEFAULT_K_GRID) == 12
    assert DEFAULT_K_GRID[0] == 50
    assert DEFAULT_K_GRID[-1] == 100_000
    assert all(b > a for a, b in zip(DEFAULT_K_GRID, DEFAULT_K_GRID[1:]))


# ---------------------------------------------------------------------------
# package API
# ---------------------------------------------------------------------------


def test_package_exports_exactly_the_layers_public_names():
    layers = (grid, gaussian, learning, bounds, detection, experiment)
    assert stealthgrid.__all__ == ["__version__", *(n for layer in layers for n in layer.__all__)]
    assert len(set(stealthgrid.__all__)) == len(stealthgrid.__all__)
    for layer in layers:
        for name in layer.__all__:
            assert getattr(stealthgrid, name) is getattr(layer, name), name


@pytest.mark.parametrize(
    "module, name",
    [(learning, "SampleCovariance"), (learning, "learned_attack_covariance"), (bounds, "digamma")],
)
def test_names_that_restated_another_are_gone(module, name):
    # a sample covariance is a matrix, the learned attack is optimal_attack_covariance
    # on it, and the digamma sum is bounds._digamma's
    assert name not in stealthgrid.__all__
    assert not hasattr(stealthgrid, name) and not hasattr(module, name)


def _fresh_python(code: str, **env: str) -> str:
    """Stdout of ``code`` run by a new interpreter that imports this stealthgrid.

    numpy is already loaded in the test process, so the package's startup
    default can only be seen in a child, here with no OpenBLAS or OpenMP
    setting inherited.
    """
    child = {k: v for k, v in os.environ.items() if not k.startswith(("OPENBLAS_", "OMP_"))}
    src = str(Path(stealthgrid.__file__).parents[1])
    child["PYTHONPATH"] = os.pathsep.join(filter(None, [src, child.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env={**child, **env}
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("preset, want", [(None, "4"), ("12", "12")], ids=["default", "preset"])
def test_import_sets_the_openblas_thread_timeout_unless_preset(preset, want):
    env = {} if preset is None else {"OPENBLAS_THREAD_TIMEOUT": preset}
    code = "import os, stealthgrid; print(os.environ['OPENBLAS_THREAD_TIMEOUT'])"
    assert _fresh_python(code, **env).strip() == want


_IDLE_THREADS = """
import json, os, time
import stealthgrid as sg

def others_cpu_ms():
    ms = 0.0
    for tid in os.listdir("/proc/self/task"):
        if int(tid) != os.getpid():
            with open(f"/proc/self/task/{tid}/stat") as f:
                fields = f.read().rpartition(")")[2].split()
            ms += (int(fields[11]) + int(fields[12])) * 1000 / os.sysconf("SC_CLK_TCK")
    return ms

threads = len(os.listdir("/proc/self/task"))
time.sleep(0.3)
idle = others_cpu_ms()
h = sg.build_dc_jacobian(sg.load_ieee30()).h
cov = sg.toeplitz_covariance(29, 0.5)
system = (sg.nonzero_spectrum(h, cov), sg.sigma_from_snr(h, cov, 20.0))
sg.spectral_ergodic_costs([system], [sg.TrainingConfig(50, seed=1, trials=20)])
print(json.dumps([threads, idle, others_cpu_ms()]))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads per-thread CPU from /proc")
def test_idle_blas_workers_sleep_and_the_monte_carlo_leaves_them_idle():
    # OpenBLAS's own idle timeout let its worker spin about 60 ms per process
    threads, idle_ms, after_ms = json.loads(_fresh_python(_IDLE_THREADS))
    if threads < 2:
        pytest.skip("this numpy starts no BLAS worker thread")
    assert idle_ms < 20, idle_ms
    # the package's kernels are too small for OpenBLAS to run them threaded
    assert after_ms < 20, after_ms
