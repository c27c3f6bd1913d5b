import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from kittensim import (
    ChannelSection,
    DetectionSection,
    ReconstructionConfig,
    ReconstructionSection,
    SamplingSection,
    SpectrumData,
    SpectrumModelParams,
    QuadratureDataset,
    StateSection,
    bootstrap_metric,
    load_config,
    load_density_matrix,
    load_samples_csv,
    mle_reconstruct,
    model_spectrum,
    run_pipeline,
    save_config,
    save_samples_csv,
    save_spectrum_csv,
    wigner_origin,
)
from kittensim import spectrum
from kittensim.cli import build_parser, main
from kittensim.temporal import load_trace_dir

from test_fock import NOT_A_STATE
from test_pipeline import small_config
from test_spectrum import make_data, make_params


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def make_state(capsys, tmp_path, name="rho.json", extra=()):
    path = tmp_path / name
    rc, out, _ = run_cli(
        capsys,
        "simulate-state",
        "--vx-db", "-2.0",
        "--vp-db", "2.4",
        "--nmax", "14",
        "--out", str(path),
        *extra,
    )
    assert rc == 0
    return path, json.loads(out)


def test_simulate_state_writes_state(capsys, tmp_path):
    path, summary = make_state(capsys, tmp_path)
    rho = load_density_matrix(path)
    assert rho.nmax == 13  # photon subtraction drops one Fock level
    assert summary["nmax"] == 13
    assert summary["mean_photon"] == pytest.approx(rho.mean_photon())
    assert summary["subtract_weight"] > 0.0
    assert wigner_origin(rho) < 0.0


def test_simulate_state_truncation_failure_exits_2(capsys, tmp_path):
    rc, _, err = run_cli(
        capsys,
        "simulate-state",
        "--vx-db", "-4.0",
        "--vp-db", "6.0",
        "--nmax", "5",
        "--out", str(tmp_path / "rho.json"),
    )
    assert rc == 2
    assert json.loads(err)["error"] == "numerics"


@pytest.mark.parametrize(
    "flag, value",
    [("--phase-sigma-deg", "nan"), ("--phase-sigma-deg", "inf"), ("--vx-db", "nan"),
     ("--vx-db", "4000")],
)
def test_simulate_state_rejects_non_finite_flags(capsys, tmp_path, flag, value):
    # nan phase noise used to be dropped, inf phase noise and a nan variance to give a NaN state
    out = tmp_path / "rho.json"
    rc, _, err = run_cli(capsys, "simulate-state", "--vx-db", "-2.0", "--vp-db", "2.4",
                         "--nmax", "14", flag, value, "--out", str(out))
    assert rc == 1
    assert json.loads(err)["error"] == "validation"
    assert not out.exists()


def test_usage_error_exits_1_with_json(capsys, tmp_path):
    rc, _, err = run_cli(capsys, "simulate-state", "--bogus-flag", "1")
    assert rc == 1
    assert json.loads(err)["error"] == "validation"


def test_sample_is_deterministic(capsys, tmp_path):
    rho, _ = make_state(capsys, tmp_path)
    args = ["sample", "--rho", str(rho), "--angles-deg", "0,60,120",
            "--count", "500", "--seed", "7", "--hd-eta", "0.88"]
    rc, _, _ = run_cli(capsys, *args, "--out", str(tmp_path / "a.csv"))
    assert rc == 0
    rc, _, _ = run_cli(capsys, *args, "--out", str(tmp_path / "b.csv"))
    assert rc == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_sample_echoes_the_parsed_degrees(capsys, tmp_path):
    rho, _ = make_state(capsys, tmp_path)
    rc, out, _ = run_cli(capsys, "sample", "--rho", str(rho), "--angles-deg", "0,30,12",
                         "--count", "10", "--out", str(tmp_path / "s.csv"))
    assert rc == 0
    summary = json.loads(out)
    assert summary["angles_deg"] == [0.0, 30.0, 12.0]
    assert summary["total"] == 30
    assert len(load_samples_csv(tmp_path / "s.csv")) == 30


@pytest.mark.parametrize("command", ["sample", "bootstrap"])
@pytest.mark.parametrize("angles", ["0,0,30", "0,0", "0,,30"])
def test_repeated_or_empty_angles_exit_1(capsys, tmp_path, command, angles):
    rho, _ = make_state(capsys, tmp_path)
    out = ["--out", str(tmp_path / "out")]
    rc, _, err = run_cli(capsys, command, "--rho", str(rho), "--angles-deg", angles,
                         "--count", "10", *out)
    assert rc == 1
    assert json.loads(err)["error"] == "validation"
    assert not (tmp_path / "out").exists()


def test_reconstruct_matches_library(capsys, tmp_path):
    rho, _ = make_state(capsys, tmp_path)
    samples = tmp_path / "samples.csv"
    rc, _, _ = run_cli(
        capsys, "sample", "--rho", str(rho), "--angles-deg", "0,45,90,135",
        "--count", "800", "--seed", "3", "--out", str(samples),
    )
    assert rc == 0
    out_rho = tmp_path / "recon.json"
    out_metrics = tmp_path / "metrics.json"
    rc, out, _ = run_cli(
        capsys, "reconstruct", "--samples", str(samples), "--nmax", "8",
        "--out-rho", str(out_rho), "--out-metrics", str(out_metrics),
    )
    assert rc == 0
    cli_metrics = json.loads(out)
    assert json.loads(out_metrics.read_text()) == cli_metrics

    lib = mle_reconstruct(load_samples_csv(samples), ReconstructionConfig(nmax=8))
    assert cli_metrics["w00"] == lib.metrics["w00"]
    assert cli_metrics["gap"] == lib.metrics["gap"] <= ReconstructionConfig.gap_tol
    assert np.array_equal(load_density_matrix(out_rho).entries, lib.rho.entries)


@pytest.mark.parametrize("width", ["0.07", "5", "100"])
def test_reconstruct_rejects_bin_width_that_does_not_tile(capsys, tmp_path, width):
    rho, _ = make_state(capsys, tmp_path)
    samples = tmp_path / "samples.csv"
    run_cli(capsys, "sample", "--rho", str(rho), "--angles-deg", "0,90",
            "--count", "100", "--out", str(samples))
    out_rho = tmp_path / "recon.json"
    rc, _, err = run_cli(
        capsys, "reconstruct", "--samples", str(samples), "--bin-width", width,
        "--out-rho", str(out_rho),
    )
    assert rc == 1
    error = json.loads(err)
    assert error["error"] == "validation"
    assert "does not tile" in error["message"]
    assert not out_rho.exists()


@pytest.mark.parametrize("width", ["0.001", "1e-300"])
def test_reconstruct_rejects_bin_counts_above_the_cap(capsys, tmp_path, width):
    rho, _ = make_state(capsys, tmp_path)
    samples = tmp_path / "samples.csv"
    run_cli(capsys, "sample", "--rho", str(rho), "--angles-deg", "0,90",
            "--count", "100", "--out", str(samples))
    out_rho = tmp_path / "recon.json"
    rc, _, err = run_cli(
        capsys, "reconstruct", "--samples", str(samples), "--bin-width", width,
        "--out-rho", str(out_rho),
    )
    assert rc == 1
    error = json.loads(err)
    assert error["error"] == "validation"
    assert "allowed" in error["message"]
    assert not out_rho.exists()


def _angle_table_run(capsys, tmp_path, *table):
    rho, _ = make_state(capsys, tmp_path)
    samples = tmp_path / "samples.csv"
    run_cli(capsys, "sample", "--rho", str(rho), "--angles-deg", "0,30,90",
            "--count", "1000", "--seed", "4", "--out", str(samples))
    out_rho = tmp_path / "recon.json"
    rc, _, err = run_cli(capsys, "reconstruct", "--samples", str(samples), "--nmax", "6",
                         *table, "--out-rho", str(out_rho))
    return rc, err, out_rho


def test_identity_angle_table_changes_nothing(capsys, tmp_path):
    rc, _, plain = _angle_table_run(capsys, tmp_path / "plain")
    assert rc == 0
    rc, _, table = _angle_table_run(capsys, tmp_path / "table",
                                    "--true-angles-deg", "0:0,30:30,90:90")
    assert rc == 0
    assert table.read_bytes() == plain.read_bytes()


@pytest.mark.parametrize(
    "table", ["0:nan,30:31,90:90", "0:inf,30:31,90:90", "0:0,0:5,30:31,90:90",
              "0:0,,30:31,90:90", "30", "0:0,30:31,90:90,45:80"]
)
def test_bad_angle_table_exits_1(capsys, tmp_path, table):
    # all but "30" used to run: to a NaN state, or keeping the last entry
    # for 0 deg, or skipping the empty one or the 45 deg entry with no samples
    rc, err, out_rho = _angle_table_run(capsys, tmp_path, "--true-angles-deg", table)
    assert rc == 1
    assert json.loads(err)["error"] == "validation"
    assert not out_rho.exists()


def test_reconstruct_nonconvergence_exits_2(capsys, tmp_path):
    rho, _ = make_state(capsys, tmp_path)
    samples = tmp_path / "samples.csv"
    run_cli(capsys, "sample", "--rho", str(rho), "--angles-deg", "0,90",
            "--count", "400", "--out", str(samples))
    out_rho = tmp_path / "recon.json"
    rc, out, err = run_cli(
        capsys, "reconstruct", "--samples", str(samples), "--nmax", "8",
        "--max-iters", "3", "--out-rho", str(out_rho),
    )
    assert rc == 2
    assert json.loads(err)["error"] == "numerics"
    assert json.loads(out)["converged"] is False
    assert json.loads(out)["gap"] > ReconstructionConfig.gap_tol
    assert out_rho.exists()  # best-so-far state is still written


def outlier_samples(tmp_path, x):
    """In-range vacuum data at three angles and one sample at x, as a samples file."""
    rng = np.random.default_rng(4)
    values = np.append(rng.normal(0.0, math.sqrt(0.5), 600), x)
    angles = np.append(np.repeat([0.0, math.pi / 3, 2 * math.pi / 3], 200), 0.0)
    samples = tmp_path / "outlier.csv"
    save_samples_csv(QuadratureDataset(angles, values), samples)
    return samples


@pytest.mark.parametrize("far", [False, True])
def test_reconstruct_certifies_samples_past_bin_max(capsys, tmp_path, far):
    # the open edge bin's element is nonzero (top eigenvalue 2.9e-14 at nmax 2),
    # so the exact likelihood certifies one sample past bin_max, or 500 far past it
    if far:
        samples = tmp_path / "far.csv"
        save_samples_csv(QuadratureDataset(np.zeros(500), np.full(500, 50.0)), samples)
    else:
        samples = outlier_samples(tmp_path, ReconstructionConfig.bin_max + 1.0)
    rc, out, _ = run_cli(
        capsys, "reconstruct", "--samples", str(samples), "--nmax", "2",
        "--out-rho", str(tmp_path / "recon.json"),
    )
    assert rc == 0
    record = json.loads(out)
    assert record["converged"] is True and record["floored_bins"] == 0
    assert record["out_of_range_fraction"] == (1.0 if far else 1 / 601)


# on a grid out to +-12 at nmax 2, a sample at 11 lies past the wavefunction
# cutoff (10.24), in a bin whose POVM element is zero
PAST_CUTOFF_FLAGS = ("--nmax", "2", "--bin-min", "-12", "--bin-max", "12")


def test_reconstruct_of_a_floored_bin_exits_2(capsys, tmp_path):
    # the negative gap would certify the state; the floored bin refuses it
    out_rho = tmp_path / "recon.json"
    rc, out, err = run_cli(
        capsys, "reconstruct", "--samples", str(outlier_samples(tmp_path, 11.0)),
        *PAST_CUTOFF_FLAGS, "--out-rho", str(out_rho),
    )
    assert rc == 2
    assert json.loads(err)["error"] == "numerics"
    assert json.loads(out)["converged"] is False
    assert json.loads(out)["gap"] < 0.0
    assert out_rho.exists()


def test_reconstruct_names_a_floored_bin(capsys, tmp_path):
    rc, out, err = run_cli(
        capsys, "reconstruct", "--samples", str(outlier_samples(tmp_path, 11.0)),
        *PAST_CUTOFF_FLAGS, "--out-rho", str(tmp_path / "recon.json"),
    )
    assert rc == 2
    assert json.loads(out)["floored_bins"] == 1
    error = json.loads(err)
    assert error["error"] == "numerics"
    assert error["message"].startswith("1 observed bin(s) of zero model probability")


def test_missing_input_exits_1(capsys, tmp_path):
    rc, _, err = run_cli(
        capsys, "reconstruct", "--samples", str(tmp_path / "nope.csv"),
        "--out-rho", str(tmp_path / "r.json"),
    )
    assert rc == 1
    assert json.loads(err)["error"] == "validation"


def test_wigner_grid_normalization(capsys, tmp_path):
    rho, _ = make_state(capsys, tmp_path)
    grid = tmp_path / "grid.csv"
    rc, out, _ = run_cli(
        capsys, "wigner-grid", "--in", str(rho), "--range", "4",
        "--points", "81", "--out", str(grid),
    )
    assert rc == 0
    summary = json.loads(out)
    assert summary["w_origin"] == pytest.approx(
        wigner_origin(load_density_matrix(rho)), abs=1e-12
    )
    data = np.loadtxt(grid, delimiter=",", skiprows=1)
    assert data.shape == (81 * 81, 3)
    step = 8.0 / 80
    assert data[:, 2].sum() * step * step == pytest.approx(1.0, abs=1e-3)
    assert data[:, 2].min() == pytest.approx(summary["w_min"], abs=1e-15)


@pytest.mark.parametrize(
    "flag, value",
    [("--points", "0"), ("--points", "-3"), ("--points", "1"), ("--points", "2.5"),
     ("--range", "nan"), ("--range", "inf"), ("--range", "-2"), ("--range", "0")],
)
def test_wigner_grid_rejects_bad_grid_flags(capsys, tmp_path, flag, value):
    rho, _ = make_state(capsys, tmp_path)
    grid = tmp_path / "grid.csv"
    rc, _, err = run_cli(capsys, "wigner-grid", "--in", str(rho), "--out", str(grid),
                         flag, value)
    assert rc == 1
    assert json.loads(err)["error"] == "validation"
    assert not grid.exists()


def test_synth_extract_round_trip(capsys, tmp_path):
    sig_dir = tmp_path / "sig"
    vac_dir = tmp_path / "vac"
    rc, _, _ = run_cli(
        capsys, "synth-traces", "--spectrum", "flat", "--count", "1200",
        "--seed", "9", "--out-dir", str(sig_dir),
    )
    assert rc == 0
    rc, _, _ = run_cli(
        capsys, "synth-traces", "--spectrum", "flat", "--count", "1024",
        "--seed", "10", "--out-dir", str(vac_dir),
    )
    assert rc == 0
    rc, out, _ = run_cli(
        capsys, "extract", "--traces", str(sig_dir), "--vacuum", str(vac_dir),
        "--out", str(tmp_path / "quads.csv"),
    )
    assert rc == 0
    summary = json.loads(out)
    assert summary["count"] == 1200
    assert summary["variance_snu"] == pytest.approx(0.5, abs=0.06)
    assert summary["normalization"]["scale"] == pytest.approx(1.0, abs=0.07)
    ds = load_samples_csv(tmp_path / "quads.csv")
    assert len(ds.values) == 1200


@pytest.mark.parametrize("spectrum, side", [("vx", -1.0), ("vp", 1.0)])
def test_synth_traces_draws_the_named_quadrature_spectrum(capsys, tmp_path, spectrum, side):
    # below gamma the x spectrum is squeezed under vacuum's 1/2 and the p
    # spectrum lies above it (about 0.37 and 0.80 at 1-3 MHz with the defaults)
    out_dir = tmp_path / spectrum
    rc, _, _ = run_cli(capsys, "synth-traces", "--spectrum", spectrum, "--count", "200",
                       "--seed", "3", "--out-dir", str(out_dir))
    assert rc == 0
    values, fs, _ = load_trace_dir(out_dir)
    freqs = np.fft.rfftfreq(values.shape[1], d=1.0 / fs)
    periodogram = np.mean(np.abs(np.fft.rfft(values, axis=1)) ** 2, axis=0) / values.shape[1]
    low = periodogram[(freqs > 0.0) & (freqs <= 3e6)].mean()
    assert side * (low - 0.5) > 0.1


def test_extract_rejects_vacuum_at_another_sample_rate(capsys, tmp_path):
    for name, rate in (("sig", "500"), ("vac", "250"), ("near", "500.0000000005")):
        rc, _, _ = run_cli(capsys, "synth-traces", "--spectrum", "flat", "--count", "4",
                           "--sample-rate-msps", rate, "--out-dir", str(tmp_path / name))
        assert rc == 0
    out = tmp_path / "quads.csv"
    rc, stdout, err = run_cli(capsys, "extract", "--traces", str(tmp_path / "sig"),
                              "--vacuum", str(tmp_path / "vac"), "--out", str(out))
    assert rc == 1
    assert stdout == ""
    assert json.loads(err) == {
        "error": "validation", "message": "vacuum traces use a different sample rate"
    }
    assert not out.exists()
    # a rate within the loader's 1e-9 relative tolerance passes the rate check
    # and reaches the shot-noise calibration, which needs 1000 vacuum traces
    assert load_trace_dir(tmp_path / "near")[1] == 500.0000000005e6
    rc, stdout, err = run_cli(capsys, "extract", "--traces", str(tmp_path / "sig"),
                              "--vacuum", str(tmp_path / "near"), "--out", str(out))
    assert rc == 1
    assert stdout == ""
    assert json.loads(err) == {
        "error": "validation", "message": "need >= 1000 vacuum traces, got 4"
    }
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value",
    [("--duration-us", "nan"), ("--duration-us", "inf"),
     ("--sample-rate-msps", "inf"), ("--sample-rate-msps", "nan")],
)
def test_synth_traces_rejects_non_finite_flags(capsys, tmp_path, flag, value):
    out_dir = tmp_path / "traces"
    rc, _, err = run_cli(capsys, "synth-traces", "--spectrum", "flat", "--count", "2",
                         "--out-dir", str(out_dir), flag, value)
    assert rc == 1
    assert json.loads(err)["error"] == "validation"
    assert not out_dir.exists()


def test_fit_spectrum_cli(capsys, tmp_path):
    gamma = 2 * math.pi * 8.0e6
    truth = SpectrumModelParams(
        gamma=gamma,
        epsilon=2 * math.pi * 1.74e6,
        eta=0.462,
        sigma=math.radians(19.4),
        theta_true={
            0.0: 0.0,
            math.radians(30.0): math.radians(33.5),
            math.radians(60.0): math.radians(65.6),
            math.pi / 2: math.pi / 2,
        },
    )
    freq = np.linspace(0.05e6, 10e6, 600)
    data = SpectrumData(
        freq=freq,
        variances={a: model_spectrum(truth, a, freq) for a in truth.theta_true},
    )
    spectra = tmp_path / "spectra.csv"
    save_spectrum_csv(data, spectra)
    report_path = tmp_path / "fit.json"
    rc, out, _ = run_cli(
        capsys, "fit-spectrum", "--spectra", str(spectra),
        "--gamma-mhz", "8.0", "--out", str(report_path),
    )
    assert rc == 0
    report = json.loads(out)
    assert report["converged"] is True
    assert report["eta"] == pytest.approx(0.462, abs=1e-6)
    assert report["sigma_deg"] == pytest.approx(19.4, abs=1e-4)
    assert report["theta_true_deg"]["30"] == pytest.approx(33.5, abs=1e-4)
    assert json.loads(report_path.read_text()) == report


def test_fit_spectrum_at_its_step_cap_prints_the_fit_then_exits_2(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(spectrum, "MAX_LM_STEPS", 1)
    spectra = tmp_path / "spectra.csv"
    save_spectrum_csv(make_data(make_params()), spectra)
    rc, out, err = run_cli(capsys, "fit-spectrum", "--spectra", str(spectra))
    assert rc == 2
    report = json.loads(out)
    assert report["converged"] is False
    assert report["iterations"] == 1
    assert json.loads(err) == {"error": "numerics", "message": "fit did not converge"}


@pytest.mark.parametrize("bad", ["NaN", "Infinity"])
@pytest.mark.parametrize("command", ["wigner-grid", "bootstrap"])
def test_non_finite_state_exits_1(capsys, tmp_path, command, bad):
    # wigner-grid used to exit 0, print "w_origin": NaN and write a CSV of nan
    rho = tmp_path / "rho.json"
    rho.write_text(f'{{"nmax": 1, "re": [[{bad}, 0.0], [0.0, 0.5]], "im": [[0, 0], [0, 0]]}}')
    out = tmp_path / "out.csv"
    argv = {
        "wigner-grid": ["--in", str(rho), "--out", str(out)],
        "bootstrap": ["--rho", str(rho), "--angles-deg", "0,90", "--count", "100",
                      "--nmax", "4", "--resamples", "2", "--out", str(out)],
    }[command]
    rc, stdout, err = run_cli(capsys, command, *argv)
    assert rc == 1
    assert stdout == ""
    error = json.loads(err)
    assert error["error"] == "validation"
    assert "non-finite" in error["message"]
    assert not out.exists()


@pytest.mark.parametrize("case", NOT_A_STATE)
@pytest.mark.parametrize("command", ["wigner-grid", "sample"])
def test_a_file_that_holds_no_state_exits_1(capsys, tmp_path, command, case):
    # wigner-grid used to write W(0,0) = 0.509 > 1/pi for the non-PSD matrix; sample
    # exited 2 or ended in a ValueError traceback on a broadcast im
    real, imag, message = NOT_A_STATE[case]
    rho = tmp_path / "rho.json"
    rho.write_text(json.dumps({"nmax": 2, "re": real, "im": imag}))
    out = tmp_path / "out.csv"
    argv = {
        "wigner-grid": ["--in", str(rho), "--out", str(out)],
        "sample": ["--rho", str(rho), "--angles-deg", "0,90", "--count", "10", "--out", str(out)],
    }[command]
    rc, stdout, err = run_cli(capsys, command, *argv)
    assert rc == 1
    assert stdout == ""
    error = json.loads(err)
    assert error["error"] == "validation"
    assert message in error["message"]
    assert not out.exists()


def test_bootstrap_cli(capsys, tmp_path):
    rho, _ = make_state(capsys, tmp_path)
    rc, out, _ = run_cli(
        capsys, "bootstrap", "--rho", str(rho), "--angles-deg", "0,60,120",
        "--count", "300", "--nmax", "6", "--max-iters", "1500",
        "--resamples", "3", "--seed", "5", "--out", str(tmp_path / "boot.json"),
    )
    assert rc == 0
    summary = json.loads(out)
    assert summary["metric"] == "w00"
    assert summary["std"] > 0.0
    assert summary["failures"] == 0
    assert summary["valid"] is True


def test_bootstrap_cli_prints_the_result_record(capsys, tmp_path):
    rho_path, _ = make_state(capsys, tmp_path)
    out_path = tmp_path / "boot.json"
    rc, out, _ = run_cli(
        capsys, "bootstrap", "--rho", str(rho_path), "--angles-deg", "0,90",
        "--count", "300", "--nmax", "6", "--resamples", "3", "--seed", "2",
        "--out", str(out_path),
    )
    assert rc == 0
    boot = bootstrap_metric(
        load_density_matrix(rho_path),
        ReconstructionConfig(nmax=6),
        per_angle_counts={0.0: 300, math.pi / 2: 300},
        n_resamples=3,
        seed=2,
    )
    record = asdict(boot)
    del record["values"]
    assert json.loads(out) == record
    assert set(record) == {
        "metric", "mean", "std", "n_resamples", "failures", "failure_causes", "valid"
    }
    assert out_path.read_text() == out.rstrip("\n")


def test_pipeline_and_report_cli(capsys, tmp_path):
    config = small_config(tmp_path / "run")
    ini = tmp_path / "exp.ini"
    save_config(config, ini)
    rc, out, _ = run_cli(capsys, "pipeline", "--config", str(ini))
    assert rc == 0
    report = json.loads(out)
    assert report["metrics"]["converged"] is True
    assert report["metrics"]["w00"] < 0.0

    rc, out, _ = run_cli(capsys, "report", "--run", str(tmp_path / "run"))
    assert rc == 0
    assert json.loads(out)["hashes_ok"] is True
    # the certified gaps of the corrected and the uncorrected reconstruction
    metrics = json.loads(out)["metrics"]
    assert metrics["gap"] <= config.reconstruction.gap_tol
    assert metrics["gap_uncorrected"] <= config.reconstruction.gap_tol

    target = tmp_path / "run" / "metrics.json"
    target.write_text(target.read_text().replace("{", "{ ", 1))
    rc, _, err = run_cli(capsys, "report", "--run", str(tmp_path / "run"))
    assert rc == 1
    assert json.loads(err)["error"] == "validation"


def test_report_config_names_the_directory_the_run_wrote(capsys, tmp_path):
    # report.json kept the INI directory in its config and --out in a second key
    ini = tmp_path / "exp.ini"
    save_config(small_config(tmp_path / "from_ini"), ini)
    out = tmp_path / "from_flag"
    rc, stdout, _ = run_cli(capsys, "pipeline", "--config", str(ini), "--out", str(out))
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report == json.loads(stdout)
    assert report["config"]["outputs"] == {"directory": str(out)}
    assert "out_dir" not in report
    assert not (tmp_path / "from_ini").exists()


def test_pipeline_config_without_a_state_key_exits_1(capsys, tmp_path):
    # it used to end in StateSection's raw TypeError traceback
    ini = tmp_path / "exp.ini"
    save_config(small_config(tmp_path / "run"), ini)
    ini.write_text(ini.read_text().replace("v_x_db = -2.0\n", ""))
    rc, stdout, err = run_cli(capsys, "pipeline", "--config", str(ini))
    assert rc == 1
    assert stdout == ""
    assert json.loads(err) == {"error": "validation", "message": "[state] missing key 'v_x_db'"}
    assert not (tmp_path / "run").exists()


def test_pipeline_that_stops_short_prints_its_report_and_names_the_gap(capsys, tmp_path):
    ini = tmp_path / "exp.ini"
    save_config(small_config(tmp_path / "run", reconstruction=ReconstructionSection(
        nmax=8, max_iters=1, bootstrap_resamples=0)), ini)
    rc, out, err = run_cli(capsys, "pipeline", "--config", str(ini))
    assert rc == 2
    metrics = json.loads(out)["metrics"]
    assert metrics["converged"] is False
    assert metrics["floored_bins"] == 0 and metrics["iterations"] == 1
    error = json.loads(err)
    assert error["error"] == "numerics"
    assert error["message"] == (
        f"reconstruction did not converge: gap {metrics['gap']:.6g} above gap_tol "
        f"{ReconstructionConfig.gap_tol:g} after 1 iterations"
    )


def test_report_rejects_a_manifest_without_metrics(capsys, tmp_path):
    # a manifest that does not hash metrics.json vouches for no metric
    out = tmp_path / "run"
    run_pipeline(small_config(out))
    report = json.loads((out / "report.json").read_text())
    report["manifest"] = {}
    (out / "report.json").write_text(json.dumps(report))
    (out / "metrics.json").write_text("not json")
    rc, _, err = run_cli(capsys, "report", "--run", str(out))
    assert rc == 1
    assert json.loads(err)["error"] == "validation"


def test_report_rejects_a_manifest_that_is_no_object(capsys, tmp_path):
    # a string manifest "contains" the name metrics.json but maps no name to a hash
    out = tmp_path / "run"
    run_pipeline(small_config(out))
    report = json.loads((out / "report.json").read_text())
    report["manifest"] = "metrics.json"
    (out / "report.json").write_text(json.dumps(report))
    rc, _, err = run_cli(capsys, "report", "--run", str(out))
    assert rc == 1
    assert "the manifest does not list metrics.json" in json.loads(err)["message"]


@pytest.mark.parametrize("name", ["report.json", "metrics.json"])
@pytest.mark.parametrize(
    "text, message",
    [("garbage", "is not valid JSON"), ("[]", "does not hold a JSON object")],
    ids=["garbage", "array"],
)
def test_report_rejects_a_run_file_that_is_no_json_object(
    capsys, tmp_path, name, text, message
):
    # metrics.json is read once its hash checks out, so the manifest vouches for the bad text
    out = tmp_path / "run"
    run_pipeline(small_config(out))
    report = json.loads((out / "report.json").read_text())
    report["manifest"]["metrics.json"] = hashlib.sha256(text.encode()).hexdigest()
    (out / "report.json").write_text(json.dumps(report))
    (out / name).write_text(text)
    rc, _, err = run_cli(capsys, "report", "--run", str(out))
    assert rc == 1
    error = json.loads(err)
    assert error["error"] == "validation"
    assert error["message"].startswith(f"{out / name} {message}")


def test_pipeline_seed_override_changes_samples(capsys, tmp_path):
    config = small_config(tmp_path / "run")
    ini = tmp_path / "exp.ini"
    save_config(config, ini)
    rc, out_a, _ = run_cli(
        capsys, "pipeline", "--config", str(ini), "--out", str(tmp_path / "a")
    )
    assert rc == 0
    rc, out_b, _ = run_cli(
        capsys, "pipeline", "--config", str(ini), "--out", str(tmp_path / "b"),
        "--seed", "1234",
    )
    assert rc == 0
    w_a = json.loads(out_a)["metrics"]["w00"]
    w_b = json.loads(out_b)["metrics"]["w00"]
    assert w_a != w_b
    assert w_b == pytest.approx(w_a, abs=0.1)  # same physics, different draw


@pytest.mark.parametrize("command", ["sample", "bootstrap", "synth-traces", "pipeline", "config"])
def test_a_negative_seed_exits_1(capsys, tmp_path, command):
    # each used to end in numpy's raw ValueError traceback
    rho, _ = make_state(capsys, tmp_path)
    ini = tmp_path / "exp.ini"
    save_config(small_config(tmp_path / "run"), ini)
    out = tmp_path / "out"
    argv = {
        "sample": ["sample", "--rho", str(rho), "--angles-deg", "0,90", "--count", "10",
                   "--seed", "-1", "--out", str(out)],
        "bootstrap": ["bootstrap", "--rho", str(rho), "--angles-deg", "0,90", "--count", "10",
                      "--resamples", "2", "--seed", "-3", "--out", str(out)],
        "synth-traces": ["synth-traces", "--spectrum", "flat", "--count", "2",
                         "--seed", "-1", "--out-dir", str(out)],
        "pipeline": ["pipeline", "--config", str(ini), "--out", str(out), "--seed", "-7"],
        "config": ["pipeline", "--config", str(ini), "--out", str(out)],
    }[command]
    if command == "config":
        ini.write_text(ini.read_text().replace("seed = 42", "seed = -1"))
        assert "seed = -1" in ini.read_text()
    rc, stdout, err = run_cli(capsys, *argv)
    assert rc == 1
    assert stdout == ""
    error = json.loads(err)
    assert error["error"] == "validation"
    assert "seed must be >= 0" in error["message"]
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--kappa-mhz", "0"), ("--gamma-mhz", "0"), ("--gamma-mhz", "-8"), ("--kappa-mhz", "inf"),
])
def test_extract_rejects_bad_mode_rates(capsys, tmp_path, flag, value):
    # a ZeroDivisionError traceback, a "window keeps only -1.1e22" numerics error and a
    # "must be finite" message about angles came before the rule was checked
    rc, _, _ = run_cli(capsys, "synth-traces", "--spectrum", "flat", "--count", "4",
                       "--out-dir", str(tmp_path / "sig"))
    assert rc == 0
    out = tmp_path / "quads.csv"
    rc, stdout, err = run_cli(capsys, "extract", "--traces", str(tmp_path / "sig"),
                              flag, value, "--out", str(out))
    assert rc == 1
    assert stdout == ""
    assert json.loads(err) == {
        "error": "validation", "message": "mode function needs finite kappa > gamma > 0"
    }
    assert not out.exists()


@pytest.mark.parametrize("text", [
    "[state]\nv_x_db = -1.0\nv_x_db = -2.0\n",
    "[state]\nv_x_db\n",
    "v_x_db = -1.0\n[state]\n",
], ids=["duplicate-key", "no-equals-sign", "key-before-any-section"])
def test_a_malformed_config_exits_1(capsys, tmp_path, text):
    # each ended in a raw configparser traceback
    ini = tmp_path / "exp.ini"
    ini.write_text(text)
    out = tmp_path / "out"
    rc, stdout, err = run_cli(capsys, "pipeline", "--config", str(ini), "--out", str(out))
    assert rc == 1
    assert stdout == ""
    error = json.loads(err)
    assert error["error"] == "validation"
    assert error["message"].startswith(f"{ini}: malformed config (")
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ("[DEFAULT]\nnmax = 9\n\n[state]\nv_x_db = -2.0\nv_p_db = 2.4\n",
     "unknown config section [DEFAULT]"),
    ("[state]\nv_x_db = 4000\nv_p_db = 2.4\n", "4000.0 dB is too large a variance"),
    ("[state]\nv_x_db = -3.0\nv_p_db = 1.0\n", "violates the uncertainty bound 1/4"),
], ids=["default-section", "overflowing-db", "below-uncertainty"])
def test_a_config_that_describes_no_run_exits_1_and_writes_nothing(capsys, tmp_path, text,
                                                                   message):
    # [DEFAULT] ran with its keys copied into every section, 4000 dB ended in a raw
    # OverflowError, and the state below the bound failed after the run directory was made
    ini = tmp_path / "exp.ini"
    ini.write_text(text)
    out = tmp_path / "out"
    rc, stdout, err = run_cli(capsys, "pipeline", "--config", str(ini), "--out", str(out))
    assert rc == 1
    assert stdout == ""
    error = json.loads(err)
    assert error["error"] == "validation"
    assert message in error["message"]
    assert not out.exists()


def test_extract_with_a_vanishing_gamma_exits_2(capsys, tmp_path):
    # the tail fraction of the window was NaN, and a flat mode came back
    rc, _, _ = run_cli(capsys, "synth-traces", "--spectrum", "flat", "--count", "4",
                       "--out-dir", str(tmp_path / "sig"))
    assert rc == 0
    out = tmp_path / "quads.csv"
    rc, stdout, err = run_cli(capsys, "extract", "--traces", str(tmp_path / "sig"),
                              "--gamma-mhz", "1e-110", "--out", str(out))
    assert rc == 2
    assert stdout == ""
    error = json.loads(err)
    assert error["error"] == "numerics"
    assert "tail fraction 1.00e+00 > 1e-03" in error["message"]
    assert not out.exists()


def test_reconstruction_flag_defaults_match_config_section():
    section = asdict(ReconstructionSection())
    resamples = section.pop("bootstrap_resamples")
    state, channel = StateSection(v_x_db=0.0, v_p_db=0.0), ChannelSection()
    eta = ReconstructionConfig().eta_correction
    for argv, expected in (
        (["reconstruct", "--samples", "s.csv", "--out-rho", "r.json"],
         {**section, "eta": eta}),
        (["bootstrap", "--rho", "r.json", "--angles-deg", "0", "--count", "10"],
         {**section, "eta": eta, "resamples": resamples}),
        (["simulate-state", "--vx-db", "-2", "--vp-db", "2.4", "--out", "r.json"],
         {"no_subtract": not state.subtract, "purity_mix": state.purity_mix,
          "nmax": state.nmax, "link_eta": channel.link_eta,
          "phase_sigma_deg": channel.phase_sigma_deg}),
        (["sample", "--rho", "r.json", "--angles-deg", "0", "--count", "10", "--out", "s.csv"],
         {"hd_eta": DetectionSection().hd_eta, "seed": SamplingSection().seed}),
    ):
        args = vars(build_parser().parse_args(argv))
        assert {key: args[key] for key in expected} == expected


@pytest.mark.parametrize("hd_eta", [0.88, 1.0])
def test_cli_stages_reproduce_the_pipeline(capsys, tmp_path, hd_eta):
    config = small_config(tmp_path / "run", detection=DetectionSection(hd_eta=hd_eta))
    ini = tmp_path / "exp.ini"
    save_config(config, ini)
    rc, _, _ = run_cli(capsys, "pipeline", "--config", str(ini))
    assert rc == 0

    state, channel, sampling = config.state, config.channel, config.sampling
    recon = config.reconstruction
    stages = [
        ("simulate-state", "--vx-db", state.v_x_db, "--vp-db", state.v_p_db,
         "--purity-mix", state.purity_mix, "--nmax", state.nmax,
         "--link-eta", channel.link_eta, "--phase-sigma-deg", channel.phase_sigma_deg,
         "--out", tmp_path / "rho_transmitted.json"),
        ("sample", "--rho", tmp_path / "rho_transmitted.json",
         "--angles-deg", ",".join(map(repr, sampling.angles_deg)),
         "--count", sampling.per_angle_count, "--seed", sampling.seed, "--hd-eta", hd_eta,
         "--out", tmp_path / "samples.csv"),
        ("reconstruct", "--samples", tmp_path / "samples.csv", "--nmax", recon.nmax,
         "--bin-width", recon.bin_width, "--bin-min", recon.bin_min,
         "--bin-max", recon.bin_max, "--max-iters", recon.max_iters,
         "--gap-tol", recon.gap_tol, "--out-rho", tmp_path / "rho_uncorrected.json"),
    ]
    for argv in stages:
        rc, _, _ = run_cli(capsys, *map(str, argv))
        assert rc == 0
    for name in ("rho_transmitted.json", "samples.csv", "rho_uncorrected.json"):
        assert (tmp_path / name).read_bytes() == (tmp_path / "run" / name).read_bytes(), name


def cli_env(**extra):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return dict(os.environ, PYTHONPATH=path, **extra)


@pytest.mark.parametrize("name", ["local", "transmitted"])
def test_pipeline_artifacts_do_not_depend_on_blas_threads(tmp_path, name):
    shipped = Path(__file__).resolve().parents[1] / "configs" / f"{name}.ini"
    config = load_config(shipped)
    ini = tmp_path / "run.ini"
    save_config(
        replace(config, reconstruction=replace(config.reconstruction, bootstrap_resamples=2)),
        ini,
    )
    runs = {}
    for threads in ("1", "2"):
        runs[threads] = tmp_path / f"threads-{threads}"
        subprocess.run(
            [sys.executable, "-m", "kittensim.cli", "pipeline", "--config", str(ini),
             "--out", str(runs[threads])],
            env=cli_env(OPENBLAS_NUM_THREADS=threads), capture_output=True, check=True,
        )
    artifacts = sorted(p.name for p in runs["1"].iterdir() if p.name != "report.json")
    assert len(artifacts) == 6
    for artifact in artifacts:
        one = (runs["1"] / artifact).read_bytes()
        assert one == (runs["2"] / artifact).read_bytes(), artifact


def test_cli_pipeline_leaves_numpy_ma_unloaded(tmp_path):
    # numpy.ma costs about 20 ms of import in each CLI process; a plain
    # np.unique call pulls it in
    ini = tmp_path / "run.ini"
    save_config(small_config(tmp_path / "run", reconstruction=ReconstructionSection(
        nmax=8, max_iters=600, bootstrap_resamples=2)), ini)
    code = (
        "import sys; from kittensim.cli import main; "
        f"rc = main(['pipeline', '--config', {str(ini)!r}]); "
        "print(rc, 'numpy.ma' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=cli_env(), capture_output=True, text=True, check=True
    )
    assert out.stdout.split()[-2:] == ["0", "False"]


def test_cli_import_loads_no_scipy():
    # the package's only dependency is numpy; a fresh interpreter shows what
    # `import kittensim.cli` pulls in
    code = (
        "import sys, kittensim.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=cli_env(), capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
