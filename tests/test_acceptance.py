"""End-to-end acceptance gates for the full simulation and analysis chain.

Each test exercises one headline capability at its stated tolerance and, on
success, prints a one-line summary through the captured-output escape hatch so
the gate results stay visible in a plain pytest run.
"""

import hashlib
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from kittensim import (
    ExperimentConfig,
    FockDensityMatrix,
    GaussianStateSpec,
    OutputsSection,
    ReconstructionConfig,
    SpectrumData,
    SpectrumModelParams,
    bootstrap_metric,
    build_mode,
    dephased_variance,
    extract_ensemble,
    gaussian_state,
    joint_fit,
    load_config,
    loss_channel,
    marginal_variance,
    mle_reconstruct,
    mode_variance_from_spectrum,
    model_spectrum,
    phase_diffusion,
    photon_subtract,
    principal_mode,
    run_pipeline,
    sample_homodyne,
    simulate_source_state,
    spectral_variances,
    state_fidelity,
    synthesize_gaussian_traces,
    variance_from_db,
    wigner,
    wigner_origin,
)

from conftest import random_density_matrix

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

ANGLES_DEG = (0.0, 30.0, 60.0, 90.0, 120.0, 150.0)
ANGLES = tuple(math.radians(a) for a in ANGLES_DEG)
HD_ETA = 0.88

GAMMA = 2 * math.pi * 8.0e6
EPSILON = 2 * math.pi * 1.74e6
KAPPA = 2 * math.pi * 30.0e6
SPECTRAL_ETA = 0.462
SIGMA_DEG = 19.4
TRUE_ANGLES_DEG = {0.0: 0.0, 30.0: 33.5, 60.0: 65.6, 90.0: 90.0}


def announce(capsys, line):
    with capsys.disabled():
        print(line, flush=True)


def test_criterion_1_round_trip(capsys):
    """Generate, detect, sample, and reconstruct a kitten state within budget."""
    t0 = time.perf_counter()
    sqz = gaussian_state(
        GaussianStateSpec(variance_from_db(-2.0), variance_from_db(2.4)), nmax=20
    )
    kitten, _ = photon_subtract(sqz)
    detected = loss_channel(kitten, HD_ETA)
    seeds = [int(np.random.SeedSequence([100, i]).generate_state(1)[0]) for i in range(6)]
    dataset = sample_homodyne(detected, ANGLES, 5000, seeds)
    # pins the draw: the pipeline's per-angle SeedSequence([seed, i]) streams;
    # re-pinned when the marginal became a per-state cosine/sine table (8026
    # values moved, each by <= 9.0e-16, with the binned counts unchanged)
    assert hashlib.sha256(dataset.values.tobytes()).hexdigest() == (
        "310210c10f263b9adaf322615a2083a395a952e90672e65025fa2a4f31cca630"
    )
    recon = mle_reconstruct(dataset, ReconstructionConfig(nmax=12))
    elapsed = time.perf_counter() - t0

    fid = state_fidelity(recon.rho, detected)
    dw = abs(recon.metrics["w00"] - wigner_origin(detected))
    assert recon.converged
    assert fid >= 0.98
    assert dw <= 0.01
    assert elapsed <= 120.0
    announce(
        capsys,
        f"PASS criterion 1: round-trip fidelity {fid:.4f} >= 0.98, "
        f"|dW(0,0)| {dw:.4f} <= 0.01, {elapsed:.1f}s <= 120s",
    )


def test_criterion_2_analytic_identities(capsys):
    """Independent code paths agree on four families of closed-form identities."""
    # (a) Hermite-function expansion of the Wigner function at the origin vs the parity sum
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(20):
        dim = int(rng.integers(3, 17))
        rho = FockDensityMatrix(nmax=dim - 1, entries=random_density_matrix(rng, dim))
        worst = max(worst, abs(float(wigner(rho, 0.0, 0.0)) - wigner_origin(rho)))
    assert worst < 1e-9

    # (b) variance of a phase-diffused state vs the closed-form smearing law
    kitten, _ = photon_subtract(
        gaussian_state(GaussianStateSpec(variance_from_db(-2.0), variance_from_db(2.4)), nmax=20)
    )
    vx = marginal_variance(kitten, 0.0)
    vp = marginal_variance(kitten, math.pi / 2)
    worst_b = 0.0
    for sigma_deg in (0.0, 10.0, 19.4, 45.0):
        sigma = math.radians(sigma_deg)
        diffused = phase_diffusion(kitten, sigma) if sigma > 0 else kitten
        for theta_deg in (0.0, 30.0, 60.0, 90.0):
            theta = math.radians(theta_deg)
            measured = marginal_variance(diffused, theta)
            closed = float(dephased_variance(theta, sigma, vx, vp))
            worst_b = max(worst_b, abs(measured - closed))
    assert worst_b < 1e-8

    # (c) channel algebra: losses compose multiplicatively, diffusion in quadrature
    composed = loss_channel(loss_channel(kitten, 0.9), 0.8)
    direct = loss_channel(kitten, 0.72)
    assert np.max(np.abs(composed.entries - direct.entries)) < 1e-10
    two_step = phase_diffusion(phase_diffusion(kitten, 0.2), 0.35)
    one_step = phase_diffusion(kitten, math.hypot(0.2, 0.35))
    assert np.max(np.abs(two_step.entries - one_step.entries)) < 1e-10

    # (d) zero-frequency sideband variances at the reference operating point
    vx0, vp0 = spectral_variances(0.0, GAMMA, EPSILON, SPECTRAL_ETA)
    assert float(vx0) == pytest.approx(0.36442072952198645, abs=1e-4)
    assert float(vp0) == pytest.approx(0.8282181098102461, abs=1e-4)

    announce(
        capsys,
        f"PASS criterion 2: parity {worst:.1e} < 1e-9, smearing {worst_b:.1e} < 1e-8, "
        f"channel algebra < 1e-10, sideband variances within 1e-4",
    )


def test_criterion_3_spectrum_fit_study(capsys):
    """The joint fit recovers (eta, sigma, angles) from noisy spectra >= 95/100 times."""
    t0 = time.perf_counter()
    freq = np.linspace(0.05e6, 10e6, 4000)
    theta_true = {
        math.radians(k): math.radians(v) for k, v in TRUE_ANGLES_DEG.items()
    }
    truth = SpectrumModelParams(
        gamma=GAMMA,
        epsilon=EPSILON,
        eta=SPECTRAL_ETA,
        sigma=math.radians(SIGMA_DEG),
        theta_true=theta_true,
    )
    nominal = sorted(theta_true)
    clean = {a: model_spectrum(truth, a, freq) for a in nominal}

    passes = 0
    for trial in range(100):
        rng = np.random.default_rng(7000 + trial)
        noisy = {
            a: clean[a] * (1.0 + 0.02 * rng.standard_normal(freq.size))
            for a in nominal
        }
        result = joint_fit(SpectrumData(freq=freq, variances=noisy), GAMMA)
        ok = (
            result.converged
            and abs(result.params.eta - SPECTRAL_ETA) <= 0.02
            and abs(math.degrees(result.params.sigma) - SIGMA_DEG) <= 1.5
            and abs(
                math.degrees(result.params.true_angle(math.radians(30.0))) - 33.5
            ) <= 1.5
            and abs(
                math.degrees(result.params.true_angle(math.radians(60.0))) - 65.6
            ) <= 1.5
        )
        passes += ok
    elapsed = time.perf_counter() - t0
    assert passes >= 95
    announce(
        capsys,
        f"PASS criterion 3: {passes}/100 noisy fits within eta +-0.02, "
        f"sigma +-1.5deg, angles +-1.5deg ({elapsed:.1f}s)",
    )


def test_criterion_4_temporal_extraction(capsys):
    """Mode-projected trace variances match the spectral prediction; the planted
    mode is recovered from raw traces."""
    fs = 500e6
    mode = build_mode(GAMMA, KAPPA, 0.5e-6, fs, window=(0.0, 1.0e-6))

    flat = lambda f: np.full_like(np.asarray(f, float), 0.5)
    vx_spec = lambda f: spectral_variances(f, GAMMA, EPSILON, SPECTRAL_ETA)[0]
    vp_spec = lambda f: spectral_variances(f, GAMMA, EPSILON, SPECTRAL_ETA)[1]
    worst = 0.0
    for spec, seed in ((flat, 400), (vx_spec, 401), (vp_spec, 402)):
        traces = synthesize_gaussian_traces(spec, 1.0e-6, fs, 10_000, seed=seed)
        mc = float(np.var(extract_ensemble(traces, mode)))
        predicted = mode_variance_from_spectrum(mode, spec)
        rel = mc / predicted - 1.0
        worst = max(worst, abs(rel))
        assert abs(rel) < 0.02

    vac_sig = synthesize_gaussian_traces(flat, 1.0e-6, fs, 5000, seed=600)
    vac_ref = synthesize_gaussian_traces(flat, 1.0e-6, fs, 5000, seed=601)
    amps = math.sqrt(16 * 0.5) * np.random.default_rng(602).standard_normal(5000)
    est = principal_mode(vac_sig + amps[:, None] * mode.weights[None, :], vac_ref)
    overlap = abs(float(est @ mode.weights))
    assert overlap >= 0.99
    announce(
        capsys,
        f"PASS criterion 4: worst variance mismatch {worst * 100:.2f}% < 2%, "
        f"planted-mode overlap {overlap:.4f} >= 0.99",
    )


def test_criterion_5_pipeline_matches_reference_numbers(capsys, tmp_path):
    """Tune the heralding purity against the local target, then hit the
    transmitted-state reference bands with the shipped configs."""
    t0 = time.perf_counter()
    local_cfg = load_config(CONFIGS / "local.ini")
    tx_cfg = load_config(CONFIGS / "transmitted.ini")
    fast_recon = replace(local_cfg.reconstruction, bootstrap_resamples=0)

    # truth-level endpoints of the purity mix fix the linear tuning model
    w1 = wigner_origin(
        simulate_source_state(replace(local_cfg.state, purity_mix=1.0))[0]
    )
    w0 = wigner_origin(
        simulate_source_state(replace(local_cfg.state, purity_mix=0.0))[0]
    )
    assert w1 == pytest.approx(-0.19572039829583635, abs=1e-9)
    assert w0 == pytest.approx(0.30809024648371064, abs=1e-9)
    slope = w1 - w0

    target = -0.164
    xi = (target - w0) / slope
    w_local = None
    for step in range(4):  # initial guess plus at most three linear corrections
        cfg = ExperimentConfig(
            state=replace(local_cfg.state, purity_mix=xi),
            channel=local_cfg.channel,
            detection=local_cfg.detection,
            sampling=local_cfg.sampling,
            reconstruction=fast_recon,
            outputs=OutputsSection(str(tmp_path / f"local_{step}")),
        )
        w_local = run_pipeline(cfg).report.metrics["w00_corrected"]
        if abs(w_local - target) <= 0.002:
            break
        xi = min(1.0, max(0.0, xi + (target - w_local) / slope))
    assert abs(w_local - target) <= 0.002
    assert w_local == pytest.approx(target, abs=0.005)
    # the tuned mix is the one shipped in both configs
    assert local_cfg.state.purity_mix == pytest.approx(xi, abs=1e-6)
    assert tx_cfg.state.purity_mix == pytest.approx(xi, abs=1e-6)

    tx_run = ExperimentConfig(
        state=replace(tx_cfg.state, purity_mix=xi),
        channel=tx_cfg.channel,
        detection=tx_cfg.detection,
        sampling=tx_cfg.sampling,
        reconstruction=replace(tx_cfg.reconstruction, bootstrap_resamples=0),
        outputs=OutputsSection(str(tmp_path / "transmitted")),
    )
    metrics = run_pipeline(tx_run).report.metrics
    elapsed = time.perf_counter() - t0

    assert metrics["converged"]
    assert metrics["w00_uncorrected"] == pytest.approx(0.006, abs=0.015)
    assert metrics["w00_corrected"] == pytest.approx(-0.028, abs=0.015)
    assert 0.5 <= metrics["alpha_star"] <= 0.9
    announce(
        capsys,
        f"PASS criterion 5: local W(0,0) {w_local:.4f} in -0.164+-0.005 "
        f"(purity mix {xi:.4f}), transmitted uncorrected "
        f"{metrics['w00_uncorrected']:.4f} in 0.006+-0.015, corrected "
        f"{metrics['w00_corrected']:.4f} in -0.028+-0.015, "
        f"alpha* {metrics['alpha_star']:.3f} in [0.5, 0.9] ({elapsed:.1f}s)",
    )


def test_criterion_6_bootstrap_uncertainty(capsys):
    """Bootstrap spread of W(0,0) sits in the expected band and shrinks ~1/sqrt(N)."""
    t0 = time.perf_counter()
    local_cfg = load_config(CONFIGS / "local.ini")
    source, _ = simulate_source_state(local_cfg.state)
    config = ReconstructionConfig(
        nmax=12, bin_width=0.1, bin_min=-6.0, bin_max=6.0, eta_correction=HD_ETA
    )
    boot5k = bootstrap_metric(
        source, config, {th: 5000 for th in ANGLES}, n_resamples=50, seed=900
    )
    boot20k = bootstrap_metric(
        source, config, {th: 20000 for th in ANGLES}, n_resamples=50, seed=901
    )
    elapsed = time.perf_counter() - t0

    assert boot5k.valid and boot5k.failures == 0
    assert boot20k.valid and boot20k.failures == 0
    assert 0.002 <= boot5k.std <= 0.012
    ratio = boot20k.std / boot5k.std
    assert 0.35 <= ratio <= 0.65
    announce(
        capsys,
        f"PASS criterion 6: bootstrap std {boot5k.std:.5f} in [0.002, 0.012], "
        f"4x data shrinks it by {ratio:.3f} (expect ~0.5) ({elapsed:.1f}s)",
    )
