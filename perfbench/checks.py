"""Correctness checks run on every benchmark op.

Each check returns a list of failure messages (empty when the output is
right). A check compares an output with a computation made apart from the
code path that produced it, or with a property the method must have. The
`kittensim` module is passed in as `ks`, so the same checks serve the timed
runs and `selftest.py`, which corrupts outputs and expects each check to trip.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# Reference bands of acceptance criteria 5 and 6 for the two shipped configs.
PIPELINE_BANDS = {
    "local": {
        "w00_corrected": (-0.164, 0.005),
        "bootstrap_failures": 0,
        "w00_std": (0.002, 0.012),
    },
    "transmitted": {
        "w00_uncorrected": (0.006, 0.015),
        "w00_corrected": (-0.028, 0.015),
        "alpha_star": (0.5, 0.9),
    },
}
MIN_PIPELINE_FIDELITY = 0.98
# A converged R rho R iterate: one more step may raise the log-likelihood by
# at most this share of |log L|. The program stops once a step gains less
# than 1e-9; a run stopped after 150 of its ~350 iterations gains 8e-9.
FIXED_POINT_REL_TOL = 2e-9
MAX_VARIANCE_Z = 4.0

MIN_SCAN_FIDELITY = 0.97
SCAN_W00_TOL = 0.03
WIGNER_CENTRE_TOL = 1e-9
WIGNER_BOUND_SLACK = 1e-12
WIGNER_MASS_TOL = 1e-6

# The fit may beat the generating parameters' cost only by roundoff.
FIT_COST_ABS_TOL = 1e-12
FIT_COST_REL_TOL = 1e-9
MAX_EXTRACT_Z = 4.0

TRAP_ETA_TOL = 0.01
TRAP_ANGLE_TOL_DEG = 0.5


def _band(failures, name, value, centre, half_width):
    if value is None or not abs(value - centre) <= half_width:
        failures.append(f"{name} = {value} outside {centre} +- {half_width}")


def _range(failures, name, value, lo, hi):
    if value is None or not lo <= value <= hi:
        failures.append(f"{name} = {value} outside [{lo}, {hi}]")


def parity_w00(entries: np.ndarray) -> float:
    """W(0,0) = (1/pi) sum_n (-1)^n rho_nn, computed here from the matrix."""
    diag = np.real(np.diag(entries))
    return float(np.sum(diag[0::2]) - np.sum(diag[1::2])) / math.pi


def validate_state(ks, label, rho) -> list[str]:
    try:
        rho.validate()
    except ks.KittenError as exc:
        return [f"{label}: {exc}"]
    return []


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def loglik_gain_of_one_step(ks, rho, dataset, recon_config, stack_cache=None) -> float:
    """Relative log-likelihood gain of one more R rho R step from `rho`.

    Uses the program's binning and POVM definition but its own iteration, so a
    reconstruction stopped short of the fixed point shows a large gain.
    `stack_cache`, a dict, keeps POVM stacks for later calls on the same grid.
    """
    binned = ks.bin_dataset(dataset, recon_config)
    key = (binned.angles.tobytes(), binned.edges.tobytes(),
           recon_config.eta_correction, recon_config.nmax)
    stack = None if stack_cache is None else stack_cache.get(key)
    if stack is None:
        stack = ks.build_povm_stack(
            binned.angles, binned.edges, recon_config.eta_correction, recon_config.nmax
        )
        if stack_cache is not None:
            stack_cache[key] = stack
    counts = binned.counts.ravel()
    active = counts > 0

    def loglik(mat):
        probs = np.maximum(np.einsum("kij,ji->k", stack, mat).real, 1e-12)
        return float(counts[active] @ np.log(probs[active])), probs

    ll0, probs = loglik(rho)
    r_op = np.einsum("k,kij->ij", counts / (counts.sum() * probs), stack)
    step = r_op @ rho @ r_op
    step = 0.5 * (step + step.conj().T)
    step /= np.trace(step).real
    ll1, _ = loglik(step)
    return (ll1 - ll0) / abs(ll0)


def per_angle_variance_z(ks, dataset, detected) -> dict[float, float]:
    """z-score of each angle's sample variance against marginal_variance.

    The standard error uses the sample fourth central moment, so it holds for
    the non-Gaussian kitten marginals too.
    """
    out = {}
    for theta in np.unique(dataset.angles):
        vals = dataset.values[dataset.angles == theta]
        dev = vals - vals.mean()
        var = float(np.mean(dev**2)) * vals.size / (vals.size - 1)
        m4 = float(np.mean(dev**4))
        se = math.sqrt(max(m4 - var**2, 1e-300) / vals.size)
        out[float(theta)] = (var - ks.marginal_variance(detected, float(theta))) / se
    return out


def check_pipeline_run(ks, run_dir, config_name: str, config, stack_cache=None) -> list[str]:
    """Checks on one pipeline run directory written for a shipped config."""
    run_dir = Path(run_dir)
    failures: list[str] = []
    try:
        metrics = json.loads((run_dir / "metrics.json").read_text())
        transmitted = ks.load_density_matrix(run_dir / "rho_transmitted.json")
        uncorrected = ks.load_density_matrix(run_dir / "rho_uncorrected.json")
        corrected = ks.load_density_matrix(run_dir / "rho_corrected.json")
        dataset = ks.load_samples_csv(run_dir / "samples.csv")
    except (OSError, ValueError, ks.KittenError) as exc:
        return [f"run directory unreadable: {exc}"]

    hd_eta = config.detection.hd_eta
    detected = ks.loss_channel(transmitted, hd_eta)
    for label, rho, eta in (
        ("uncorrected", uncorrected, 1.0),
        ("corrected", corrected, hd_eta),
    ):
        failures += validate_state(ks, label, rho)
        gain = loglik_gain_of_one_step(
            ks, rho.entries, dataset, config.reconstruction.to_config(eta), stack_cache
        )
        if not gain <= FIXED_POINT_REL_TOL:
            failures.append(
                f"{label}: one more R rho R step gains {gain:.3e} of |log L| "
                f"(> {FIXED_POINT_REL_TOL:g}), not converged"
            )
    if metrics.get("converged") is not True:
        failures.append("metrics.json reports converged != true")

    fid_unc = ks.state_fidelity(uncorrected, detected)
    fid_cor = ks.state_fidelity(corrected, transmitted)
    if not fid_unc >= MIN_PIPELINE_FIDELITY:
        failures.append(f"uncorrected fidelity with detected truth {fid_unc:.4f} < 0.98")
    if not fid_cor >= MIN_PIPELINE_FIDELITY:
        failures.append(f"corrected fidelity with transmitted truth {fid_cor:.4f} < 0.98")

    for theta, z in per_angle_variance_z(ks, dataset, detected).items():
        if not abs(z) <= MAX_VARIANCE_Z:
            failures.append(
                f"sample variance at {math.degrees(theta):.1f} deg is {z:+.2f} "
                f"standard errors from marginal_variance"
            )

    bands = PIPELINE_BANDS[config_name]
    for key, spec in bands.items():
        value = metrics.get(key)
        if key == "bootstrap_failures":
            if value != spec:
                failures.append(f"bootstrap_failures = {value}, expected {spec}")
        elif key in ("w00_std", "alpha_star"):
            _range(failures, key, value, *spec)
        else:
            _band(failures, key, value, *spec)
    return failures


def check_manifest(manifest: dict, previous: dict | None) -> list[str]:
    """Two runs of the same code, config and seed must hash identically."""
    if previous is None or previous == manifest:
        return []
    differing = sorted(
        k for k in set(manifest) | set(previous) if manifest.get(k) != previous.get(k)
    )
    return [f"manifest differs from an earlier op of the same config: {differing}"]


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def check_scan(ks, result, truth, grid, wig) -> list[str]:
    """Checks on one phase-scan reconstruction and its Wigner grid."""
    failures: list[str] = []
    if not result.converged:
        failures.append(f"reconstruction did not converge in {result.iterations_used} iterations")
    failures += validate_state(ks, "scan reconstruction", result.rho)
    fid = ks.state_fidelity(result.rho, truth)
    if not fid >= MIN_SCAN_FIDELITY:
        failures.append(f"fidelity with transmitted truth {fid:.4f} < {MIN_SCAN_FIDELITY}")
    _band(failures, "W(0,0)", result.metrics["w00"], parity_w00(truth.entries), SCAN_W00_TOL)

    wig = np.asarray(wig)
    centre = np.argmin(np.abs(grid))
    if not abs(wig[centre, centre] - ks.wigner_origin(result.rho)) <= WIGNER_CENTRE_TOL:
        failures.append("Wigner grid centre differs from wigner_origin beyond 1e-9")
    peak = float(np.max(np.abs(wig)))
    if not peak <= 1.0 / math.pi + WIGNER_BOUND_SLACK:
        failures.append(f"max |W| = {peak:.6f} exceeds 1/pi")
    step = grid[1] - grid[0]
    mass = float(np.trapezoid(np.trapezoid(wig, dx=step, axis=1), dx=step))
    if not abs(mass - 1.0) <= WIGNER_MASS_TOL:
        failures.append(f"Wigner grid integrates to {mass:.9f}, not 1 within 1e-6")
    return failures


# ---------------------------------------------------------------------------
# characterize
# ---------------------------------------------------------------------------

def reference_spectrum(freq, theta, gamma, epsilon, eta, sigma, clearance):
    """Closed-form dephased OPO variance with a clearance roll-off.

    Written here from the formulas in the `kittensim.spectrum` docstring,
    independently of `model_spectrum`: the clearance multiplies the efficiency.
    """
    omega2 = (2.0 * math.pi * np.asarray(freq, dtype=float)) ** 2
    gain = 2.0 * gamma * epsilon * eta * np.asarray(clearance, dtype=float)
    vx = 0.5 - gain / ((gamma + epsilon) ** 2 + omega2)
    vp = 0.5 + gain / ((gamma - epsilon) ** 2 + omega2)
    contrast = math.exp(-2.0 * sigma**2)
    vx_s = 0.5 * (1.0 + contrast) * vx + 0.5 * (1.0 - contrast) * vp
    vp_s = 0.5 * (1.0 + contrast) * vp + 0.5 * (1.0 - contrast) * vx
    return vx_s * math.cos(theta) ** 2 + vp_s * math.sin(theta) ** 2


def reference_cost(spectra, gamma, epsilon, eta, sigma, true_angles) -> float:
    """Sum of squared residuals of `spectra` under the reference model."""
    total = 0.0
    for nominal, measured in spectra.variances.items():
        model = reference_spectrum(
            spectra.freq, true_angles[nominal], gamma, epsilon, eta, sigma, spectra.clearance
        )
        total += float(np.sum((model - measured) ** 2))
    return total


def check_fit(spectra, fit, generating: dict) -> list[str]:
    """The fit converged and is no worse than the parameters that made the data."""
    failures: list[str] = []
    if not fit.converged:
        failures.append(
            f"joint_fit did not converge ({fit.iterations} iterations, "
            f"sigma {math.degrees(fit.params.sigma):.2f} deg, eta {fit.params.eta:.4f})"
        )
    p = fit.params
    refit = reference_cost(spectra, p.gamma, p.epsilon, p.eta, p.sigma, p.theta_true)
    if not abs(refit - fit.cost) <= FIT_COST_ABS_TOL + 1e-6 * fit.cost:
        failures.append(f"reported cost {fit.cost:.6e} != cost of the fitted parameters {refit:.6e}")
    gen_cost = reference_cost(spectra, **generating)
    if not fit.cost <= gen_cost * (1.0 + FIT_COST_REL_TOL) + FIT_COST_ABS_TOL:
        failures.append(f"fit cost {fit.cost:.6e} above the generating cost {gen_cost:.6e}")
    return failures


def check_trap_fit(spectra, fit, generating: dict) -> list[str]:
    """Noise-free data: the fit must also land on the generating parameters."""
    failures = check_fit(spectra, fit, generating)
    p = fit.params
    if not abs(p.eta - generating["eta"]) <= TRAP_ETA_TOL:
        failures.append(f"eta {p.eta:.4f} vs {generating['eta']:.4f}")
    for name, got, want in [("sigma", p.sigma, generating["sigma"])] + [
        (f"theta({math.degrees(k):.0f})", p.theta_true[k], v)
        for k, v in generating["true_angles"].items()
    ]:
        if not abs(math.degrees(got - want)) <= TRAP_ANGLE_TOL_DEG:
            failures.append(f"{name} {math.degrees(got):.2f} deg vs {math.degrees(want):.2f} deg")
    return failures


def check_traces(loaded, synthesized, sample_rate, trigger_index) -> list[str]:
    """Trace files round-trip bit for bit, with their metadata."""
    values, rate, triggers = loaded
    failures = []
    if values.shape != synthesized.shape or not np.array_equal(values, synthesized):
        failures.append("loaded trace values differ from the synthesized arrays")
    if rate != sample_rate:
        failures.append(f"loaded sample rate {rate!r} != {sample_rate!r}")
    if not np.all(np.asarray(triggers) == trigger_index):
        failures.append("loaded trigger indices differ from the saved ones")
    return failures


def check_extracted_variance(variance, predicted, n_signal, n_vacuum) -> list[str]:
    """Shot-noise-scaled variance against the spectral prediction.

    The standard error combines the sampling error of the signal variance and
    of the vacuum variance that sets the scale.
    """
    se = predicted * math.sqrt(2.0 / (n_signal - 1) + 2.0 / (n_vacuum - 1))
    z = (variance - predicted) / se
    if not abs(z) <= MAX_EXTRACT_Z:
        return [f"extracted variance {variance:.5f} is {z:+.2f} SE from {predicted:.5f}"]
    return []
