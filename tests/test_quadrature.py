import math

import numpy as np
import pytest

from kittensim import (
    FockDensityMatrix,
    GaussianStateSpec,
    NumericsError,
    ValidationError,
    build_povm_stack,
    dataset_from_angle_blocks,
    fock_wavefunctions,
    gaussian_state,
    load_samples_csv,
    marginal_pdf,
    marginal_variance,
    phase_diffusion,
    sample_quadratures,
    sample_with_phase_noise,
    save_samples_csv,
    variance_from_db,
)
from kittensim.quadrature import QuadratureDataset
from kittensim.spectrum import dephased_variance


def test_wavefunctions_orthonormal():
    x = np.linspace(-10.0, 10.0, 4001)
    psi = fock_wavefunctions(15, x)
    gram = np.trapezoid(psi[:, None, :] * psi[None, :, :], x, axis=2)
    np.testing.assert_allclose(gram, np.eye(16), atol=1e-8)


def test_marginal_pdf_normalized_and_consistent(kitten):
    x = np.linspace(-8.0, 8.0, 4001)
    for theta in (0.0, 0.5, math.pi / 3):
        pdf = marginal_pdf(kitten, theta, x)
        assert np.all(pdf >= -1e-12)
        assert np.trapezoid(pdf, x) == pytest.approx(1.0, abs=1e-6)
        grid_var = np.trapezoid(pdf * x**2, x) - np.trapezoid(pdf * x, x) ** 2
        assert grid_var == pytest.approx(marginal_variance(kitten, theta), abs=1e-6)


def test_marginal_variance_angle_law(sqz_state):
    vx, vp = variance_from_db(-2.0), variance_from_db(2.4)
    for theta in (0.0, 0.3, 1.0, math.pi / 2):
        expected = vx * math.cos(theta) ** 2 + vp * math.sin(theta) ** 2
        assert marginal_variance(sqz_state, theta) == pytest.approx(expected, abs=1e-9)


def test_povm_probability_matches_marginal(kitten):
    x = np.linspace(-1.3, -0.4, 2001)
    pdf = marginal_pdf(kitten, 0.7, x)
    expected = np.trapezoid(pdf, x)
    # bins (-inf, -1.3), [-1.3, -0.4), [-0.4, inf): the finite one is index 1
    pi = build_povm_stack(np.array([0.7]), np.array([-1.3, -0.4]), 1.0, kitten.nmax)[1]
    prob = float(np.real(np.trace(kitten.entries @ pi)))
    assert prob == pytest.approx(expected, abs=1e-7)


def test_sampling_deterministic(kitten):
    a = sample_quadratures(kitten, 0.4, 500, seed=42)
    b = sample_quadratures(kitten, 0.4, 500, seed=42)
    np.testing.assert_array_equal(a, b)
    c = sample_quadratures(kitten, 0.4, 500, seed=43)
    assert not np.array_equal(a, c)


def test_sampling_matches_distribution(kitten):
    n = 100_000
    vals = sample_quadratures(kitten, 0.0, n, seed=7)
    # Kolmogorov-Smirnov distance against the model CDF
    x = np.linspace(-8.0, 8.0, 4001)
    pdf = marginal_pdf(kitten, 0.0, x)
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2 * np.diff(x))])
    cdf /= cdf[-1]
    emp = np.searchsorted(np.sort(vals), x, side="right") / n
    ks = np.max(np.abs(emp - cdf))
    assert ks < 0.01
    assert np.var(vals) == pytest.approx(marginal_variance(kitten, 0.0), rel=0.02)


def test_sampling_variance_gaussian(sqz_state):
    n = 200_000
    vals = sample_quadratures(sqz_state, math.pi / 2, n, seed=3)
    vp = variance_from_db(2.4)
    se = vp * math.sqrt(2.0 / n)
    assert abs(np.var(vals) - vp) < 3 * se


def test_phase_noise_sampling_variance_law(sqz_state):
    vx, vp = variance_from_db(-2.0), variance_from_db(2.4)
    n = 30_000
    for sigma_deg in (0.0, 10.0, 19.4, 40.0):
        sigma = math.radians(sigma_deg)
        vals = sample_with_phase_noise(sqz_state, 0.0, sigma, n, seed=int(sigma_deg * 10))
        expected = dephased_variance(0.0, sigma, vx, vp)
        se = expected * math.sqrt(2.0 / n)
        assert abs(np.var(vals) - expected) < 3 * se, f"sigma={sigma_deg}"


def test_phase_noise_sampling_matches_diffused_state(kitten):
    # sampling with per-shot phase jitter draws from the same distribution
    # as sampling the phase-diffused state
    sigma = 0.35
    n = 30_000
    jitter = sample_with_phase_noise(kitten, 0.2, sigma, n, seed=5)
    diffused = sample_quadratures(phase_diffusion(kitten, sigma), 0.2, n, seed=6)
    qs = np.linspace(0.05, 0.95, 19)
    dq = np.quantile(jitter, qs) - np.quantile(diffused, qs)
    assert np.max(np.abs(dq)) < 0.05


def test_sample_grid_mass_gate():
    # a hot thermal state leaks past a tiny grid and must be rejected
    hot = gaussian_state(GaussianStateSpec(3.0, 3.0), nmax=48)
    with pytest.raises(NumericsError):
        sample_quadratures(hot, 0.0, 10, seed=0, grid_half_range=2.0)


def test_dataset_round_trip(tmp_path, kitten):
    blocks = {
        0.0: sample_quadratures(kitten, 0.0, 200, seed=1),
        math.radians(30.0): sample_quadratures(kitten, math.radians(30.0), 200, seed=2),
    }
    ds = dataset_from_angle_blocks(blocks)
    assert sorted(ds.angle_set) == sorted(blocks)
    path = tmp_path / "samples.csv"
    save_samples_csv(ds, path)
    back = load_samples_csv(path)
    np.testing.assert_array_equal(back.values, ds.values)
    np.testing.assert_array_equal(back.angles, ds.angles)
    np.testing.assert_array_equal(
        back.for_angle(math.radians(30.0)), blocks[math.radians(30.0)]
    )


def test_dataset_missing_angle_rejected(kitten):
    ds = dataset_from_angle_blocks({0.0: sample_quadratures(kitten, 0.0, 50, seed=1)})
    with pytest.raises(ValidationError):
        ds.for_angle(0.5)


def test_dataset_requires_matching_lengths():
    with pytest.raises(ValidationError):
        QuadratureDataset(angles=np.zeros(3), values=np.zeros(4))
