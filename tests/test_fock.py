import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from kittensim import (
    FockDensityMatrix,
    GaussianStateSpec,
    NumericsError,
    ValidationError,
    apply_link,
    best_cat_fidelity,
    cat_fidelity,
    cat_state,
    db_from_variance,
    density_matrix_from_json,
    density_matrix_to_json,
    fidelity,
    gaussian_state,
    load_config,
    load_density_matrix,
    loss_adjoint,
    loss_channel,
    mle_reconstruct,
    phase_diffusion,
    photon_subtract,
    save_density_matrix,
    simulate_source_state,
    state_fidelity,
    variance_from_db,
    wigner,
    wigner_origin,
)
from kittensim.fock import _loss_amplitudes
from kittensim.pipeline import detect_and_sample
from kittensim.quadrature import marginal_variance

from conftest import random_density_matrix
from test_temporal import traced_peak


def test_variance_db_conversion():
    assert variance_from_db(0.0) == 0.5
    assert variance_from_db(-2.0) == pytest.approx(0.3154786722400966, rel=1e-15)
    assert variance_from_db(2.4) == pytest.approx(0.8689004143746877, rel=1e-15)
    for db in (-6.0, -2.0, 0.0, 2.4, 5.0):
        assert db_from_variance(variance_from_db(db)) == pytest.approx(db, abs=1e-12)


def test_gaussian_state_vacuum_limit():
    rho = gaussian_state(GaussianStateSpec(0.5, 0.5), nmax=10)
    assert rho.entries[0, 0].real == pytest.approx(1.0, abs=1e-12)
    assert rho.mean_photon() == pytest.approx(0.0, abs=1e-12)


def test_gaussian_state_matches_requested_variances(sqz_state):
    assert marginal_variance(sqz_state, 0.0) == pytest.approx(
        variance_from_db(-2.0), abs=1e-9
    )
    assert marginal_variance(sqz_state, math.pi / 2) == pytest.approx(
        variance_from_db(2.4), abs=1e-9
    )
    assert np.trace(sqz_state.entries).real == pytest.approx(1.0, abs=1e-12)
    # <n> = (Vx + Vp - 1) / 2 for a zero-mean Gaussian state
    vx, vp = variance_from_db(-2.0), variance_from_db(2.4)
    assert sqz_state.mean_photon() == pytest.approx((vx + vp - 1) / 2, abs=1e-9)
    evals = np.linalg.eigvalsh(sqz_state.entries)
    assert evals.min() > -1e-12


def test_gaussian_state_rejects_uncertainty_violation():
    with pytest.raises(ValidationError):
        GaussianStateSpec(0.3, 0.3)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_variance_or_phase_spread_rejected(kitten, value):
    # these used to build a NaN state
    with pytest.raises(ValidationError):
        GaussianStateSpec(value, 0.5)
    with pytest.raises(ValidationError):
        GaussianStateSpec(0.5, value)
    with pytest.raises(ValidationError):
        phase_diffusion(kitten, value)


def test_gaussian_state_truncation_gate():
    with pytest.raises(NumericsError):
        gaussian_state(GaussianStateSpec(variance_from_db(-4.0), variance_from_db(6.0)), nmax=5)


@pytest.mark.parametrize("r", [0.6, -0.6])
def test_gaussian_state_matches_squeezed_vacuum_closed_form(r):
    # S(r)|0> = sum_n (-tanh r)^n sqrt((2n)!) / (2^n n! sqrt(cosh r)) |2n>
    nmax = 24
    spec = GaussianStateSpec(0.5 * math.exp(-2 * r), 0.5 * math.exp(2 * r))
    rho = gaussian_state(spec, nmax)
    amp = np.zeros(nmax + 1)
    for n in range(nmax // 2 + 1):
        amp[2 * n] = (-math.tanh(r)) ** n * math.sqrt(math.factorial(2 * n)) / (
            2**n * math.factorial(n) * math.sqrt(math.cosh(r))
        )
    expected = np.outer(amp, amp) / (amp @ amp)
    assert np.max(np.abs(rho.entries - expected)) <= 1e-12


def test_loss_amplitudes_match_binomial():
    eta = 0.88
    for k in range(21):
        expected = [
            math.sqrt(math.comb(n, k) * eta ** (n - k) * (1 - eta) ** k) for n in range(k, 21)
        ]
        np.testing.assert_allclose(_loss_amplitudes(21, eta, k), expected, rtol=1e-15, atol=0)


def test_photon_subtract_weight_is_mean_photon(sqz_state):
    rho, weight = photon_subtract(sqz_state)
    assert weight == pytest.approx(sqz_state.mean_photon(), abs=1e-12)
    assert rho.dim == sqz_state.dim - 1
    assert np.trace(rho.entries).real == pytest.approx(1.0, abs=1e-12)


def test_photon_subtract_vacuum_rejected():
    vac = gaussian_state(GaussianStateSpec(0.5, 0.5), nmax=8)
    with pytest.raises(ValidationError):
        photon_subtract(vac)


def test_subtracted_pure_squeezed_vacuum_reaches_wigner_bound():
    # photon subtraction from pure squeezed vacuum gives a squeezed single
    # photon whose Wigner function attains the -1/pi bound at the origin
    spec = GaussianStateSpec(0.3, 0.25 / 0.3)
    rho, _ = photon_subtract(gaussian_state(spec, nmax=20))
    assert wigner_origin(rho) == pytest.approx(-1.0 / math.pi, abs=1e-9)


def test_loss_channel_identity_and_composition(kitten):
    same = loss_channel(kitten, 1.0)
    np.testing.assert_allclose(same.entries, kitten.entries, atol=1e-14)
    a = loss_channel(loss_channel(kitten, 0.9), 0.8)
    b = loss_channel(kitten, 0.72)
    np.testing.assert_allclose(a.entries, b.entries, atol=1e-10)


def test_loss_channel_preserves_state_properties():
    rng = np.random.default_rng(11)
    for _ in range(5):
        rho = FockDensityMatrix(nmax=7, entries=random_density_matrix(rng, 8))
        out = loss_channel(rho, 0.6)
        assert np.trace(out.entries).real == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(out.entries, out.entries.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh(out.entries).min() > -1e-10


def test_loss_channel_vacuum_fixed_point():
    vac = gaussian_state(GaussianStateSpec(0.5, 0.5), nmax=8)
    out = loss_channel(vac, 0.3)
    np.testing.assert_allclose(out.entries, vac.entries, atol=1e-12)


def test_phase_diffusion_semigroup(kitten):
    s1, s2 = 0.2, 0.35
    a = phase_diffusion(phase_diffusion(kitten, s1), s2)
    b = phase_diffusion(kitten, math.hypot(s1, s2))
    np.testing.assert_allclose(a.entries, b.entries, atol=1e-10)


def test_phase_diffusion_preserves_diagonal(kitten):
    out = phase_diffusion(kitten, 0.7)
    np.testing.assert_allclose(
        np.diag(out.entries).real, np.diag(kitten.entries).real, atol=1e-14
    )
    assert wigner_origin(out) == pytest.approx(wigner_origin(kitten), abs=1e-12)


def test_phase_diffusion_commutes_with_loss(kitten):
    a = phase_diffusion(loss_channel(kitten, 0.7), 0.4)
    b = loss_channel(phase_diffusion(kitten, 0.4), 0.7)
    np.testing.assert_allclose(a.entries, b.entries, atol=1e-12)


def test_wigner_origin_matches_parity_sum():
    rng = np.random.default_rng(23)
    for _ in range(20):
        dim = int(rng.integers(3, 14))
        rho = FockDensityMatrix(nmax=dim - 1, entries=random_density_matrix(rng, dim))
        parity = sum(
            (-1) ** n * rho.entries[n, n].real for n in range(dim)
        ) / math.pi
        assert wigner(rho, 0.0, 0.0) == pytest.approx(parity, abs=1e-9)
        assert wigner_origin(rho) == pytest.approx(parity, abs=1e-12)


def test_wigner_damped_single_photon():
    one = np.zeros((5, 5), dtype=complex)
    one[1, 1] = 1.0
    rho = loss_channel(FockDensityMatrix(nmax=4, entries=one), 0.88)
    # closed form for a damped |1>: W(0,0) = (1 - 2 eta) / pi
    assert wigner_origin(rho) == pytest.approx((1 - 2 * 0.88) / math.pi, abs=1e-12)
    assert wigner_origin(rho) == pytest.approx(-0.24191551349968093, abs=1e-12)


def test_wigner_gaussian_peak(sqz_state):
    vx, vp = variance_from_db(-2.0), variance_from_db(2.4)
    assert wigner(sqz_state, 0.0, 0.0) == pytest.approx(
        1.0 / (2 * math.pi * math.sqrt(vx * vp)), abs=1e-8
    )


def test_wigner_coherent_state_closed_form():
    # off-diagonal terms with a phase: W of |alpha> is a unit Gaussian centred
    # on (sqrt(2) Re alpha, sqrt(2) Im alpha)
    ax = np.linspace(-4.0, 4.0, 41)
    x, p = np.meshgrid(ax, ax, indexing="ij")
    n = np.arange(31)
    for alpha in (0.8 + 0.5j, -1.1 + 0.7j):
        log_norm = np.array([0.5 * math.lgamma(k + 1.0) for k in n])
        amps = np.exp(-0.5 * abs(alpha) ** 2 - log_norm) * alpha**n
        rho = FockDensityMatrix(nmax=30, entries=np.outer(amps, amps.conj()))
        x0, p0 = math.sqrt(2.0) * alpha.real, math.sqrt(2.0) * alpha.imag
        expected = np.exp(-((x - x0) ** 2) - (p - p0) ** 2) / math.pi
        np.testing.assert_allclose(wigner(rho, x, p), expected, rtol=0, atol=1e-12)
        assert wigner(rho, x0, p0) == pytest.approx(1.0 / math.pi, abs=1e-12)


def reference_wigner(rho, x, p):
    """W(x, p) by the Fock-basis row recurrence (QuTiP's iterative method).

    W_0n = 2 alpha W_0,n-1 / sqrt(n) and
    W_mn = (2 conj(alpha) W_m-1,n - sqrt(m) W_m-1,n-1) / sqrt(m) along each
    row, alpha = (x + i p)/sqrt(2). Run in extended precision: in float64 the
    recurrence itself drifts by up to ~2e-12 at nmax 30.
    """
    x_arr, p_arr = np.broadcast_arrays(np.asarray(x, np.longdouble), np.asarray(p, np.longdouble))
    alpha = (x_arr + 1j * p_arr) / np.sqrt(np.longdouble(2))
    ent = rho.entries.astype(np.clongdouble)
    d = rho.dim
    row = [np.exp(-(x_arr**2 + p_arr**2)) / np.longdouble(math.pi) + 0j]
    total = ent[0, 0].real * row[0].real
    for n in range(1, d):
        row.append(2 * alpha * row[n - 1] / np.sqrt(np.longdouble(n)))
        total += 2 * (ent[0, n] * row[n]).real
    for m in range(1, d):
        prev = row[m]
        root_m = np.sqrt(np.longdouble(m))
        row[m] = (2 * alpha.conj() * prev - root_m * row[m - 1]) / root_m
        total += ent[m, m].real * row[m].real
        for n in range(m + 1, d):
            nxt = (2 * alpha * row[n - 1] - root_m * prev) / np.sqrt(np.longdouble(n))
            prev, row[n] = row[n], nxt
            total += 2 * (ent[m, n] * row[n]).real
    return total.astype(float)


_OFF_CENTRE_X = 0.37 + np.linspace(0.0, 3.1, 23) ** 1.3
_OFF_CENTRE_P = -1.13 + np.linspace(0.0, 4.3, 19) ** 1.1


@pytest.mark.parametrize("nmax", [0, 1, 2, 12, 30])
@pytest.mark.parametrize(
    "x, p",
    [
        (0.37, -1.21),
        (np.linspace(-3.0, 3.0, 57), np.linspace(2.5, -1.5, 57)),
        (np.linspace(-4.0, 4.0, 41)[:, None], np.linspace(-4.0, 4.0, 33)[None, :]),
        (_OFF_CENTRE_X[:, None], _OFF_CENTRE_P[None, :]),
    ],
    ids=["scalar", "1d", "broadcast", "off-centre"],
)
def test_wigner_matches_row_recurrence(nmax, x, p):
    rng = np.random.default_rng(100 + nmax)
    rho = FockDensityMatrix(nmax=nmax, entries=random_density_matrix(rng, nmax + 1))
    w = wigner(rho, x, p)
    expected = reference_wigner(rho, x, p)
    if np.ndim(x) == 0:
        assert type(w) is float
    assert np.shape(w) == np.shape(expected)
    assert np.max(np.abs(w - expected)) <= 1e-13


def test_off_centre_grid_repeats_no_radius():
    r2 = _OFF_CENTRE_X[:, None] ** 2 + _OFF_CENTRE_P[None, :] ** 2
    assert np.unique(r2).size == r2.size


def test_wigner_grid_normalization(kitten):
    ax = np.linspace(-5.0, 5.0, 161)
    x, p = np.meshgrid(ax, ax, indexing="ij")
    w = wigner(kitten, x, p)
    total = np.trapezoid(np.trapezoid(w, ax, axis=1), ax)
    assert total == pytest.approx(1.0, abs=1e-4)
    assert np.all(np.abs(w) <= 1.0 / math.pi + 1e-9)


def test_wigner_matches_row_recurrence_past_the_int64_range():
    # dim 41: the integer coefficients of (z - 1)^m (1 + z)^n outgrow int64 past dim 32
    rng = np.random.default_rng(140)
    rho = FockDensityMatrix(nmax=40, entries=random_density_matrix(rng, 41))
    for x, p in [
        (np.linspace(-3.0, 3.0, 57), np.linspace(2.5, -1.5, 57)),
        (np.linspace(-4.0, 4.0, 41)[:, None], np.linspace(-4.0, 4.0, 33)[None, :]),
    ]:
        assert np.max(np.abs(wigner(rho, x, p) - reference_wigner(rho, x, p))) <= 1e-13


def test_wigner_agrees_across_point_layouts(kitten):
    # the grid of distinct values and the per-point sum give the same numbers
    ax = np.linspace(-6.0, 6.0, 201)
    x, p = np.meshgrid(ax, ax)
    w = wigner(kitten, x, p)
    xi, pi = np.meshgrid(ax, ax, indexing="ij")
    layouts = {
        "ij meshgrid": wigner(kitten, xi, pi).T,
        "broadcast axes": wigner(kitten, ax[None, :], ax[:, None]),
        "flat pairs": wigner(kitten, x.ravel(), p.ravel()).reshape(x.shape),
    }
    for name, other in layouts.items():
        assert other.shape == w.shape, name
        assert np.max(np.abs(other - w)) <= 1e-15, name
    every_seventh = wigner(kitten, x.ravel()[::7], p.ravel()[::7])  # a per-point sum
    assert np.max(np.abs(every_seventh - w.ravel()[::7])) <= 1e-15


def test_wigner_grid_is_held_about_once():
    rng = np.random.default_rng(12)
    rho = FockDensityMatrix(nmax=12, entries=random_density_matrix(rng, 13))
    ax = np.linspace(-6.0, 6.0, 201)
    x, p = np.meshgrid(ax, ax)
    wigner(rho, 0.0, 0.0)  # the per-dimension table is built once, outside the count
    w, peak = traced_peak(lambda: wigner(rho, x, p))
    assert w.shape == (201, 201)
    assert peak <= 2e6  # the output is 0.32 MB


def test_wigner_on_scattered_points_builds_no_pairwise_grid():
    rng = np.random.default_rng(13)
    rho = FockDensityMatrix(nmax=12, entries=random_density_matrix(rng, 13))
    x, p = rng.uniform(-4.0, 4.0, (2, 4000))
    wigner(rho, 0.0, 0.0)
    w, peak = traced_peak(lambda: wigner(rho, x, p))
    assert w.shape == (4000,)
    assert peak <= 3e6  # a 4000 x 4000 grid of distinct pairs would be 128 MB


def test_cat_state_norm_and_mean_photon():
    for alpha in (0.5, 0.9, 1.4):
        odd = cat_state(alpha, nmax=30)
        assert np.linalg.norm(odd) == pytest.approx(1.0, abs=1e-12)
        n_odd = float(np.sum(np.arange(odd.size) * np.abs(odd) ** 2))
        assert n_odd == pytest.approx(alpha**2 / math.tanh(alpha**2), rel=1e-12)


def test_cat_state_small_alpha_limits():
    assert cat_state(0.0, nmax=6).tolist() == [0, 1, 0, 0, 0, 0, 0]
    assert abs(cat_state(1e-4, nmax=6)[1]) == pytest.approx(1.0, abs=1e-6)


def test_cat_state_truncation_gate():
    with pytest.raises(NumericsError):
        cat_state(3.0, nmax=6)


def test_best_cat_fidelity_purified_kitten():
    # the kitten's squeezing ratio, rescaled onto the minimum-uncertainty shell v_x v_p = 1/4
    v_x, v_p = variance_from_db(-2.0), variance_from_db(2.4)
    g = math.sqrt(4.0 * v_x * v_p)
    spec = GaussianStateSpec(v_x / g, v_p / g)
    rho, _ = photon_subtract(gaussian_state(spec, nmax=20))
    alpha_star, fid = best_cat_fidelity(rho)
    assert fid >= 0.99
    assert 0.8 <= alpha_star <= 1.0


def test_a_cat_fit_on_its_bound_raises():
    # the scan ends at alpha = 2: pure cats of 2.2 and 2.5 used to return
    # (2.0, 0.961) and (2.0, 0.779) without a word
    def pure_cat(alpha):
        amps = cat_state(alpha, nmax=30)
        return FockDensityMatrix(nmax=30, entries=np.outer(amps, amps.conj()))

    for alpha in (2.2, 2.5):
        with pytest.raises(NumericsError, match="cat fit stalled on its bound alpha = 2"):
            best_cat_fidelity(pure_cat(alpha))
    alpha_star, fid = best_cat_fidelity(pure_cat(1.9))
    assert alpha_star == 1.9
    assert fid == pytest.approx(1.0, abs=1e-12)


def reference_p_lobed_cats(alphas, dim=80):
    """Rows (|i alpha> - |-i alpha>) / norm on `dim` levels, from the coherent amplitudes.

    |i alpha> has amplitudes e^(-alpha^2/2) (i alpha)^n / sqrt(n!): the i^n
    phases put the lobes along p. The norm is summed, not taken in closed form;
    at alpha = 0 the cat is its limit |1>.
    """
    alphas = np.asarray(alphas, dtype=float)[:, None]
    n = np.arange(dim)
    root_fact = np.sqrt([float(math.factorial(k)) for k in n])
    coherent = np.exp(-0.5 * alphas**2) * alphas**n / root_fact
    cats = (1j**n - (-1j) ** n) * coherent
    cats[alphas[:, 0] == 0.0] = n == 1
    return cats / np.linalg.norm(cats, axis=1, keepdims=True)


def reference_cat_fidelities(rho, alphas, dim=80):
    """<cat| rho |cat> of the reference cats at each alpha, rho zero-padded to `dim`."""
    padded = np.zeros((dim, dim), dtype=complex)
    padded[: rho.dim, : rho.dim] = rho.entries
    cats = reference_p_lobed_cats(alphas, dim)
    return np.einsum("ki,ij,kj->k", cats.conj(), padded, cats).real


def shipped_corrected_state(name):
    """The loss-corrected reconstruction a shipped config's pipeline run writes."""
    config = load_config(Path(__file__).resolve().parents[1] / "configs" / f"{name}.ini")
    source, _ = simulate_source_state(config.state)
    dataset = detect_and_sample(
        apply_link(source, config.channel), config.detection, config.sampling
    )
    recon = config.reconstruction.to_config(config.detection.hd_eta)
    return mle_reconstruct(dataset, recon).rho


@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.9, 1.7, 3.0])
def test_cat_fidelity_matches_a_coherent_state_reference(kitten, lossy_kitten, alpha):
    for rho in (kitten, lossy_kitten):
        expected = reference_cat_fidelities(rho, [alpha])[0]
        assert abs(cat_fidelity(rho, alpha) - expected) <= 1e-12


@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.9, 1.7])
def test_cat_state_matches_a_coherent_state_reference(alpha):
    # the reference cat, truncated to nmax and renormalised, up to a global phase
    nmax = 19
    expected = reference_p_lobed_cats([alpha])[0, : nmax + 1]
    expected /= np.linalg.norm(expected)
    psi = cat_state(alpha, nmax)
    phase = np.vdot(psi, expected)
    assert abs(phase) == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(phase * psi - expected)) <= 1e-12


@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.9, 1.7])
def test_cat_state_is_the_cat_of_cat_fidelity(kitten, lossy_kitten, alpha):
    # cat_state once put its lobes along x: 0.469 against cat_fidelity's 0.706 at 0.9
    for rho in (kitten, lossy_kitten):
        assert abs(fidelity(rho, cat_state(alpha, rho.nmax)) - cat_fidelity(rho, alpha)) <= 1e-10


def test_cat_fidelity_rejects_negative_alpha(kitten):
    with pytest.raises(ValidationError):
        cat_fidelity(kitten, -0.1)


@pytest.mark.parametrize("alpha", [-0.1, math.nan, math.inf])
def test_cat_state_and_cat_fidelity_need_a_finite_non_negative_alpha(kitten, alpha):
    # NaN and inf passed the `alpha < 0` check, and both returned NaN
    with pytest.raises(ValidationError, match="alpha must be finite and >= 0"):
        cat_state(alpha, kitten.nmax)
    with pytest.raises(ValidationError, match="alpha must be finite and >= 0"):
        cat_fidelity(kitten, alpha)


@pytest.mark.parametrize("name", ["local", "transmitted"])
def test_best_cat_fidelity_matches_a_dense_scan(name):
    rho = shipped_corrected_state(name)
    # the reference fidelity in steps of 1e-5 over [0.01, 2], in chunks
    alphas = np.linspace(0.01, 2.0, 199_001)
    scores = np.concatenate(
        [reference_cat_fidelities(rho, chunk, 40) for chunk in np.array_split(alphas, 40)]
    )
    k = int(np.argmax(scores))
    alpha_star, fid = best_cat_fidelity(rho)
    assert abs(alpha_star - alphas[k]) <= 1e-4
    assert abs(fid - scores[k]) <= 1e-8


def test_cat_orientation_matters(kitten):
    # the subtracted x-squeezed state overlaps the cat whose lobes point
    # along p far better than the same state turned by 90 degrees
    n = np.arange(kitten.dim)
    turned = FockDensityMatrix(
        nmax=kitten.nmax, entries=kitten.entries * np.exp(1j * (n[:, None] - n) * math.pi / 2)
    )
    assert cat_fidelity(kitten, 0.9) > cat_fidelity(turned, 0.9) + 0.2


def test_fidelity_definitions_agree(kitten):
    psi = cat_state(0.9, nmax=kitten.nmax)
    direct = fidelity(kitten, psi)
    dm = np.outer(psi, psi.conj())
    uhlmann = state_fidelity(kitten, FockDensityMatrix(nmax=kitten.nmax, entries=dm))
    assert uhlmann == pytest.approx(direct, abs=1e-7)
    assert state_fidelity(kitten, kitten) == pytest.approx(1.0, abs=1e-7)


def test_state_fidelity_symmetric_and_padded(sqz_state, kitten):
    # different dimensions are zero-padded to a common space
    a = state_fidelity(sqz_state, kitten)
    b = state_fidelity(kitten, sqz_state)
    assert a == pytest.approx(b, abs=1e-8)
    assert 0.0 < a < 1.0


def test_density_matrix_json_round_trip(kitten, tmp_path):
    path = tmp_path / "rho.json"
    save_density_matrix(kitten, path)
    back = load_density_matrix(path)
    assert back.nmax == kitten.nmax
    np.testing.assert_array_equal(back.entries, kitten.entries)
    # text form round-trips too
    again = density_matrix_from_json(density_matrix_to_json(kitten))
    np.testing.assert_array_equal(again.entries, kitten.entries)


def test_density_matrix_json_keeps_the_trace_deficit(lossy_kitten, tmp_path):
    # the deficit used to be dropped, so a stored state read back by `sample`
    # or `bootstrap` lost its truncation record
    assert lossy_kitten.trace_deficit > 0.0
    path = tmp_path / "rho.json"
    save_density_matrix(lossy_kitten, path)
    assert load_density_matrix(path).trace_deficit == lossy_kitten.trace_deficit
    # a file written before the key existed still loads, with no deficit
    doc = json.loads(path.read_text())
    del doc["trace_deficit"]
    assert density_matrix_from_json(json.dumps(doc)).trace_deficit == 0.0
    doc["trace_deficit"] = math.nan
    with pytest.raises(ValidationError, match="trace_deficit"):
        density_matrix_from_json(json.dumps(doc))


def test_density_matrix_json_rejects_non_hermitian(tmp_path):
    doc = json.loads(density_matrix_to_json(gaussian_state(GaussianStateSpec(0.5, 0.5), nmax=3)))
    doc["re"][0][1] = 0.7  # break hermiticity
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError):
        load_density_matrix(path)


NOT_A_STATE = {  # density-matrix files of nmax 2 that hold no state: re, im, deficit, the reason
    "not-psd": ([[1.3, 0, 0], [0, -0.3, 0], [0, 0, 0]], [[0] * 3] * 3, 0.0,
                "eigenvalue below -1e-9"),
    "trace-0.75": ([[0.5, 0, 0], [0, 0.25, 0], [0, 0, 0]], [[0] * 3] * 3, 0.0,
                   "trace differs from 1"),
    "im-2x2": ([[0.5, 0, 0], [0, 0.5, 0], [0, 0, 0]], [[0] * 2] * 2, 0.0, "im of shape (2, 2)"),
    "im-row": ([[0.5, 0, 0], [0, 0.5, 0], [0, 0, 0]], [0] * 3, 0.0, "im of shape (3,)"),
    "im-scalar": ([[0.5, 0, 0], [0, 0.5, 0], [0, 0, 0]], 0, 0.0, "im of shape ()"),
    # np.asarray and float() parsed text and bools as numbers, so these four loaded as states
    "re-text": ([["0.5", "0", 0], ["0", "5e-1", 0], [0, 0, 0]], [[0] * 3] * 3, 0.0,
                "re must hold numbers only"),
    "im-bool": ([[0.5, 0, 0], [0, 0.5, 0], [0, 0, 0]], [[False] * 3] * 3, 0.0,
                "im must hold numbers only"),
    "deficit-text": ([[0.5, 0, 0], [0, 0.5, 0], [0, 0, 0]], [[0] * 3] * 3, "1e-3",
                     "trace_deficit must hold numbers only"),
    "deficit-bool": ([[0.5, 0, 0], [0, 0.5, 0], [0, 0, 0]], [[0] * 3] * 3, True,
                     "trace_deficit must hold numbers only"),
}


@pytest.mark.parametrize("case", NOT_A_STATE)
def test_density_matrix_json_must_hold_a_state(tmp_path, case):
    # the loader checked only the shape of re + 1j im and Hermiticity: a non-PSD
    # matrix or a trace of 0.75 loaded, and an im row or scalar was broadcast
    real, imag, deficit, message = NOT_A_STATE[case]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"nmax": 2, "re": real, "im": imag, "trace_deficit": deficit}))
    with pytest.raises(ValidationError, match=re.escape(message)):
        load_density_matrix(path)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
def test_density_matrix_rejects_non_finite_entries(bad):
    # NaN passes every `x > tol` check of validate(); construction rejects it
    entries = np.diag([0.5, 0.5]).astype(complex)
    entries[0, 0] = bad
    with pytest.raises(ValidationError, match="non-finite"):
        FockDensityMatrix(nmax=1, entries=entries)
    text = '{"nmax": 1, "re": [[NaN, 0.0], [0.0, 0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]}'
    with pytest.raises(ValidationError, match="non-finite"):
        density_matrix_from_json(text)


@pytest.mark.parametrize("call, message", [
    (lambda rho: FockDensityMatrix(nmax=1, entries=np.eye(2)[:1]),
     "density matrix must be square, got shape (1, 2)"),
    (lambda rho: FockDensityMatrix(nmax=2, entries=np.eye(2) / 2),
     "dimension 2 does not match nmax=2"),
    (lambda rho: db_from_variance(0.0), "variance must be positive and finite, got 0.0"),
    (lambda rho: db_from_variance(-0.5), "variance must be positive and finite, got -0.5"),
    (lambda rho: photon_subtract(FockDensityMatrix(nmax=0, entries=[[1.0]])),
     "cannot subtract a photon from a 1-level space"),
    (lambda rho: loss_channel(rho, -0.1), "transmissivity must lie in [0, 1], got -0.1"),
    (lambda rho: loss_channel(rho, 1.5), "transmissivity must lie in [0, 1], got 1.5"),
    (lambda rho: loss_adjoint(np.eye(3), 0.0), "adjoint loss needs eta in (0, 1], got 0.0"),
    (lambda rho: loss_adjoint(np.eye(3), 1.5), "adjoint loss needs eta in (0, 1], got 1.5"),
    (lambda rho: fidelity(rho, np.ones(3)), "state vector of length (3,) does not match"),
    (lambda rho: density_matrix_from_json("[1.0"), "malformed density-matrix JSON"),
    (lambda rho: density_matrix_from_json('{"re": [[1.0]], "im": [[0.0]]}'),
     "malformed density-matrix JSON: 'nmax'"),
    (lambda rho: density_matrix_from_json('{"nmax": 0, "re": [["a"]], "im": [[0.0]]}'),
     "malformed density-matrix JSON"),
    # construction checked shape and finiteness only: a trace-2 "state" went through
    # phase_diffusion, a zero matrix reached _finalize as a truncation fault, and
    # sample_quadratures drew from a non-Hermitian matrix as from its Hermitian completion
    (lambda rho: FockDensityMatrix(nmax=1, entries=np.eye(2)),
     "density matrix trace differs from 1 beyond 1e-10"),
    (lambda rho: FockDensityMatrix(nmax=1, entries=np.zeros((2, 2))),
     "density matrix trace differs from 1 beyond 1e-10"),
    (lambda rho: FockDensityMatrix(nmax=1, entries=[[0.5, 0.3], [0.0, 0.5]]),
     "density matrix is not Hermitian within 1e-12"),
    (lambda rho: FockDensityMatrix(nmax=1, entries=[[0.5, 1e-9], [0.0, 0.5]]),
     "density matrix is not Hermitian within 1e-12"),
    (lambda rho: FockDensityMatrix(nmax=1, entries=[[0.5 + 2e-10, 0.0], [0.0, 0.5]]),
     "density matrix trace differs from 1 beyond 1e-10"),
    (lambda rho: FockDensityMatrix(nmax=1, entries=np.eye(2) / 2, trace_deficit=math.nan),
     "trace_deficit must be finite and >= 0, got nan"),
    (lambda rho: FockDensityMatrix(nmax=1, entries=np.eye(2) / 2, trace_deficit=math.inf),
     "trace_deficit must be finite and >= 0, got inf"),
    (lambda rho: FockDensityMatrix(nmax=1, entries=np.eye(2) / 2, trace_deficit=-0.1),
     "trace_deficit must be finite and >= 0, got -0.1"),
    # the check was `variance <= 0.0`, which NaN and inf pass
    (lambda rho: db_from_variance(math.nan), "variance must be positive and finite, got nan"),
    (lambda rho: db_from_variance(math.inf), "variance must be positive and finite, got inf"),
    # nmax was not checked for type, and the loader truncated it with int()
    (lambda rho: FockDensityMatrix(nmax=1.0, entries=np.eye(2) / 2),
     "nmax must be an integer, got 1.0"),
    (lambda rho: density_matrix_from_json(
        '{"nmax": 1.9, "re": [[0.5, 0], [0, 0.5]], "im": [[0, 0], [0, 0]]}'),
     "nmax must be an integer, got 1.9"),
], ids=["not-square", "wrong-size", "db-of-zero", "db-of-negative", "subtract-one-level",
        "loss-below-0", "loss-above-1", "adjoint-at-0", "adjoint-above-1", "fidelity-length",
        "json-truncated", "json-no-nmax", "json-text-entry", "trace-2", "zero-matrix",
        "not-hermitian", "off-hermitian-by-1e-9", "trace-off-by-2e-10", "deficit-nan",
        "deficit-inf", "deficit-negative", "db-of-nan", "db-of-inf", "nmax-float",
        "json-nmax-float"])
def test_fock_input_checks(kitten, call, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        call(kitten)


def test_constructors_and_channels_pass_validate(sqz_state, kitten, lossy_kitten):
    # gaussian_state, photon_subtract, loss_channel and phase_diffusion outputs
    for rho in (sqz_state, kitten, lossy_kitten, phase_diffusion(lossy_kitten, 0.3)):
        rho.validate()


def test_validate_names_the_broken_invariant():
    # Hermiticity and the trace are checked at construction (test_fock_input_checks)
    rho = FockDensityMatrix(nmax=1, entries=np.array([[1.0 + 2e-9, 0.0], [0.0, -2e-9]]))
    with pytest.raises(ValidationError, match="eigenvalue below"):
        rho.validate()
