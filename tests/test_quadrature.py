import math

import numpy as np
import pytest

from kittensim import (
    FockDensityMatrix,
    GaussianStateSpec,
    NumericsError,
    ReconstructionConfig,
    ValidationError,
    bootstrap_metric,
    build_povm_stack,
    dataset_from_angle_blocks,
    draw_homodyne,
    fock_wavefunctions,
    gaussian_state,
    homodyne_cdfs,
    load_samples_csv,
    marginal_pdf,
    marginal_variance,
    phase_diffusion,
    sample_homodyne,
    sample_quadratures,
    save_samples_csv,
    variance_from_db,
)
from kittensim.quadrature import SAMPLING_GRID, QuadratureDataset
from kittensim.spectrum import dephased_variance

from conftest import random_density_matrix


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
        diffused = phase_diffusion(sqz_state, sigma)
        vals = sample_quadratures(diffused, 0.0, n, seed=int(sigma_deg * 10))
        expected = dephased_variance(0.0, sigma, vx, vp)
        se = expected * math.sqrt(2.0 / n)
        assert abs(np.var(vals) - expected) < 3 * se, f"sigma={sigma_deg}"


def test_sample_grid_mass_gate():
    # a hot thermal state keeps only 0.998909 of its marginal on the +-8 grid
    # and must be rejected
    hot = gaussian_state(GaussianStateSpec(6.0, 6.0), nmax=100)
    with pytest.raises(NumericsError):
        sample_quadratures(hot, 0.0, 10, seed=0)


def test_sample_homodyne_is_the_per_angle_draws(kitten):
    # one call draws each angle from its own seed and tags it, exactly as the
    # one-angle calls do
    angles = [0.0, 0.4, math.pi / 2]
    ds = sample_homodyne(kitten, angles, [30, 0, 20], [11, 12, 13])
    np.testing.assert_array_equal(ds.angles, np.repeat(angles, [30, 0, 20]))
    expected = [
        sample_quadratures(kitten, th, n, s)
        for th, n, s in zip(angles, [30, 0, 20], [11, 12, 13])
    ]
    np.testing.assert_array_equal(ds.values, np.concatenate(expected))
    # other tags: the same draws from the same CDFs
    cdfs = homodyne_cdfs(kitten, angles)
    tagged = draw_homodyne(cdfs, [30, 0, 20], [11, 12, 13], [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(tagged.angles, np.repeat([1.0, 2.0, 3.0], [30, 0, 20]))
    np.testing.assert_array_equal(tagged.values, ds.values)


@pytest.mark.parametrize("tags", [[0.0, 0.0, 0.5], [0.5, -0.0, 0.0]])
def test_sample_homodyne_rejects_repeated_tags(kitten, tags):
    with pytest.raises(ValidationError):
        draw_homodyne(homodyne_cdfs(kitten, [0.0, 0.3, 0.5]), 10, [1, 2, 3], tags)
    with pytest.raises(ValidationError):
        sample_homodyne(kitten, tags, 10, [1, 2, 3])


def test_sample_homodyne_evaluates_wavefunctions_once(kitten, lossy_kitten, monkeypatch):
    # the marginal table on SAMPLING_GRID is built once per state, with one
    # wavefunction evaluation: later draws and a whole bootstrap of the same
    # state reuse it, and a second state builds its own
    import kittensim.quadrature as quadrature

    calls = []
    original = quadrature.fock_wavefunctions
    monkeypatch.setattr(
        quadrature, "fock_wavefunctions", lambda *a: calls.append(a) or original(*a)
    )
    quadrature._marginal_table.cache_clear()
    sample_homodyne(kitten, np.radians([0.0, 30.0, 60.0, 90.0]), 10, [1, 2, 3, 4])
    assert len(calls) == 1
    sample_homodyne(kitten, [0.2, 0.7], [5, 8], [5, 6])
    sample_quadratures(kitten, 1.1, 10, seed=7)
    bootstrap_metric(
        kitten,
        ReconstructionConfig(nmax=6),
        per_angle_counts={0.0: 300, math.pi / 4: 300, math.pi / 2: 300},
        n_resamples=2,
        seed=1,
    )
    assert len(calls) == 1
    sample_quadratures(lossy_kitten, 0.4, 10, seed=8)
    sample_quadratures(kitten, 0.4, 10, seed=8)
    assert len(calls) == 2
    table = quadrature._marginal_table(kitten.entries.tobytes(), kitten.dim)
    assert table.shape == (2 * kitten.dim - 1, SAMPLING_GRID.size)
    assert not table.flags.writeable


def _tapered_state(rng, nmax):
    # a random state whose populations fall as 0.75**n keeps its marginals on the grid
    taper = np.sqrt(0.75 ** np.arange(nmax + 1))
    entries = taper[:, None] * random_density_matrix(rng, nmax + 1) * taper
    return FockDensityMatrix(nmax=nmax, entries=entries / np.trace(entries).real)


@pytest.mark.parametrize("nmax", [0, 1, 2, 12, 19, 30])
def test_homodyne_cdfs_match_the_marginal_pdf(nmax):
    # the per-state cosine/sine table gives the CDFs that the rotated state's
    # marginal_pdf, integrated by the same trapezoid sum, gives
    rho = _tapered_state(np.random.default_rng(100 + nmax), nmax)
    angles = [0.0, 0.3, math.pi / 2, 2.9, -1.1, 7.0]
    dx = SAMPLING_GRID[1] - SAMPLING_GRID[0]
    for cdf, theta in zip(homodyne_cdfs(rho, angles), angles):
        pdf = np.clip(marginal_pdf(rho, theta, SAMPLING_GRID), 0.0, None)
        expected = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * dx)])
        np.testing.assert_allclose(cdf, expected / expected[-1], rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("count", [0, 1, 4000])
@pytest.mark.parametrize("flat_tails", [False, True])
def test_draws_are_the_lookup_of_the_unsorted_uniforms(kitten, count, flat_tails):
    # the radix order only speeds the lookup: each draw is np.interp of its
    # own uniform, bit for bit
    cdf = homodyne_cdfs(kitten, [0.6])[0]
    if flat_tails:
        # repeated values: no mass below x = -2 or above x = 2 (indices 1500 and 2500)
        cdf = np.clip((cdf - cdf[1500]) / (cdf[2500] - cdf[1500]), 0.0, 1.0)
        assert (cdf == 0.0).sum() > 1 and (cdf == 1.0).sum() > 1
    drawn = draw_homodyne(cdf[None], count, [17], [0.6]).values
    uniform = np.random.default_rng(17).random(count)
    np.testing.assert_array_equal(drawn, np.interp(uniform, cdf, SAMPLING_GRID))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_angles_are_rejected(kitten, bad):
    # a NaN angle used to give an all-NaN CDF: the mass test passed NaN
    with pytest.raises(ValidationError):
        homodyne_cdfs(kitten, [0.0, bad])
    with pytest.raises(ValidationError):
        sample_homodyne(kitten, [bad, 0.5], 10, [1, 2])
    with pytest.raises(ValidationError):
        sample_quadratures(kitten, bad, 10, seed=1)


@pytest.mark.parametrize("angles", [[], [[0.0, 0.5]]], ids=["none", "2-d"])
def test_homodyne_cdfs_need_a_list_of_angles(kitten, angles):
    with pytest.raises(ValidationError, match="need one or more sampling angles"):
        homodyne_cdfs(kitten, angles)


@pytest.mark.parametrize(
    "seeds, tags",
    [([1], [0.0, 0.5]), ([1, 2], [0.0]), ([1, 2, 3], [0.0, 0.5])],
    ids=["one-seed", "one-tag", "three-seeds"],
)
def test_draw_homodyne_needs_one_seed_and_one_tag_per_angle(kitten, seeds, tags):
    cdfs = homodyne_cdfs(kitten, [0.0, 0.5])
    with pytest.raises(ValidationError, match="each sampling angle needs one seed and one tag"):
        draw_homodyne(cdfs, 10, seeds, tags)


@pytest.mark.parametrize("count", [2.7, -0.5, -1, math.nan, math.inf, True, "3", [3, 1.5]])
def test_counts_that_are_not_whole_numbers_are_rejected(kitten, count):
    # count=2.7 used to draw 2 samples and count=-0.5 none, without a word
    cdfs = homodyne_cdfs(kitten, [0.0, 0.5])
    with pytest.raises(ValidationError):
        draw_homodyne(cdfs, count, [1, 2], [0.0, 0.5])
    if np.ndim(count) == 0:
        with pytest.raises(ValidationError):
            sample_quadratures(kitten, 0.5, count, seed=1)


@pytest.mark.parametrize("seed", [-1, 1.0, 2.5, None, True, "7"])
def test_seeds_that_are_not_integers_are_rejected(kitten, seed):
    with pytest.raises(ValidationError):
        draw_homodyne(homodyne_cdfs(kitten, [0.0, 0.5]), 10, [1, seed], [0.0, 0.5])
    with pytest.raises(ValidationError):
        sample_quadratures(kitten, 0.5, 10, seed=seed)


def test_whole_float_counts_and_numpy_seeds_draw_as_ints(kitten):
    cdfs = homodyne_cdfs(kitten, [0.0, 0.5])
    expected = draw_homodyne(cdfs, [3, 4], [1, 2], [0.0, 0.5])
    again = draw_homodyne(cdfs, np.array([3.0, 4.0]), np.array([1, 2], np.uint32), [0.0, 0.5])
    np.testing.assert_array_equal(again.values, expected.values)
    np.testing.assert_array_equal(again.angles, expected.angles)


def test_dataset_round_trip(tmp_path, kitten):
    blocks = {
        0.0: sample_quadratures(kitten, 0.0, 200, seed=1),
        math.radians(30.0): sample_quadratures(kitten, math.radians(30.0), 200, seed=2),
    }
    ds = dataset_from_angle_blocks(blocks)
    assert sorted(np.unique(ds.angles)) == sorted(blocks)
    path = tmp_path / "samples.csv"
    save_samples_csv(ds, path)
    back = load_samples_csv(path)
    np.testing.assert_array_equal(back.values, ds.values)
    np.testing.assert_array_equal(back.angles, ds.angles)
    np.testing.assert_array_equal(
        back.values[back.angles == math.radians(30.0)], blocks[math.radians(30.0)]
    )


def test_dataset_requires_matching_lengths():
    with pytest.raises(ValidationError):
        QuadratureDataset(angles=np.zeros(3), values=np.zeros(4))


@pytest.mark.parametrize("field", ["angles", "values"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_dataset_rejects_non_finite_entries(field, bad):
    # a NaN sample used to be dropped by the binning without a word
    arrays = {"angles": np.zeros(3), "values": np.array([0.1, -0.4, 0.2])}
    arrays[field][1] = bad
    with pytest.raises(ValidationError):
        QuadratureDataset(**arrays)


@pytest.mark.parametrize(
    "nmax, expected",
    [
        (0, [0.5, 0.5, 0.5]),
        (1, [0.9177424891445042, 1.0412654918942674, 1.0364072672789868]),
        (2, [1.492950991335687, 1.3854909324026998, 1.4399105163603063]),
    ],
)
def test_marginal_variance_below_three_levels(nmax, expected):
    # pinned from the per-dimension branches the one expression replaced; the
    # state padded with empty levels takes the general path to the same values
    if nmax == 0:
        entries = np.ones((1, 1))
    else:
        entries = random_density_matrix(np.random.default_rng(nmax), nmax + 1)
    padded = np.zeros((5, 5), dtype=complex)
    padded[: nmax + 1, : nmax + 1] = entries
    thetas = (0.0, 0.7, math.pi / 2)
    rho = FockDensityMatrix(nmax=nmax, entries=entries)
    assert [marginal_variance(rho, th) for th in thetas] == expected
    big = FockDensityMatrix(nmax=4, entries=padded)
    np.testing.assert_allclose([marginal_variance(big, th) for th in thetas], expected, rtol=1e-14)
