import hashlib
import itertools
import math
import re
import sys
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

from kittensim import tomography
from kittensim.quadrature import draw_homodyne, homodyne_cdfs
from kittensim.tomography import MAX_BIN_COUNT
from kittensim import (
    FockDensityMatrix,
    NumericsError,
    QuadratureDataset,
    ReconstructionConfig,
    SpectrumModelParams,
    ValidationError,
    apply_link,
    bin_dataset,
    bootstrap_metric,
    build_povm_stack,
    dataset_from_angle_blocks,
    load_config,
    loss_channel,
    mle_reconstruct,
    reconstruct_with_angles,
    sample_homodyne,
    sample_quadratures,
    simulate_source_state,
    state_fidelity,
    wigner_origin,
)

from kittensim.pipeline import detect_and_sample
from conftest import HD_ETA

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def small_dataset(rho, angles_deg, count, seed):
    blocks = {
        math.radians(d): sample_quadratures(rho, math.radians(d), count, seed=seed + i)
        for i, d in enumerate(angles_deg)
    }
    return dataset_from_angle_blocks(blocks)


def test_bin_dataset_conserves_counts():
    config = ReconstructionConfig(nmax=4, bin_width=0.5, bin_min=-1.0, bin_max=1.0)
    values = np.array([-5.0, -1.0, -0.3, 0.0, 0.49, 0.5, 1.0, 7.0])
    binned = bin_dataset(
        dataset_from_angle_blocks({0.0: values, math.pi / 2: values[:4]}), config
    )
    assert binned.total == values.size + 4
    assert binned.counts.shape == (2, 6)
    row = binned.counts[0]
    assert row[0] == 1          # -5.0 in the open lower bin
    assert row[-1] == 2         # 1.0 (== last edge) and 7.0 in the open upper bin
    assert row.sum() == values.size
    expected_frac = (1 + 2 + 1) / (values.size + 4)
    assert binned.out_of_range_fraction == pytest.approx(expected_frac)


def test_bin_dataset_counts_each_sample_once():
    # tags 1e-12 apart are two angles; neither takes the other's samples
    config = ReconstructionConfig(nmax=4, bin_width=0.5, bin_min=-1.0, bin_max=1.0)
    dataset = QuadratureDataset(
        angles=np.array([0.5, 0.5, 0.5 + 1e-12, 1.0]), values=np.array([0.1, -0.2, 0.3, 0.4])
    )
    binned = bin_dataset(dataset, config)
    assert binned.total == 4
    assert binned.counts.sum(axis=1).tolist() == [2.0, 1.0, 1.0]
    # a value on an edge opens the bin above it; the last edge is the open upper bin
    edges = config.bin_edges
    on_edges = bin_dataset(dataset_from_angle_blocks({0.0: edges}), config)
    assert on_edges.counts.tolist() == [[0.0, 1.0, 1.0, 1.0, 1.0, 1.0]]


def test_bin_dataset_matches_per_angle_histogram():
    # reference: one np.histogram per angle, with values on the last edge
    # moved to the open upper bin
    config = ReconstructionConfig(nmax=4)
    edges = config.bin_edges
    rng = np.random.default_rng(5)
    blocks = {
        th: np.concatenate([2.5 * rng.standard_normal(400), edges, [-9.0, 9.0]])
        for th in (0.0, 0.3, 1.2)
    }
    binned = bin_dataset(dataset_from_angle_blocks(blocks), config)
    for row, vals in zip(binned.counts, blocks.values()):
        inner, _ = np.histogram(vals, bins=edges)
        inner[-1] -= np.count_nonzero(vals == edges[-1])
        expected = [np.count_nonzero(vals < edges[0]), *inner, np.count_nonzero(vals >= edges[-1])]
        np.testing.assert_array_equal(row, expected)


def reference_bin_dataset(dataset, edges):
    # the binary-search histogram that bin_dataset replaced, kept as its reference
    angles, angle_index = np.unique(dataset.angles, return_inverse=True)
    bins = np.searchsorted(edges, dataset.values, side="right")
    columns = edges.size + 1
    counts = np.bincount(angle_index * columns + bins, minlength=angles.size * columns)
    counts = counts.reshape(angles.size, columns).astype(float)
    return angles, counts, float((counts[:, 0].sum() + counts[:, -1].sum()) / counts.sum())


def random_configs(kind, rng):
    if kind == "shipped":
        return [ReconstructionConfig(nmax=2)]
    grids = [
        np.linspace(lo, lo + rng.uniform(1e-3, 20.0), rng.integers(2, 300))
        for lo in rng.uniform(-12.0, 6.0, 150)
    ]
    configs = [
        ReconstructionConfig(
            nmax=2, bin_width=(e[-1] - e[0]) / (e.size - 1), bin_min=e[0], bin_max=e[-1]
        )
        for e in grids
    ]
    # each config rebuilds its grid bit for bit from the three grid fields
    assert [c.bin_edges.tobytes() for c in configs] == [e.tobytes() for e in grids]
    return configs


@pytest.mark.parametrize("kind", ["shipped", "linspace"])
def test_bin_dataset_matches_binary_search_reference(kind):
    # bit for bit on counts, angles and the out-of-range fraction, with values
    # on every edge, one ulp either side of it and far outside, and with the
    # angle tags interleaved rather than in one run per angle
    rng = np.random.default_rng(["shipped", "linspace"].index(kind))
    for config in random_configs(kind, rng):
        edges = config.bin_edges
        spread = max(1.0, float(np.abs(edges[[0, -1]]).max()))
        values = np.concatenate([
            np.clip(rng.normal(0.0, spread, 3000), -1e307, 1e307),
            edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
            [-1e300, 1e300],
        ])
        tags = rng.choice([0.0, 0.4, 1.3, 2.5], values.size)
        dataset = QuadratureDataset(angles=tags, values=values)
        binned = bin_dataset(dataset, config)
        angles, counts, out_frac = reference_bin_dataset(dataset, edges)
        assert binned.angles.tobytes() == angles.tobytes()
        assert binned.counts.tobytes() == counts.tobytes()
        assert binned.out_of_range_fraction == out_frac


def bin_of_each_value(values, config):
    """bin_dataset's bin of each value, one tag per value, in chunks of about 2**20 counts."""
    chunk = max(1, 2**20 // (config.bin_edges.size + 1))
    bins = []
    for start in range(0, values.size, chunk):
        part = values[start : start + chunk]
        tags = np.arange(part.size, dtype=float)
        binned = bin_dataset(QuadratureDataset(angles=tags, values=part), config)
        bins.append(binned.counts.argmax(axis=1))
    return np.concatenate(bins)


def test_bin_dataset_is_exact_on_every_grid_a_config_builds():
    # the one corrected guess equals the binary search at every edge and at
    # both float neighbours of it, on grids spanning 1e-300 to 1e300 and up to
    # MAX_BIN_COUNT bins, and at the largest floats
    rng = np.random.default_rng(19)
    checked = 0
    while checked < 1002:
        scale = 10.0 ** rng.uniform(-300.0, 300.0) if checked % 2 else 10.0 ** rng.uniform(-3, 3)
        bins = MAX_BIN_COUNT if checked >= 1000 else int(rng.integers(1, 200))
        width = float(rng.uniform(1e-3, 1.0) * scale)
        low = float(rng.uniform(-1.5, 0.5) * bins * width)
        try:
            config = ReconstructionConfig(
                nmax=1, bin_width=width, bin_min=low, bin_max=low + bins * width
            )
        except ValidationError:  # a span that the rounded width does not tile
            continue
        checked += 1
        edges = config.bin_edges
        values = np.concatenate([
            edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
            [-np.finfo(float).max, -1e308, 1e308, np.finfo(float).max],
        ])
        expected = np.searchsorted(edges, values, side="right")
        np.testing.assert_array_equal(bin_of_each_value(values, config), expected)


@pytest.mark.parametrize("eta", [1.0, 0.88])
@pytest.mark.parametrize(
    "edges, nmax",
    [(np.linspace(-5.0, 5.0, 41), 8), (np.linspace(-6.0, 6.0, 61), 10),
     (np.linspace(-20.0, 20.0, 81), 8)],
    ids=["41-edges", "61-edges", "past-cutoff"],
)
def test_povm_stack_resolves_identity_per_angle(edges, nmax, eta):
    # the bins at each angle, open edge bins included, resolve the identity;
    # the last grid has bins wholly past the quadrature cutoff, which are zero
    angles = np.array([0.0, 0.3, math.radians(60.0)])
    stack = build_povm_stack(angles, edges, eta, nmax)
    n_bins = edges.size + 1
    assert stack.shape == (angles.size * n_bins, nmax + 1, nmax + 1)
    assert stack.dtype == complex
    for i in range(angles.size):
        total = stack[i * n_bins : (i + 1) * n_bins].sum(axis=0)
        np.testing.assert_allclose(total, np.eye(nmax + 1), atol=1e-6)
    if edges[0] == -20.0:
        # the four outermost bins on each side lie wholly past |x| = 18.5
        assert not np.any(stack[:4]) and not np.any(stack[n_bins - 4 : n_bins])


# (stack index, m, n) -> element on the pipeline grid (6 angles, 0.1-wide bins
# on [-6, 6], nmax 12), recorded from a separate quadrature of each
# (angle, bin) element
PIPELINE_POVM_PINS = {
    1.0: {
        (121, 12, 12): 7.901384823575267e-05 + 0j,
        (122, 10, 12): 8.66808871576315e-06 - 1.5013570060216234e-05j,
        (182, 1, 2): 0.002406570244785027 - 0.0013894339786503786j,
        (339, 4, 9): 0.0027637073017069535 + 0.00478688146380554j,
        (436, 3, 7): -0.006079099420869872 - 1.4889499294933634e-18j,
        (518, 0, 5): 0.00017822614360801307 - 0.0003086967359661446j,
    },
    0.88: {
        (121, 12, 12): 2.467592367384498e-05 + 0j,
        (122, 10, 12): 2.860430158848446e-06 - 4.954410366627822e-06j,
        (182, 1, 2): 0.001439376653848164 - 0.0008310244985645001j,
        (339, 4, 9): 0.0020460402471128686 + 0.003543845662330275j,
        (436, 3, 7): 0.0003681154003237757 + 9.016226934467178e-20j,
        (518, 0, 5): 0.00012947266591715965 - 0.00022425323555991098j,
    },
}


@pytest.mark.parametrize("eta", sorted(PIPELINE_POVM_PINS))
def test_povm_stack_pinned_on_pipeline_grid(eta):
    angles = np.radians([0.0, 30.0, 60.0, 90.0, 120.0, 150.0])
    stack = build_povm_stack(angles, ReconstructionConfig().bin_edges, eta, 12)
    assert stack.shape == (6 * 122, 13, 13)
    for (k, m, n), value in PIPELINE_POVM_PINS[eta].items():
        assert abs(stack[k, m, n] - value) <= 1e-12, (k, m, n)
        # Hermitian, and angle j is a phase exp(i theta (m - n)) on angle 0
        assert abs(stack[k, n, m] - np.conj(value)) <= 1e-12
        base = stack[k % 122, m, n] * np.exp(1j * angles[k // 122] * (m - n))
        assert abs(stack[k, m, n] - base) <= 1e-15


def test_loglikelihood_is_monotone(lossy_kitten):
    dataset = small_dataset(lossy_kitten, (0.0, 45.0, 90.0, 135.0), 1500, seed=21)
    config = ReconstructionConfig(nmax=8, max_iters=300, gap_tol=1e-4)
    result = mle_reconstruct(dataset, config)
    hist = result.loglik_history
    assert hist.size == result.iterations_used
    slack = 1e-9 * np.abs(hist[:-1])
    assert np.all(np.diff(hist) >= -slack)


def test_reconstruction_is_deterministic(lossy_kitten):
    dataset = small_dataset(lossy_kitten, (0.0, 60.0, 120.0), 1000, seed=5)
    config = ReconstructionConfig(nmax=6, max_iters=200)
    a = mle_reconstruct(dataset, config)
    b = mle_reconstruct(dataset, config)
    assert np.array_equal(a.rho.entries, b.rho.entries)
    assert np.array_equal(a.loglik_history, b.loglik_history)
    assert a.metrics["w00"] == b.metrics["w00"]


def test_round_trip_recovers_detected_state(lossy_kitten):
    dataset = small_dataset(lossy_kitten, (0.0, 45.0, 90.0, 135.0), 3000, seed=11)
    config = ReconstructionConfig(nmax=10)
    result = mle_reconstruct(dataset, config)
    assert result.converged and result.metrics["gap"] <= config.gap_tol
    assert state_fidelity(result.rho, lossy_kitten) >= 0.97
    assert result.metrics["w00"] == pytest.approx(wigner_origin(lossy_kitten), abs=0.03)
    assert result.metrics["out_of_range_fraction"] < 1e-3


def test_loss_correction_consistency(lossy_kitten):
    # reconstructing with the efficiency folded into the POVM should undo the
    # detection loss: pushing that state back through the loss must match the
    # plain reconstruction of the detected state
    dataset = small_dataset(lossy_kitten, (0.0, 45.0, 90.0, 135.0), 3000, seed=31)
    detected = mle_reconstruct(dataset, ReconstructionConfig(nmax=10)).rho
    corrected = mle_reconstruct(
        dataset, ReconstructionConfig(nmax=10, eta_correction=HD_ETA)
    ).rho
    assert state_fidelity(loss_channel(corrected, HD_ETA), detected) >= 0.99
    assert abs(wigner_origin(corrected)) > abs(wigner_origin(detected))


def test_identity_angle_overrides_change_nothing(lossy_kitten):
    dataset = small_dataset(lossy_kitten, (0.0, 60.0, 120.0), 1000, seed=7)
    config = ReconstructionConfig(nmax=6, max_iters=150)
    plain = mle_reconstruct(dataset, config)
    overridden = reconstruct_with_angles(
        dataset, config, {th: th for th in np.unique(dataset.angles)}
    )
    assert np.array_equal(plain.rho.entries, overridden.rho.entries)


def test_angle_overrides_must_cover_dataset(lossy_kitten):
    dataset = small_dataset(lossy_kitten, (0.0, 60.0, 120.0), 500, seed=9)
    config = ReconstructionConfig(nmax=6, max_iters=50)
    with pytest.raises(ValidationError):
        reconstruct_with_angles(dataset, config, {0.0: 0.0})
    # and name no angle without samples, in the reconstruction and the bootstrap
    extra = {**{th: th for th in np.unique(dataset.angles)}, math.radians(45.0): 1.0}
    with pytest.raises(ValidationError, match="no samples"):
        reconstruct_with_angles(dataset, config, extra)
    with pytest.raises(ValidationError, match="no samples"):
        bootstrap_metric(lossy_kitten, replace(config, angle_overrides=extra),
                         per_angle_counts=dict.fromkeys(np.unique(dataset.angles), 500),
                         n_resamples=2, seed=0)


def test_a_missing_nominal_angle_raises_the_one_angle_table_message(lossy_kitten):
    # the reconstruction and the spectrum model each wrote their own message
    dataset = small_dataset(lossy_kitten, (0.0, 60.0), 200, seed=9)
    with pytest.raises(ValidationError) as recon:
        reconstruct_with_angles(dataset, ReconstructionConfig(nmax=6), {0.0: 0.0})
    params = SpectrumModelParams(gamma=1.0, epsilon=0.5, eta=0.5, sigma=0.0,
                                 theta_true={0.0: 0.0})
    with pytest.raises(ValidationError) as fit:
        params.true_angle(math.radians(60.0))
    assert str(recon.value) == str(fit.value) == "no entry for nominal angle 60.0000 deg"


def test_bootstrap_rejects_a_negative_seed(lossy_kitten):
    # numpy's SeedSequence raised a bare ValueError, which no caller catches
    with pytest.raises(ValidationError, match="seed must be >= 0, got -3"):
        bootstrap_metric(lossy_kitten, ReconstructionConfig(nmax=6),
                         per_angle_counts={0.0: 10}, n_resamples=2, seed=-3)


@pytest.mark.parametrize(
    "arguments, message",
    [({"seed": 1.5}, "seed must be an integer, got 1.5"),
     ({"seed": True}, "seed must be an integer, got True"),
     ({"n_resamples": 2.5}, "n_resamples must be an integer, got 2.5"),
     ({"n_resamples": 1}, "n_resamples must be >= 2, got 1")],
)
def test_bootstrap_rejects_a_seed_or_size_that_is_no_integer(lossy_kitten, arguments, message):
    # 1.5 and 2.5 ended in numpy's or Python's raw TypeError
    with pytest.raises(ValidationError, match=re.escape(message)):
        bootstrap_metric(lossy_kitten, ReconstructionConfig(nmax=6),
                         per_angle_counts={0.0: 10}, **{"n_resamples": 2, **arguments})


@pytest.mark.parametrize(
    "overrides",
    [{0.0: math.nan}, {0.0: math.inf}, {math.nan: 0.0}, {-math.inf: 0.0}],
)
def test_config_rejects_non_finite_angle_overrides(lossy_kitten, overrides):
    # {0.0: nan} used to reach the RrhoR loop and return a NaN state
    with pytest.raises(ValidationError):
        ReconstructionConfig(angle_overrides=overrides)
    dataset = small_dataset(lossy_kitten, (0.0,), 200, seed=3)
    with pytest.raises(ValidationError):
        reconstruct_with_angles(dataset, ReconstructionConfig(nmax=6), overrides)


def test_true_angle_povm_deepens_negativity(lossy_kitten):
    # samples taken at drifted angles but labeled with the nominal grid:
    # re-fitting with the true angles must recover a more negative W(0,0)
    nominal_deg = (0.0, 30.0, 60.0, 90.0, 120.0, 150.0)
    true_deg = (0.0, 33.5, 65.6, 90.0, 133.1, 163.3)
    blocks = {}
    for i, (nom, true) in enumerate(zip(nominal_deg, true_deg)):
        seed = int(np.random.SeedSequence([4200, i]).generate_state(1)[0])
        blocks[math.radians(nom)] = sample_quadratures(
            lossy_kitten, math.radians(true), 5000, seed=seed
        )
    dataset = dataset_from_angle_blocks(blocks)
    config = ReconstructionConfig(nmax=12, eta_correction=HD_ETA)
    w_nominal = mle_reconstruct(dataset, config).metrics["w00"]
    overrides = {
        math.radians(n): math.radians(t) for n, t in zip(nominal_deg, true_deg)
    }
    w_true = reconstruct_with_angles(dataset, config, overrides).metrics["w00"]
    assert w_nominal == pytest.approx(-0.1193, abs=0.005)
    assert w_true == pytest.approx(-0.1434, abs=0.005)
    assert w_true < w_nominal < 0.0
    assert abs(w_true) > abs(w_nominal) + 0.005


def full_stack_r(stack, counts, rho):
    """R = sum_k (n_k / (N p_k)) Pi_k on the full complex POVM stack, one row
    per (angle, bin), and the certified gap N (lambda_max(R) - 1) that bounds
    how far the log-likelihood of `rho` lies below the maximum (Glancy, Knill
    & Girard, NJP 14, 095017, 2012)."""
    d = rho.shape[0]
    flat = stack.reshape(-1, d * d)
    probs = np.maximum((flat @ rho.T.ravel()).real, 1e-12)
    r_op = ((counts / (counts.sum() * probs)) @ flat).reshape(d, d)
    return r_op, counts.sum() * (np.linalg.eigvalsh(r_op)[-1] - 1.0)


def reference_rrr(stack, counts, gap_tol, max_iters=20_000):
    """The plain R rho R loop on the full complex POVM stack, run from the
    maximally mixed state until its own certified gap is at most gap_tol."""
    d = stack.shape[1]
    rho = np.eye(d, dtype=complex) / d
    for _ in range(max_iters):
        r_op, gap = full_stack_r(stack, counts, rho)
        if gap <= gap_tol:
            return FockDensityMatrix(nmax=d - 1, entries=rho)
        rho = r_op @ rho @ r_op
        rho = 0.5 * (rho + rho.conj().T)
        rho /= np.trace(rho).real
    raise AssertionError(f"the reference did not reach a gap of {gap_tol} in {max_iters} steps")


def assert_certified_optimum(result, stack, counts, reference_gap_tol):
    """`result` ends within 0.01 nats of the optimum by the gap of its own R on
    the full stack, is PSD, and has the W(0,0) of a full-stack reference."""
    rho = result.rho.entries
    _, gap = full_stack_r(stack, counts, rho)
    assert result.converged
    assert gap <= 0.01
    assert gap == pytest.approx(result.metrics["gap"], abs=1e-6)
    assert np.linalg.eigvalsh(rho).min() >= -1e-12
    reference = reference_rrr(stack, counts, reference_gap_tol)
    assert abs(result.metrics["w00"] - wigner_origin(reference)) <= 1e-4


def reference_case(rho, case):
    """Dataset, config and POVM angles of one full-stack comparison case."""
    nominal = np.radians([0.0, 30.0, 60.0, 90.0, 120.0, 150.0])
    drawn, count, grid = nominal, 5000, {}
    if case == "overrides":
        drawn = np.radians([0.0, 33.5, 65.6, 90.0, 133.1, 163.3])
    elif case == "scan":
        # 18 angles, each measured a few degrees off its nominal value
        nominal = np.radians(4.0 + 10.0 * np.arange(18))
        drawn = nominal + np.radians(np.random.default_rng(9).uniform(-3.0, 3.0, 18))
        count = 4000
    blocks = {
        th: sample_quadratures(rho, dr, count, seed=300 + i)
        for i, (th, dr) in enumerate(zip(nominal, drawn))
    }
    dataset = dataset_from_angle_blocks(blocks)
    if case == "empty-bin":
        # a grid wider than the data: the open edge bins, and bins in both
        # tails between occupied ones, are empty at every angle
        grid = {"bin_min": -8.0, "bin_max": 8.0}
    config = ReconstructionConfig(
        nmax=12,
        **grid,
        eta_correction=HD_ETA,
        angle_overrides=None if case == "nominal" else dict(zip(nominal, drawn)),
    )
    return dataset, config, drawn


@pytest.mark.parametrize("case", ["nominal", "overrides", "scan", "empty-bin"])
def test_mle_matches_full_stack_reference(lossy_kitten, case):
    # the reconstruction iterates on the packed real POVM block, the occupied
    # bins and per-angle phases; it must reach the optimum of the plain
    # iteration on the full stack, run to the same certified gap
    dataset, config, drawn = reference_case(lossy_kitten, case)
    result = mle_reconstruct(dataset, config)
    binned = bin_dataset(dataset, config)
    if case == "empty-bin":
        occupied = np.flatnonzero(binned.counts.any(axis=0))
        assert np.any(np.diff(occupied) > 1) and occupied[0] > 0
    stack = build_povm_stack(drawn, binned.edges, HD_ETA, 12)
    counts = binned.counts.ravel()
    assert_certified_optimum(result, stack, counts, config.gap_tol)
    # two iterations take exactly one plain step, G(I / sqrt(d)), and mix
    # nothing, so the packed products must match the full stack step for step
    one_step = mle_reconstruct(dataset, replace(config, max_iters=2))
    rho0 = np.eye(13, dtype=complex) / 13
    r_op, _ = full_stack_r(stack, counts, rho0)
    expected = r_op @ rho0 @ r_op
    expected /= np.trace(expected).real
    np.testing.assert_allclose(one_step.rho.entries, expected, rtol=0, atol=1e-12)
    _, gap = full_stack_r(stack, counts, expected)
    assert one_step.metrics["gap"] == pytest.approx(gap, rel=1e-9)
    occupied = counts > 0
    lls = [
        counts[occupied] @ np.log((stack.reshape(-1, 169) @ rho.T.ravel()).real[occupied])
        for rho in (rho0, expected)
    ]
    np.testing.assert_allclose(one_step.loglik_history, lls, rtol=1e-12)


@pytest.mark.parametrize("name", ["local", "transmitted"])
def test_shipped_reconstructions_reach_the_certified_optimum(name):
    # the likelihood-step stop used to leave gaps of 0.069 (local) and 2.68
    # (transmitted) nats and W(0,0) 3.9e-4 and 3.3e-4 from the optimum
    cfg = load_config(CONFIGS / f"{name}.ini")
    source, _ = simulate_source_state(cfg.state)
    dataset = detect_and_sample(apply_link(source, cfg.channel), cfg.detection, cfg.sampling)
    assert cfg.reconstruction.gap_tol == 0.01
    for eta in (1.0, cfg.detection.hd_eta):
        config = cfg.reconstruction.to_config(eta)
        binned = bin_dataset(dataset, config)
        stack = build_povm_stack(binned.angles, binned.edges, eta, config.nmax)
        result = mle_reconstruct(dataset, config)
        assert_certified_optimum(result, stack, binned.counts.ravel(), 1e-4)


# iterations_used, gap and the SHA-256 of rho.entries of each reference case,
# recorded when every step past the GAP_CHECK_GAIN test ran an eigvalsh of R
PINNED_RECONSTRUCTIONS = {
    ("scan", 6): (
        89, 0.009286369833105823,
        "a4bb33f6a944dbcd68c97d628036f08587e42201af68c6aba1795ef0c430781d",
    ),
    ("scan", 12): (
        106, 0.004859597924067316,
        "dade20987a940b159f11bac886626e655d0e0da973cb9986025a139fc87fceaa",
    ),
    ("nominal", 12): (
        94, 0.005070570097132077,
        "ceb6881cd0fb9455c1e899a4864649d026a962f5df036bce80aec1be60804211",
    ),
    ("overrides", 12): (
        78, 0.00953573875195346,
        "e99544b1b9ef07802f7a9f15e8fe9afe0b45bea42264e7a71f87439c03a7912c",
    ),
    ("empty-bin", 12): (
        94, 0.0050705113441296135,
        "60e0d8b2e07e991db096362262d06b841fb7ff4aa81770264b565059eb67d976",
    ),
}


@pytest.mark.parametrize("case, nmax", sorted(PINNED_RECONSTRUCTIONS))
def test_rayleigh_screen_keeps_reconstructions_bit_for_bit(lossy_kitten, monkeypatch, case, nmax):
    # an eigvalsh skipped because the Rayleigh quotient already shows a gap
    # above gap_tol could not have stopped the loop: every stop, and so the
    # state, the step count and the reported gap, stay as they were
    dataset, config, _ = reference_case(lossy_kitten, case)
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(*args, **kwargs):
        calls.append(args)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    result = mle_reconstruct(dataset, replace(config, nmax=nmax))
    iterations, gap, digest = PINNED_RECONSTRUCTIONS[case, nmax]
    assert result.iterations_used == iterations
    assert result.metrics["gap"] == gap
    assert hashlib.sha256(result.rho.entries.tobytes()).hexdigest() == digest
    # the screen leaves at most one eigvalsh in four steps; with every gap
    # test run these took 51-76 calls, one per 1.3-1.7 steps
    assert 4 * len(calls) <= result.iterations_used


def test_bootstrap_statistics(lossy_kitten):
    config = ReconstructionConfig(nmax=6, max_iters=400)
    boot = bootstrap_metric(
        lossy_kitten,
        config,
        per_angle_counts={0.0: 800, math.pi / 4: 800, math.pi / 2: 800},
        n_resamples=6,
        seed=3,
    )
    assert boot.metric == "w00"
    assert boot.values.size == 6
    assert boot.failures == 0
    assert boot.valid
    assert boot.std > 0.0
    assert boot.mean == pytest.approx(wigner_origin(lossy_kitten), abs=0.05)


def test_bootstrap_stream_is_pinned(lossy_kitten, monkeypatch):
    # the SHA-256 of each resample's drawn values pins the random stream
    # exactly; the counts differ per angle. Re-pinned when the marginal became
    # a per-state cosine/sine table (839 values moved, each by <= 7.3e-16)
    digests = []

    def recording_sampler(*args, **kwargs):
        dataset = draw_homodyne(*args, **kwargs)
        digests.append(hashlib.sha256(dataset.values.tobytes()).hexdigest())
        return dataset

    monkeypatch.setattr(tomography, "draw_homodyne", recording_sampler)
    boot = bootstrap_metric(
        lossy_kitten,
        ReconstructionConfig(nmax=6, eta_correction=HD_ETA),
        per_angle_counts={0.0: 300, math.pi / 3: 400, math.pi / 2: 350},
        n_resamples=3,
        seed=5,
    )
    assert digests == [
        "79bb5c1405775144a1d1989be3b15cb52cfff0df6b500d69692614597d11bdfd",
        "ce709c1e56dc2a4640961764f1c1f19c6b66075348e9b6b7494cfdbf3063b749",
        "337b66adcb34b764927ec0f2ae7fb9611f2a475284a1da657d4d5bb21eb65573",
    ]
    # W(0,0) of each resample, re-recorded when the stop moved from a 1e-9
    # relative likelihood step to a certified gap of 0.01 nats under Anderson
    # acceleration (each moved by <= 6e-5)
    expected = [-0.024477218016893662, -0.018415216611278533, -0.058562973375790923]
    np.testing.assert_array_equal(boot.values, expected)


def test_bootstrap_resamples_are_sample_homodyne_draws(lossy_kitten):
    # the bootstrap builds the marginal CDFs once; each resample's W(0,0) must
    # equal that of a fresh draw at the true angles, tagged with the nominal
    # ones, on the same seeds
    nominal = np.radians([0.0, 60.0, 120.0])
    true = np.radians([0.0, 63.0, 118.0])
    counts = [400, 500, 300]
    config = ReconstructionConfig(
        nmax=6, eta_correction=HD_ETA, angle_overrides=dict(zip(nominal, true))
    )
    boot = bootstrap_metric(
        lossy_kitten, config, dict(zip(nominal, counts)), n_resamples=3, seed=6
    )
    detected = loss_channel(lossy_kitten, HD_ETA)
    expected = []
    for resample in np.random.SeedSequence(6).spawn(3):
        seeds = [int(s.generate_state(1)[0]) for s in resample.spawn(nominal.size)]
        dataset = draw_homodyne(homodyne_cdfs(detected, true), counts, seeds, nominal)
        expected.append(mle_reconstruct(dataset, config).metrics["w00"])
    assert boot.failures == 0
    np.testing.assert_array_equal(boot.values, expected)


def test_bootstrap_draws_at_override_angles(lossy_kitten):
    # with angle overrides the resamples must be drawn at the true angles and
    # tagged with the nominal ones; resampling at the true angles directly then
    # gives the same draws, POVMs and values
    nominal = np.radians([0.0, 45.0, 90.0, 135.0])
    true = np.radians([0.0, 60.0, 90.0, 160.0])
    config = ReconstructionConfig(nmax=6)
    overridden = bootstrap_metric(
        lossy_kitten,
        replace(config, angle_overrides=dict(zip(nominal, true))),
        per_angle_counts={th: 1500 for th in nominal},
        n_resamples=2,
        seed=8,
    )
    direct = bootstrap_metric(
        lossy_kitten,
        config,
        per_angle_counts={th: 1500 for th in true},
        n_resamples=2,
        seed=8,
    )
    assert overridden.failures == direct.failures == 0
    np.testing.assert_array_equal(overridden.values, direct.values)


@pytest.fixture
def povm_block_calls(monkeypatch):
    """The (edges, eta, nmax) of each POVM block built, with no block kept before or after.

    Each build applies `loss_adjoint` once, with eta as its second argument,
    and a block the cache returns applies none; the edges are the build's
    own, read from its frame.
    """
    calls = []
    original = tomography.loss_adjoint

    def counting_adjoint(op, eta):
        edges = sys._getframe(1).f_locals["edges"]
        calls.append((edges, eta, op.shape[-1] - 1))
        return original(op, eta)

    monkeypatch.setattr(tomography, "loss_adjoint", counting_adjoint)
    # blocks are shared process-wide: a block an earlier test built must not count
    tomography._povm_block.cache_clear()
    yield calls
    tomography._povm_block.cache_clear()


def test_bootstrap_shares_the_config_povm_block(lossy_kitten, povm_block_calls):
    # the block depends on the grid, eta and nmax only: a reconstruction and
    # its bootstrap on one config build it once
    calls = povm_block_calls
    config = ReconstructionConfig(nmax=6, eta_correction=HD_ETA)
    counts = {0.0: 400, math.pi / 3: 400, 2 * math.pi / 3: 400}
    dataset = small_dataset(loss_channel(lossy_kitten, HD_ETA), [0.0, 60.0, 120.0], 400, 9)
    result = mle_reconstruct(dataset, config)
    boot = bootstrap_metric(result.rho, config, counts, n_resamples=3, seed=2)
    assert boot.failures == 0
    assert len(calls) == 1
    overridden = replace(config, angle_overrides={th: th + 0.01 for th in counts})
    assert overridden.povm_block is config.povm_block
    assert len(calls) == 1
    assert not config.povm_block.flags.writeable
    with pytest.raises(ValueError):
        config.povm_block[0, 0, 0] = 1.0
    with pytest.raises(FrozenInstanceError):
        config.povm_block = np.zeros(1)
    other = replace(config, eta_correction=0.7)
    assert not np.array_equal(other.povm_block, config.povm_block)
    assert len(calls) == 2 and calls[1][1] == 0.7


def test_povm_block_is_kept_per_grid_eta_and_nmax(povm_block_calls):
    # configs that differ only in the stopping rule or the angle table share
    # one block; any other field builds a new one, and of the blocks built
    # the last two used are kept
    calls = povm_block_calls
    config = ReconstructionConfig(nmax=4, eta_correction=0.9)
    block = config.povm_block
    for same in ({"max_iters": 7}, {"gap_tol": 0.5}, {"angle_overrides": {0.0: 0.1}}):
        assert replace(config, **same).povm_block is block
    assert len(calls) == 1
    changes = [
        {"eta_correction": 0.8},
        {"nmax": 5},
        {"bin_width": 0.2},
        {"bin_min": -5.0},
        {"bin_max": 5.0},
    ]
    for n, change in enumerate(changes, start=2):
        changed = replace(config, **change)
        assert changed.povm_block is not block
        assert len(calls) == n
        np.testing.assert_array_equal(calls[-1][0], changed.bin_edges)
        assert calls[-1][1:] == (changed.eta_correction, changed.nmax)
    first, second, third = (replace(config, nmax=n) for n in (1, 2, 3))
    kept = [first.povm_block, second.povm_block]
    assert first.povm_block is kept[0] and second.povm_block is kept[1]
    built = len(calls)
    third.povm_block  # evicts `first`, the least recently used
    assert second.povm_block is kept[1]
    assert len(calls) == built + 1
    rebuilt = first.povm_block
    assert rebuilt is not kept[0] and len(calls) == built + 2
    np.testing.assert_array_equal(rebuilt, kept[0])


def test_povm_stack_takes_the_config_block(povm_block_calls):
    # the stack and the kernel share one memo, keyed on the grid's own edges
    config = ReconstructionConfig(nmax=5, eta_correction=0.9)
    block = config.povm_block
    angles = np.array([0.0, 0.7])
    stack = build_povm_stack(angles, config.bin_edges, config.eta_correction, config.nmax)
    again = build_povm_stack(angles, list(config.bin_edges), 0.9, 5)
    assert len(povm_block_calls) == 1
    np.testing.assert_array_equal(again, stack)
    # at theta = 0 every phase is exactly 1, so the stack's first block is L_j
    np.testing.assert_array_equal(stack.reshape(2, *block.shape)[0], block)


# every sample lies far past the grid, in the open edge bin [6, 10.24] (the
# wavefunctions are cut off at 10.24 at nmax = 2), whose POVM element is nonzero
FAR_DATASET = QuadratureDataset(angles=np.zeros(500), values=np.full(500, 50.0))
# on a grid out to +-12 the bins past that cutoff have zero POVM elements at
# nmax = 2: no state gives a sample there any probability
PAST_CUTOFF_GRID = dict(nmax=2, bin_min=-12.0, bin_max=12.0)


def vacuum_with_outlier(per_angle, x):
    """Vacuum samples at 0, 60 and 120 degrees (seeds 1, 2, 3), plus one at x at 0 degrees."""
    vacuum = FockDensityMatrix(nmax=0, entries=np.ones((1, 1)))
    data = sample_homodyne(vacuum, np.radians([0.0, 60.0, 120.0]), per_angle, [1, 2, 3])
    return QuadratureDataset(angles=np.append(data.angles, 0.0), values=np.append(data.values, x))


def test_far_data_certify_with_all_mass_out_of_range():
    # the exact likelihood puts the population where the edge bin's element
    # is largest; only out_of_range_fraction says that the grid missed the data
    config = ReconstructionConfig(nmax=2)
    result = mle_reconstruct(FAR_DATASET, config)
    assert result.converged is True
    assert result.metrics["gap"] <= config.gap_tol
    assert result.metrics["floored_bins"] == 0
    assert result.metrics["out_of_range_fraction"] == 1.0
    assert result.rho.entries[2, 2].real > 0.9


def test_a_floored_bin_voids_the_certificate():
    # R has no weight on the outlier's zero element, so tr(rho R) < 1 and
    # N (lambda_max(R) - 1) goes negative: only the floored count refuses it
    config = ReconstructionConfig(**PAST_CUTOFF_GRID)
    result = mle_reconstruct(vacuum_with_outlier(200, 11.0), config)
    assert result.metrics["floored_bins"] == 1
    assert result.metrics["gap"] < 0.0
    assert result.converged is False
    assert result.metrics["converged"] is False
    assert tomography.uncertified_reason(result.metrics, config.gap_tol) == (
        "1 observed bin(s) of zero model probability: no state in the Fock space "
        "explains them, so the reconstruction is not certified"
    )


def test_data_wholly_past_the_cutoff_raise():
    # R would be 0, and the plain step R A / |R A| has no value
    data = QuadratureDataset(angles=np.zeros(500), values=np.full(500, 11.0))
    with pytest.raises(NumericsError, match="every observed bin has zero model probability"):
        mle_reconstruct(data, ReconstructionConfig(**PAST_CUTOFF_GRID))


def _raise_on_second_reconstruction(monkeypatch):
    calls = []

    def failing(dataset, config):
        calls.append(dataset)
        if len(calls) == 2:
            raise NumericsError("injected failure")
        return mle_reconstruct(dataset, config)

    monkeypatch.setattr(tomography, "mle_reconstruct", failing)


def _floor_second_draw(monkeypatch):
    # the second resample's data gain one sample past the wavefunction cutoff
    calls = []

    def draw_past_cutoff(*args, **kwargs):
        calls.append(draw_homodyne(*args, **kwargs))
        if len(calls) != 2:
            return calls[-1]
        return QuadratureDataset(
            angles=np.append(calls[-1].angles, 0.0), values=np.append(calls[-1].values, 11.0)
        )

    monkeypatch.setattr(tomography, "draw_homodyne", draw_past_cutoff)


def _stop_second_early(monkeypatch):
    calls = []

    def stopped(dataset, config):
        calls.append(dataset)
        return mle_reconstruct(dataset, replace(config, max_iters=1) if len(calls) == 2 else config)

    monkeypatch.setattr(tomography, "mle_reconstruct", stopped)


@pytest.mark.parametrize(
    "fault", [_raise_on_second_reconstruction, _floor_second_draw, _stop_second_early]
)
@pytest.mark.parametrize("n_resamples, valid", [(5, False), (10, True)])
def test_a_failed_resample_is_counted_and_shifts_no_other(
    lossy_kitten, monkeypatch, fault, n_resamples, valid
):
    kwargs = dict(
        config=ReconstructionConfig(**PAST_CUTOFF_GRID, eta_correction=HD_ETA),
        per_angle_counts={0.0: 300, math.pi / 3: 400, math.pi / 2: 350},
        n_resamples=n_resamples,
        seed=5,
    )
    clean = bootstrap_metric(lossy_kitten, **kwargs)
    assert clean.failures == 0
    fault(monkeypatch)
    boot = bootstrap_metric(lossy_kitten, **kwargs)
    assert boot.failures == 1
    np.testing.assert_array_equal(boot.values, np.delete(clean.values, 1))
    # more than 10 % of the resamples failed at 5, not at 10
    assert boot.valid is valid


@pytest.mark.parametrize("fault, cause", [
    (_raise_on_second_reconstruction, "NumericsError: injected failure"),
    (_floor_second_draw, "1 observed bin(s) of zero model probability: no state in the "
                         "Fock space explains them, so the reconstruction is not certified"),
])
def test_a_failed_resample_keeps_its_cause(lossy_kitten, monkeypatch, fault, cause):
    kwargs = dict(
        config=ReconstructionConfig(**PAST_CUTOFF_GRID, eta_correction=HD_ETA),
        per_angle_counts={0.0: 300, math.pi / 3: 400, math.pi / 2: 350},
        n_resamples=5,
        seed=5,
    )
    assert bootstrap_metric(lossy_kitten, **kwargs).failure_causes == []
    fault(monkeypatch)
    boot = bootstrap_metric(lossy_kitten, **kwargs)
    assert boot.failure_causes == [cause]
    assert boot.failures == 1


def test_a_bootstrap_without_two_successes_names_its_first_failure(lossy_kitten):
    with pytest.raises(NumericsError, match=(
        r"fewer than 2 successful resamples; the first failure: reconstruction did not "
        r"converge: gap \S+ above gap_tol 0.01 after 1 iterations$"
    )):
        bootstrap_metric(
            lossy_kitten,
            ReconstructionConfig(nmax=6, max_iters=1),
            per_angle_counts={0.0: 500, math.pi / 2: 500},
            n_resamples=3,
            seed=4,
        )


@pytest.mark.parametrize("nmax", range(2, 9))
def test_one_outlier_on_the_default_grid_certifies_at_every_nmax(nmax):
    # vacuum at three angles plus one sample at x = 7, in the open edge bin:
    # the certified MLE gives that bin 5.3e-17 to 7.7e-10, below 1e-12 in 28
    # of the 42 cases over nmax 2-8, so a probability floor there would break
    # tr(rho R) = 1
    uncertified = []
    for per_angle, eta in itertools.product((100, 1000, 10_000), (1.0, 0.88)):
        config = ReconstructionConfig(nmax=nmax, eta_correction=eta)
        metrics = mle_reconstruct(vacuum_with_outlier(per_angle, 7.0), config).metrics
        if not (metrics["converged"] and metrics["gap"] <= config.gap_tol):
            uncertified.append((per_angle, eta, metrics["gap"]))
        assert metrics["floored_bins"] == 0
    assert uncertified == []


def test_bootstrap_requires_successful_resamples(lossy_kitten):
    # one-iteration reconstructions never converge, so every resample fails
    config = ReconstructionConfig(nmax=6, max_iters=1)
    with pytest.raises(NumericsError):
        bootstrap_metric(
            lossy_kitten,
            config,
            per_angle_counts={0.0: 500, math.pi / 2: 500},
            n_resamples=3,
            seed=4,
        )


def test_bootstrap_requires_positive_counts(lossy_kitten):
    with pytest.raises(ValidationError):
        bootstrap_metric(lossy_kitten, ReconstructionConfig(nmax=6), {0.0: 100, 1.0: 0})


@pytest.mark.parametrize("tol", [math.nan, math.inf])
def test_config_rejects_bad_gap_tol(tol):
    # inf would stop at the first small step, nan would never stop
    with pytest.raises(ValidationError):
        ReconstructionConfig(gap_tol=tol)


def test_bin_edges_must_increase():
    with pytest.raises(ValidationError, match="degenerate"):
        ReconstructionConfig(nmax=4, bin_min=1.0, bin_max=-1.0)
    with pytest.raises(ValidationError, match="degenerate"):
        ReconstructionConfig(nmax=4, bin_width=-0.1)
    with pytest.raises(ValidationError):
        ReconstructionConfig(nmax=4, eta_correction=0.0)


@pytest.mark.parametrize("key", ["bin_min", "bin_max", "bin_width"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_grid(key, value):
    # edges [-6, nan, 6] used to reach np.repeat and die with a bare ValueError,
    # which the bootstrap could not count as a failed resample
    with pytest.raises(ValidationError, match="degenerate"):
        ReconstructionConfig(**{key: value})


def test_config_caps_the_bin_count():
    # a 20 000-bin edges array used to get past MAX_BIN_COUNT
    with pytest.raises(ValidationError, match="allowed"):
        ReconstructionConfig(bin_width=12.0 / (2 * MAX_BIN_COUNT))
    at_cap = ReconstructionConfig(bin_width=12.0 / MAX_BIN_COUNT)
    assert at_cap.bin_edges.size == MAX_BIN_COUNT + 1
    assert at_cap.bin_edges[0] == -6.0 and at_cap.bin_edges[-1] == 6.0


def test_replace_rebuilds_the_grid():
    config = replace(ReconstructionConfig(), bin_width=0.5, bin_max=4.0)
    assert config.bin_edges.tobytes() == np.linspace(-6.0, 4.0, 21).tobytes()
    assert config == ReconstructionConfig(bin_width=0.5, bin_max=4.0)
    with pytest.raises(ValidationError, match="does not tile"):
        replace(config, bin_width=0.3)


def test_empty_dataset_rejected():
    config = ReconstructionConfig(nmax=4)
    with pytest.raises(ValidationError):
        bin_dataset(dataset_from_angle_blocks({}), config)
