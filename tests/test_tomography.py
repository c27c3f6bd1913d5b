import math
from dataclasses import replace

import numpy as np
import pytest

from kittensim import (
    NumericsError,
    ReconstructionConfig,
    ValidationError,
    bin_dataset,
    bootstrap_metric,
    build_povm_stack,
    dataset_from_angle_blocks,
    default_bin_edges,
    loss_channel,
    mle_reconstruct,
    reconstruct_with_angles,
    sample_quadratures,
    state_fidelity,
    wigner_origin,
)

from conftest import HD_ETA


def small_dataset(rho, angles_deg, count, seed):
    blocks = {
        math.radians(d): sample_quadratures(rho, math.radians(d), count, seed=seed + i)
        for i, d in enumerate(angles_deg)
    }
    return dataset_from_angle_blocks(blocks)


def test_bin_dataset_conserves_counts():
    config = ReconstructionConfig(nmax=4, bin_edges=np.linspace(-1.0, 1.0, 5))
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
    stack = build_povm_stack(angles, default_bin_edges(), eta, 12)
    assert stack.shape == (6 * 122, 13, 13)
    for (k, m, n), value in PIPELINE_POVM_PINS[eta].items():
        assert abs(stack[k, m, n] - value) <= 1e-12, (k, m, n)
        # Hermitian, and angle j is a phase exp(i theta (m - n)) on angle 0
        assert abs(stack[k, n, m] - np.conj(value)) <= 1e-12
        base = stack[k % 122, m, n] * np.exp(1j * angles[k // 122] * (m - n))
        assert abs(stack[k, m, n] - base) <= 1e-15


def test_loglikelihood_is_monotone(lossy_kitten):
    dataset = small_dataset(lossy_kitten, (0.0, 45.0, 90.0, 135.0), 1500, seed=21)
    config = ReconstructionConfig(nmax=8, max_iters=300, loglik_tol=1e-10)
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
    assert result.converged
    assert state_fidelity(result.rho, lossy_kitten) >= 0.97
    assert result.metrics["w00"] == pytest.approx(wigner_origin(lossy_kitten), abs=0.03)
    assert result.diagnostics["out_of_range_fraction"] < 1e-3


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
        dataset, config, {th: th for th in dataset.angle_set}
    )
    assert np.array_equal(plain.rho.entries, overridden.rho.entries)


def test_angle_overrides_must_cover_dataset(lossy_kitten):
    dataset = small_dataset(lossy_kitten, (0.0, 60.0, 120.0), 500, seed=9)
    config = ReconstructionConfig(nmax=6, max_iters=50)
    with pytest.raises(ValidationError):
        reconstruct_with_angles(dataset, config, {0.0: 0.0})


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


def test_bin_edges_must_increase():
    with pytest.raises(ValidationError):
        ReconstructionConfig(nmax=4, bin_edges=np.array([0.0, -1.0, 1.0]))
    with pytest.raises(ValidationError):
        ReconstructionConfig(nmax=4, eta_correction=0.0)


def test_empty_dataset_rejected():
    config = ReconstructionConfig(nmax=4)
    with pytest.raises(ValidationError):
        bin_dataset(dataset_from_angle_blocks({}), config)
