"""Iterative maximum-likelihood homodyne tomography on binned quadrature data.

The expectation-maximization-style update rho <- N[R rho R] with
R = sum_j (n_j / (N p_j)) Pi_j climbs the binned multinomial log-likelihood;
POVM elements carry the detector efficiency so the reconstruction refers to
the state before detection loss. The iteration runs on an amplitude A with
rho = A A^dag, is Anderson-accelerated, and stops on a certified bound on its
distance from the maximum likelihood.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .errors import KittenError, NumericsError, ValidationError
from .fock import FockDensityMatrix, loss_adjoint, loss_channel, wigner_origin
from .quadrature import (
    QuadratureDataset,
    _angle_phases,
    draw_homodyne,
    fock_wavefunctions,
    homodyne_cdfs,
    marginal_variance,
)
from .util import lookup_angle, match_angle, require_int

# only guards against a zero or rounding-negative p (a nonzero POVM element's top eigenvalue
# is above 1e-60 for nmax <= 40): weights <= 1 / PROB_FLOOR keep |R A|_F^2 finite to dim 1e4
PROB_FLOOR = 1e-150
# Anderson mixing of the R rho R step on the amplitude: the (A, G(A) - A) pairs
# kept, and the Tikhonov term of the normal equations relative to their trace
ANDERSON_DEPTH = 4
ANDERSON_REGULARIZATION = 1e-6
# the certified gap costs an eigvalsh of R, so it is tested only once a step
# gains less than this share of |log L|. Testing it on every step can stop on
# another certified state (it moves a pinned bootstrap W(0,0) in its fifth
# decimal), and made a 50-resample pipeline run 7-11 % slower (one Xeon vCPU).
# Past that test it is skipped where a Rayleigh quotient, shrunk by
# RAYLEIGH_MARGIN for rounding in it and in eigvalsh, already puts the gap
# above gap_tol (see mle_reconstruct)
GAP_CHECK_GAIN = 1e-7
RAYLEIGH_MARGIN = 1e-10
MAX_BIN_COUNT = 10_000  # the shipped grid has 120; 10^7 would take the POVM block ~16 GB


@dataclass(frozen=True)
class ReconstructionConfig:
    """One reconstruction: Fock cutoff, bin grid, loss correction and stopping rule.

    The grid is bins of bin_width tiling [bin_min, bin_max], plus two implicit
    open-ended edge bins; `bin_edges` is built on construction. `povm_block` is
    built on first use and shared by every config with the same grid,
    eta_correction and nmax, whatever its angles and stopping rule; the blocks
    of the last 2 such keys are kept. The iteration stops once its
    log-likelihood is certified to lie within gap_tol nats of the maximum, or
    after max_iters steps.
    """

    nmax: int = 12
    bin_width: float = 0.1
    bin_min: float = -6.0
    bin_max: float = 6.0
    eta_correction: float = 1.0
    max_iters: int = 2000
    gap_tol: float = 0.01
    angle_overrides: dict[float, float] | None = None
    bin_edges: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        finite = all(map(math.isfinite, (self.bin_width, self.bin_min, self.bin_max)))
        if not finite or self.bin_width <= 0.0 or self.bin_max <= self.bin_min:
            raise ValidationError("reconstruction bin grid is degenerate")
        span = self.bin_max - self.bin_min
        widths = span / self.bin_width
        if widths > MAX_BIN_COUNT + 0.5:  # more than MAX_BIN_COUNT bins once rounded
            raise ValidationError(
                f"{widths:.6g} bins of width {self.bin_width!r}; at most {MAX_BIN_COUNT} allowed"
            )
        if not abs(round(widths) * self.bin_width - span) <= 1e-9 * span:
            raise ValidationError(
                f"bin_width {self.bin_width!r} does not tile [{self.bin_min!r}, "
                f"{self.bin_max!r}]: the span is {widths:.6g} widths"
            )
        require_int(self.nmax, "nmax", 1)
        require_int(self.max_iters, "max_iters", 1)
        if not 0.0 < self.eta_correction <= 1.0:
            raise ValidationError("eta_correction must lie in (0, 1]")
        if not 0.0 < self.gap_tol < math.inf:
            raise ValidationError("gap_tol must be positive and finite")
        overrides = self.angle_overrides or {}
        if not all(map(math.isfinite, [*overrides, *overrides.values()])):
            raise ValidationError("angle_overrides must map finite angles to finite angles")
        nominal = list(overrides)  # lookup_angle would take the first of two entries for one angle
        for i, angle in enumerate(nominal):
            if match_angle(angle, nominal[:i]) is not None:
                raise ValidationError(
                    f"angle_overrides name the nominal angle {math.degrees(angle):.4f} deg twice")
        edges = np.linspace(self.bin_min, self.bin_max, round(widths) + 1)
        object.__setattr__(self, "bin_edges", edges)

    @property
    def povm_block(self) -> np.ndarray:
        """The read-only `_povm_block` of this grid, eta_correction and nmax, shared."""
        return _povm_block(self.bin_edges.tobytes(), self.eta_correction, self.nmax)


@dataclass(frozen=True)
class BinnedData:
    """Histogrammed dataset: per-angle counts including two open-ended edge bins."""

    angles: np.ndarray            # nominal angles, radians
    counts: np.ndarray            # shape (n_angles, n_bins + 2)
    edges: np.ndarray
    out_of_range_fraction: float


def bin_dataset(dataset: QuadratureDataset, config: ReconstructionConfig) -> BinnedData:
    """Histogram the samples per nominal angle on the configured bin grid.

    Every distinct angle tag is one angle, so each sample is counted once.
    Samples outside the outermost edges land in the two open-ended edge bins;
    their overall fraction is reported so callers can gate on it.
    """
    if len(dataset) == 0:
        raise ValidationError("empty dataset")
    edges = config.bin_edges
    # samples come in runs of one tag: unique the runs, not every sample
    tags = dataset.angles
    starts = np.flatnonzero(np.concatenate([[True], tags[1:] != tags[:-1]]))
    angles, run_index = np.unique(tags[starts], return_inverse=True)
    angle_index = np.repeat(run_index, np.diff(starts, append=tags.size))
    # bin b holds lower[b] <= v < upper[b]: bin 0 is below edges[0], the last
    # bin takes values >= edges[-1]
    values = dataset.values
    lower = np.concatenate([[-np.inf], edges])
    upper = np.concatenate([edges, [np.inf]])
    # the edges are a linspace, so the guess from their spacing is at most one
    # bin off; values and span are finite, so an overflow gives +-inf, never NaN
    with np.errstate(over="ignore"):
        step = (edges[-1] - edges[0]) / (edges.size - 1)
        guess = np.clip((values - edges[0]) / step + 1.0, 0, edges.size).astype(np.intp)
    bins = guess + (values >= upper.take(guess)) - (values < lower.take(guess))
    columns = edges.size + 1
    counts = np.bincount(angle_index * columns + bins, minlength=angles.size * columns)
    counts = counts.reshape(angles.size, columns).astype(float)
    out_frac = float((counts[:, 0].sum() + counts[:, -1].sum()) / counts.sum())
    return BinnedData(
        angles=angles, counts=counts, edges=edges, out_of_range_fraction=out_frac
    )


@lru_cache(maxsize=2)
def _povm_block(edges: bytes, eta: float, nmax: int) -> np.ndarray:
    """Real, angle-independent POVM elements L_j, shape (n_bins + 2, dim, dim), read-only.

    L_j is the theta = 0 element of bin j with the detector efficiency folded
    in. The bin overlaps int_bin psi_m psi_n dx come from one wavefunction
    evaluation (16-node Gauss-Legendre per panel of width <= 0.5; the open
    edge bins are clipped where the wavefunctions have decayed to numerical
    zero), and the adjoint loss channel is applied once per bin. `edges` are
    the float64 bytes of the bin edges; the blocks of the last 2 keys are kept.
    """
    edges = np.frombuffer(edges)
    d = nmax + 1
    far = max(10.0, math.sqrt(2.0 * nmax + 1.0) + 8.0)
    bounds = np.clip(np.concatenate([[-far], edges, [far]]), -far, far)
    width = np.diff(bounds)
    # a bin wholly past the cutoff has zero width, so its one panel weighs 0
    panels = np.maximum(1, np.ceil(width / 0.5)).astype(int)
    first = np.cumsum(panels) - panels
    step = np.repeat(width / panels, panels)[:, None]
    index_in_bin = np.arange(panels.sum()) - np.repeat(first, panels)
    nodes, weights = np.polynomial.legendre.leggauss(16)
    xs = np.repeat(bounds[:-1], panels)[:, None] + step * (
        index_in_bin[:, None] + 0.5 * (1.0 + nodes)
    )
    psi = fock_wavefunctions(nmax, xs.ravel()).reshape(d, *xs.shape)
    per_panel = np.einsum("mpg,pg,npg->pmn", psi, 0.5 * step * weights, psi)
    block = loss_adjoint(np.add.reduceat(per_panel, first, axis=0), eta)
    block.flags.writeable = False
    return block


def build_povm_stack(
    angles: np.ndarray, edges: np.ndarray, eta: float, nmax: int
) -> np.ndarray:
    """Stacked POVM elements, shape (n_angles * (n_bins + 2), dim, dim), angle-major.

    Loss commutes with phase rotation, so every element is
    U(theta) L_j U(theta)^dag = Phi(theta) * L_j (element-wise) with the real,
    angle-independent block L_j of `_povm_block` (Lvovsky, J. Opt. B 6, S556,
    2004). The reconstruction iterates on the block and the phases directly;
    this full complex stack is for callers that want the elements themselves.
    """
    block = _povm_block(np.asarray(edges, dtype=float).tobytes(), eta, nmax)
    phases = _angle_phases(angles, nmax + 1)
    return (phases[:, None] * block[None]).reshape(-1, nmax + 1, nmax + 1)


@dataclass(frozen=True)
class ReconstructionResult:
    rho: FockDensityMatrix
    loglik_history: np.ndarray
    iterations_used: int
    converged: bool  # uncertified is None
    metrics: dict
    uncertified: str | None  # why the state is not certified; None when it is


def _resolve_angles(angles: np.ndarray, overrides: dict[float, float] | None) -> np.ndarray:
    """The true angle of each nominal angle; the table must name exactly `angles`."""
    if overrides is None:
        return angles
    for nominal in overrides:
        if match_angle(nominal, angles) is None:
            raise ValidationError(
                f"angle override table names nominal angle {math.degrees(nominal):.4f} deg, "
                "which has no samples"
            )
    return np.array([lookup_angle(overrides, nominal) for nominal in angles], dtype=float)


def mle_reconstruct(
    dataset: QuadratureDataset, config: ReconstructionConfig
) -> ReconstructionResult:
    """Anderson-accelerated R rho R from the maximally mixed state to the certified MLE.

    The samples are binned on the config's grid and the POVM element of bin j
    at angle a (resolved through config.angle_overrides) is Pi_aj = Phi_a * L_j
    (element-wise), with the config's real povm_block L_j. p_aj = tr(Pi_aj rho) is
    Re(Phi_a * rho^T) . L_j and R = sum_a Phi_a * (sum_j c_aj L_j). L_j and
    Re(Phi_a * rho^T) are real symmetric, so both products run on the
    dim (dim + 1) / 2 entries with m >= n, the off-diagonal ones counted twice
    in p, and R is written back with its upper triangle as the conjugate of
    the lower one, which keeps it exactly Hermitian. Bins empty at every angle
    add nothing to R or to the log-likelihood and are left out of both.

    The iterate is an amplitude A with rho = A A^dag, from A = I / sqrt(dim).
    The plain step G(A) = R A / |R A|_F has G G^dag = N[R rho R], a unit-trace
    PSD state without any projection. Anderson mixing (Walker & Ni, SIAM J.
    Numer. Anal. 49, 1715, 2011) of the last ANDERSON_DEPTH (A, G(A) - A)
    pairs proposes the next amplitude; a proposal whose log-likelihood does
    not beat the current iterate's is replaced by G(A) and the pairs are
    dropped. The iteration stops once N (lambda_max(R) - 1), which bounds
    ll* - ll(rho) (Glancy, Knill & Girard, NJP 14, 095017, 2012), is at most
    config.gap_tol. `uncertified` names the gap left after max_iters steps, or an observed
    bin of zero POVM element (past the wavefunction cutoff): it voids the bound's tr(rho R) = 1.
    The gap takes an eigvalsh of R, run on the last step and on steps that
    gain less than GAP_CHECK_GAIN of |log L|, except where the Rayleigh
    quotient v^dag R v at v, the top eigenvector of the last R whose gap was
    above gap_tol, already exceeds 1 + gap_tol / N. That skip is exact:
    lambda_max(R) >= v^dag R v, so a skipped eigvalsh could not have stopped
    the iteration, and the result is bit for bit that of running each one.
    """
    binned = bin_dataset(dataset, config)
    povm_angles = _resolve_angles(binned.angles, config.angle_overrides)
    d = config.nmax + 1
    total = binned.counts.sum()  # bin_dataset rejects an empty dataset, so total >= 1
    occupied = binned.counts.any(axis=0)
    counts = binned.counts[:, occupied]
    # flat indices of the entries with m >= n and of their mirror images, so
    # rho.ravel()[upper] is the lower triangle of rho^T
    rows, cols = np.tril_indices(d)
    lower, upper = rows * d + cols, cols * d + rows
    # L_j is symmetric only to about 1 ulp: its lower triangle is the one used
    packed = config.povm_block[occupied].reshape(-1, d * d)[:, lower]
    doubled = packed * np.where(rows == cols, 1.0, 2.0)
    packed_phases = _angle_phases(povm_angles, d).reshape(-1, d * d)[:, lower]
    if (zero := ~packed.any(axis=1)).all():  # bins past the wavefunction cutoff; R would be 0
        raise NumericsError("every observed bin has zero model probability at this nmax")
    active = np.flatnonzero(counts)
    active_counts = counts.ravel()[active]

    amp = np.eye(d, dtype=complex) / math.sqrt(d)
    top = np.full(d, 1.0 / math.sqrt(d))  # R's top eigenvector at the last eigvalsh
    fallback = None  # G(A) of the current iterate while `amp` is a mixed proposal
    r_flat = np.empty(d * d, dtype=complex)
    r_op = r_flat.reshape(d, d)  # a view: each step writes R through r_flat
    history: list[float] = []
    # differences of consecutive residuals G(A) - A and of consecutive G(A)
    residual_diffs: list[np.ndarray] = []
    step_diffs: list[np.ndarray] = []
    residual = step = None
    for iters in range(1, config.max_iters + 1):
        while True:
            rho = amp @ amp.conj().T
            probs = (packed_phases * rho.ravel()[upper]).real @ doubled.T
            active_probs = probs.ravel()[active]
            ll = float(active_counts @ np.log(np.maximum(active_probs, PROB_FLOOR)))
            if fallback is None or ll > history[-1]:
                break
            amp, fallback = fallback, None
            residual_diffs.clear()
            step_diffs.clear()
            residual = None
        history.append(ll)
        np.maximum(probs, PROB_FLOOR, out=probs)
        probs *= total  # counts / (total * probs), bit for bit
        r_lower = np.einsum("ap,ap->p", packed_phases, (counts / probs) @ packed)
        r_flat[upper] = r_lower.conj()
        r_flat[lower] = r_lower
        last = iters == config.max_iters
        if last or (iters > 1 and ll - history[-2] < GAP_CHECK_GAIN * abs(ll)):
            rayleigh = np.vdot(top, r_op @ top).real * (1.0 - RAYLEIGH_MARGIN)
            if last or total * (rayleigh - 1.0) <= config.gap_tol:
                gap = float(total * (np.linalg.eigvalsh(r_op)[-1] - 1.0))
                if last or gap <= config.gap_tol:
                    break
                top = np.linalg.eigh(r_op)[1][:, -1]
        new_step = r_op @ amp
        new_step = (new_step / math.sqrt(np.vdot(new_step, new_step).real)).ravel()
        new_residual = new_step - amp.ravel()
        if residual is not None:
            residual_diffs.append(new_residual - residual)
            step_diffs.append(new_step - step)
            del residual_diffs[: 1 - ANDERSON_DEPTH], step_diffs[: 1 - ANDERSON_DEPTH]
        residual, step = new_residual, new_step
        amp = step.reshape(d, d)
        if not residual_diffs:
            continue
        # the weights minimise |residual - weights . residual_diffs|
        diffs = np.array(residual_diffs)
        conj_diffs = diffs.conj()
        gram = conj_diffs @ diffs.T
        depth = len(residual_diffs)
        gram.flat[:: depth + 1] += ANDERSON_REGULARIZATION * gram.trace().real / depth
        weights = np.linalg.solve(gram, conj_diffs @ residual)
        mix = step - weights @ np.array(step_diffs)
        mix /= math.sqrt(np.vdot(mix, mix).real)
        amp, fallback = mix.reshape(d, d), amp
    floored_bins = int(np.count_nonzero(counts[:, zero]))

    state = FockDensityMatrix(nmax=config.nmax, entries=0.5 * (rho + rho.conj().T))
    uncertified = None if gap <= config.gap_tol else (
        f"reconstruction did not converge: gap {gap:.6g} above gap_tol "
        f"{config.gap_tol:g} after {iters} iterations")
    if floored_bins:  # the gap bounds nothing then, whatever its value
        uncertified = (f"{floored_bins} observed bin(s) of zero model probability: no state in the "
                       "Fock space explains them, so the reconstruction is not certified")
    metrics = {
        "w00": wigner_origin(state),
        "var_deg": {
            "0": marginal_variance(state, 0.0),
            "90": marginal_variance(state, math.pi / 2.0),
        },
        "loglik": history[-1],
        "gap": gap,
        "iterations": iters,
        "converged": uncertified is None,
        "floored_bins": floored_bins,
        "out_of_range_fraction": binned.out_of_range_fraction,
        "total_counts": int(total),
    }
    return ReconstructionResult(
        rho=state,
        loglik_history=np.asarray(history),
        iterations_used=iters,
        converged=uncertified is None,
        metrics=metrics,
        uncertified=uncertified,
    )


def reconstruct_with_angles(
    dataset: QuadratureDataset,
    config: ReconstructionConfig,
    true_angles: dict[float, float],
) -> ReconstructionResult:
    """Reconstruction with the POVM angles overridden per nominal angle.

    `true_angles` must cover every nominal angle present in the dataset; with
    the identity map this is bit-identical to mle_reconstruct.
    """
    return mle_reconstruct(dataset, replace(config, angle_overrides=true_angles))


# ---------------------------------------------------------------------------
# Parametric bootstrap
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BootstrapResult:
    metric: str
    values: np.ndarray
    mean: float
    std: float
    n_resamples: int
    failures: int
    failure_causes: list[str]  # one per failed resample, in resample order
    valid: bool  # uncertified is None

    @property
    def uncertified(self) -> str | None:
        return None if self.valid else (
            f"{self.failures} of {self.n_resamples} resamples failed (more than 10 %); "
            f"the first: {self.failure_causes[0]}")


def bootstrap_metric(
    rho: FockDensityMatrix,
    config: ReconstructionConfig,
    per_angle_counts: dict[float, int],
    n_resamples: int = 50,
    seed: int = 0,
) -> BootstrapResult:
    """Parametric bootstrap of the reconstructed W(0,0).

    Each resample draws fresh datasets from the marginals of the reconstructed
    state as seen by the detector (rho pushed through the detection loss when
    eta_correction < 1), re-runs the same reconstruction, and records W(0,0).
    With config.angle_overrides the samples are drawn at the override (true)
    angles and tagged with the nominal ones, as the measured data were.
    A resample fails when its reconstruction raises ("Type: message") or is
    not certified (its `uncertified` reason); each failure keeps its cause.
    The result is `uncertified` when more than 10% of resamples fail.
    """
    require_int(n_resamples, "n_resamples", 2)
    require_int(seed, "seed")
    if not per_angle_counts or min(per_angle_counts.values()) < 1:
        raise ValidationError("per_angle_counts must be non-empty and positive")
    detected = (
        loss_channel(rho, config.eta_correction)
        if config.eta_correction < 1.0
        else rho
    )
    angles = sorted(per_angle_counts)
    counts = [per_angle_counts[th] for th in angles]
    # every resample draws from the same marginals: one set of CDFs
    cdfs = homodyne_cdfs(detected, _resolve_angles(np.asarray(angles), config.angle_overrides))
    values, causes = [], []
    for resample in np.random.SeedSequence(seed).spawn(n_resamples):
        # one plain integer sampler seed per angle, derived from the resample's sequence
        seeds = [int(s.generate_state(1)[0]) for s in resample.spawn(len(angles))]
        dataset = draw_homodyne(cdfs, counts, seeds, angles)
        try:
            result = mle_reconstruct(dataset, config)
        except KittenError as exc:
            causes.append(f"{type(exc).__name__}: {exc}")
            continue
        if result.uncertified:
            causes.append(result.uncertified)
        else:
            values.append(result.metrics["w00"])
    values = np.asarray(values)
    if values.size < 2:
        raise NumericsError(
            f"bootstrap produced fewer than 2 successful resamples; the first failure: {causes[0]}"
        )
    return BootstrapResult(
        metric="w00",
        values=values,
        mean=float(values.mean()),
        std=float(values.std(ddof=1)),
        n_resamples=n_resamples,
        failures=len(causes),
        failure_causes=causes,
        valid=len(causes) <= 0.1 * n_resamples,
    )
