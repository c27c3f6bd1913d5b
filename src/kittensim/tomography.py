"""Iterative maximum-likelihood homodyne tomography on binned quadrature data.

The expectation-maximization-style update rho <- N[R rho R] with
R = sum_j (n_j / (N p_j)) Pi_j climbs the binned multinomial log-likelihood;
POVM elements carry the detector efficiency so the reconstruction refers to
the state before detection loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import KittenError, NumericsError, ValidationError
from .fock import FockDensityMatrix, loss_channel, wigner_origin
from .quadrature import (
    QuadratureDataset,
    dataset_from_angle_blocks,
    marginal_variance,
    povm_element,
    sample_quadratures,
)

PROB_FLOOR = 1e-12
_ANGLE_TOL = 1e-9


def default_bin_edges() -> np.ndarray:
    """0.1-wide bins spanning [-6, 6] (the two open-ended edge bins are implicit)."""
    return np.linspace(-6.0, 6.0, 121)


@dataclass(frozen=True)
class ReconstructionConfig:
    nmax: int = 12
    bin_edges: np.ndarray = field(default_factory=default_bin_edges)
    eta_correction: float = 1.0
    max_iters: int = 2000
    loglik_tol: float = 1e-9
    angle_overrides: dict[float, float] | None = None

    def __post_init__(self) -> None:
        edges = np.asarray(self.bin_edges, dtype=float)
        if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0.0):
            raise ValidationError("bin_edges must be strictly increasing with >= 2 entries")
        if self.nmax < 1:
            raise ValidationError("nmax must be >= 1")
        if not 0.0 < self.eta_correction <= 1.0:
            raise ValidationError("eta_correction must lie in (0, 1]")
        if self.max_iters < 1 or self.loglik_tol <= 0.0:
            raise ValidationError("max_iters must be >= 1 and loglik_tol positive")
        object.__setattr__(self, "bin_edges", edges)


@dataclass(frozen=True)
class BinnedData:
    """Histogrammed dataset: per-angle counts including two open-ended edge bins."""

    angles: np.ndarray            # nominal angles, radians
    counts: np.ndarray            # shape (n_angles, n_bins + 2)
    edges: np.ndarray
    out_of_range_fraction: float

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def bin_dataset(dataset: QuadratureDataset, config: ReconstructionConfig) -> BinnedData:
    """Histogram the samples per nominal angle on the configured bin grid.

    Samples outside the outermost edges land in the two open-ended edge bins;
    their overall fraction is reported so callers can gate on it.
    """
    if len(dataset) == 0:
        raise ValidationError("empty dataset")
    edges = config.bin_edges
    angles = np.asarray(sorted(dataset.angle_set))
    counts = np.zeros((angles.size, edges.size + 1), dtype=float)
    for i, th in enumerate(angles):
        vals = dataset.for_angle(th, _ANGLE_TOL)
        inner, _ = np.histogram(vals, bins=edges)
        counts[i, 1:-1] = inner
        counts[i, 0] = np.count_nonzero(vals < edges[0])
        counts[i, -1] = np.count_nonzero(vals >= edges[-1])
        # histogram puts values == edges[-1] into the last interior bin; undo
        counts[i, -2] -= np.count_nonzero(vals == edges[-1])
    out_frac = float((counts[:, 0].sum() + counts[:, -1].sum()) / counts.sum())
    return BinnedData(
        angles=angles, counts=counts, edges=edges, out_of_range_fraction=out_frac
    )


def _bin_bounds(edges: np.ndarray) -> list[tuple[float, float]]:
    bounds = [(-math.inf, float(edges[0]))]
    bounds.extend((float(a), float(b)) for a, b in zip(edges[:-1], edges[1:]))
    bounds.append((float(edges[-1]), math.inf))
    return bounds


def build_povm_stack(
    angles: np.ndarray, edges: np.ndarray, eta: float, nmax: int
) -> np.ndarray:
    """Stacked POVM elements, shape (n_angles * (n_bins + 2), dim, dim)."""
    bounds = _bin_bounds(edges)
    stack = np.empty((angles.size * len(bounds), nmax + 1, nmax + 1), dtype=complex)
    j = 0
    for th in angles:
        for lo, hi in bounds:
            stack[j] = povm_element(float(th), lo, hi, eta, nmax)
            j += 1
    return stack


@dataclass(frozen=True)
class ReconstructionResult:
    rho: FockDensityMatrix
    loglik_history: np.ndarray
    iterations_used: int
    converged: bool
    metrics: dict
    diagnostics: dict


def _resolve_angles(angles: np.ndarray, overrides: dict[float, float] | None) -> np.ndarray:
    if overrides is None:
        return angles
    resolved = np.empty_like(angles)
    for i, nominal in enumerate(angles):
        hit = [v for k, v in overrides.items() if abs(k - nominal) < _ANGLE_TOL]
        if not hit:
            raise ValidationError(
                f"angle override table is missing nominal angle "
                f"{math.degrees(nominal):.4f} deg"
            )
        resolved[i] = hit[0]
    return resolved


def mle_reconstruct(
    dataset: QuadratureDataset, config: ReconstructionConfig
) -> ReconstructionResult:
    """Run the R rho R iteration from the maximally mixed state to convergence.

    Stops when the relative log-likelihood increment drops below
    config.loglik_tol, or flags converged=False after config.max_iters.
    """
    binned = bin_dataset(dataset, config)
    povm_angles = _resolve_angles(binned.angles, config.angle_overrides)
    stack = build_povm_stack(
        povm_angles, binned.edges, config.eta_correction, config.nmax
    )
    counts = binned.counts.ravel()
    return _mle_core(stack, counts, binned, config)


def _mle_core(
    stack: np.ndarray,
    counts: np.ndarray,
    binned: BinnedData,
    config: ReconstructionConfig,
) -> ReconstructionResult:
    d = config.nmax + 1
    total = counts.sum()
    if total <= 0:
        raise ValidationError("dataset has no counts")
    flat = stack.reshape(stack.shape[0], d * d)
    active = counts > 0

    rho = np.eye(d, dtype=complex) / d
    history: list[float] = []
    converged = False
    floored_bins = 0
    iters = 0
    for iters in range(1, config.max_iters + 1):
        probs = (flat @ rho.T.ravel()).real
        low = probs < PROB_FLOOR
        floored_bins = int(np.count_nonzero(low & active))
        probs = np.maximum(probs, PROB_FLOOR)
        ll = float(counts[active] @ np.log(probs[active]))
        history.append(ll)
        if len(history) > 1:
            if (history[-1] - history[-2]) < config.loglik_tol * abs(history[-2]):
                converged = True
                break
        coeff = counts / (total * probs)
        r_op = (coeff @ flat).reshape(d, d)
        rho = r_op @ rho @ r_op
        rho = 0.5 * (rho + rho.conj().T)
        rho /= np.trace(rho).real

    state = FockDensityMatrix(nmax=config.nmax, entries=rho)
    metrics = {
        "w00": wigner_origin(state),
        "var_deg": {
            "0": marginal_variance(state, 0.0),
            "90": marginal_variance(state, math.pi / 2.0),
        },
        "loglik": history[-1],
        "iterations": iters,
        "converged": converged,
    }
    diagnostics = {
        "floored_bins": floored_bins,
        "out_of_range_fraction": binned.out_of_range_fraction,
        "total_counts": int(total),
    }
    return ReconstructionResult(
        rho=state,
        loglik_history=np.asarray(history),
        iterations_used=iters,
        converged=converged,
        metrics=metrics,
        diagnostics=diagnostics,
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
    valid: bool


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
    Result is flagged invalid when more than 10% of resamples fail.
    """
    if n_resamples < 2:
        raise ValidationError("need at least 2 resamples")
    if not per_angle_counts:
        raise ValidationError("per_angle_counts must not be empty")
    detected = (
        loss_channel(rho, config.eta_correction)
        if config.eta_correction < 1.0
        else rho
    )
    angles = sorted(per_angle_counts)
    root = np.random.SeedSequence(seed)
    resample_seeds = root.spawn(n_resamples)

    def one(idx: int) -> float | None:
        child = resample_seeds[idx].spawn(len(angles))
        blocks = {}
        for k, th in enumerate(angles):
            # derive a plain integer seed for the sampler from the sequence
            sub_seed = int(child[k].generate_state(1)[0])
            blocks[th] = sample_quadratures(
                detected, th, per_angle_counts[th], seed=sub_seed
            )
        try:
            result = mle_reconstruct(dataset_from_angle_blocks(blocks), config)
        except KittenError:
            return None
        if not result.converged:
            return None
        return result.metrics["w00"]

    outcomes = [one(i) for i in range(n_resamples)]
    values = np.asarray([v for v in outcomes if v is not None])
    failures = n_resamples - values.size
    if values.size < 2:
        raise NumericsError("bootstrap produced fewer than 2 successful resamples")
    return BootstrapResult(
        metric="w00",
        values=values,
        mean=float(values.mean()),
        std=float(values.std(ddof=1)),
        n_resamples=n_resamples,
        failures=failures,
        valid=failures <= 0.1 * n_resamples,
    )
