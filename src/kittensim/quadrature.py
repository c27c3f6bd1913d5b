"""Homodyne measurement model: rotated quadrature marginals and sampling.

The measured observable at local-oscillator angle theta is
q_theta = x cos(theta) + p sin(theta), realized on Fock-basis density matrices
by the phase rotation rho_mn -> rho_mn exp(i (n - m) theta). Angles are radians
in memory; file formats use degrees.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, ValidationError
from .fock import FockDensityMatrix, fock_wavefunctions
from .util import read_csv, require_int, write_csv

# The fixed inverse-CDF sampling grid; a marginal with more than MASS_DEFICIT_TOL of
# its mass off the grid is rejected, not truncated.
SAMPLING_GRID = np.linspace(-8.0, 8.0, 4001)
SAMPLING_GRID.setflags(write=False)
MASS_DEFICIT_TOL = 1e-4
_SAMPLES_HEADER = ("angle_deg", "value")


def _angle_phases(angles, dim: int) -> np.ndarray:
    """Phase arrays Phi_a[m, n] = exp(i theta_a (m - n)), shape (n_angles, dim, dim).

    Phi_a * rho^T (element-wise) is the transpose of the state rotated by
    theta_a, so its real part gives the marginal on real wavefunctions and,
    against the real POVM block, the bin probabilities.
    """
    n = np.arange(dim)
    theta = np.asarray(angles, dtype=float)[:, None, None]
    return np.exp(1j * theta * (n[:, None] - n[None, :]))


def marginal_pdf(rho: FockDensityMatrix, theta: float, x: np.ndarray) -> np.ndarray:
    """Probability density of the quadrature q_theta at the points x."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    psi = fock_wavefunctions(rho.nmax, x)
    # psi is real, so only the real part of the rotated matrix contributes
    rotated = (_angle_phases([theta], rho.dim)[0] * rho.entries.T).real
    return np.einsum("mg,mg->g", psi, rotated @ psi)


def marginal_variance(rho: FockDensityMatrix, theta: float) -> float:
    """Variance of q_theta computed operator-side (no grid discretization).

    Uses q^2 = (a^2 e^{2i theta} + h.c. + 2 a^dag a + 1)/2 and subtracts the
    squared mean.
    """
    diag = np.diag(rho.entries).real
    n = np.arange(rho.dim)
    # <a^2>: entries rho_{m, m+2} weighted sqrt((m+1)(m+2)); <a>: entries
    # rho_{m, m+1} weighted sqrt(m+1). Below dim 3 or 2 the diagonal is empty and sums to 0
    a2 = (np.sqrt((n[:-2] + 1) * (n[:-2] + 2)) * np.diagonal(rho.entries, offset=2)).sum()
    a1 = (np.sqrt(n[:-1] + 1) * np.diagonal(rho.entries, offset=1)).sum()
    mean_n = float((n * diag).sum())
    second = 0.5 * (2.0 * (a2 * np.exp(2j * theta)).real + 2.0 * mean_n + 1.0)
    mean_q = math.sqrt(2.0) * (a1 * np.exp(1j * theta)).real
    return float(second - mean_q**2)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=2)
def _marginal_table(entries: bytes, dim: int) -> np.ndarray:
    """Rows t_0 .. t_{2d-2} on SAMPLING_GRID of the state with these entries, read-only.

    Rotating by theta multiplies rho[n, n+k] by exp(i k theta), so with
    g_k = sum_n rho[n, n+k] psi_{n+k} psi_n the marginal at theta is
    t_0 + sum_k (cos(k theta) t_{2k-1} + sin(k theta) t_{2k}), where t_0 = g_0,
    t_{2k-1} = 2 Re g_k and t_{2k} = -2 Im g_k. Every draw from one state
    shares it; the last 2 states are kept.
    """
    rho = np.frombuffer(entries, dtype=complex).reshape(dim, dim)
    psi = fock_wavefunctions(dim - 1, SAMPLING_GRID)
    table = np.empty((2 * dim - 1, SAMPLING_GRID.size))
    table[0] = np.diagonal(rho).real @ psi**2
    for k in range(1, dim):
        g = np.diagonal(rho, offset=k) @ (psi[k:] * psi[:-k])
        table[2 * k - 1] = 2.0 * g.real
        table[2 * k] = -2.0 * g.imag
    table.setflags(write=False)
    return table


def homodyne_cdfs(rho: FockDensityMatrix, angles) -> np.ndarray:
    """Normalised CDFs of the quadrature marginals on SAMPLING_GRID, one row per angle.

    The pdf is integrated by the trapezoid rule. Raises ValidationError on a
    non-finite angle and NumericsError if more than MASS_DEFICIT_TOL of a
    marginal lies off the grid.
    """
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    if angles.ndim != 1 or not angles.size:
        raise ValidationError("need one or more sampling angles")
    if not np.isfinite(angles).all():
        raise ValidationError("sampling angles must be finite")
    table = _marginal_table(rho.entries.tobytes(), rho.dim)
    dx = SAMPLING_GRID[1] - SAMPLING_GRID[0]
    k = np.arange(1, rho.dim)
    coefficients = np.empty(2 * rho.dim - 1)
    coefficients[0] = 1.0
    cdfs = np.empty((angles.size, SAMPLING_GRID.size))
    for cdf, theta in zip(cdfs, angles):
        # one product per angle: a call's rows round as one-angle calls do
        coefficients[1::2] = np.cos(k * theta)
        coefficients[2::2] = np.sin(k * theta)
        pdf = np.clip(coefficients @ table, 0.0, None)
        cdf[0] = 0.0
        np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * dx, out=cdf[1:])
        mass = cdf[-1]
        if not abs(1.0 - mass) <= MASS_DEFICIT_TOL:
            raise NumericsError(
                f"marginal mass within |x| <= {SAMPLING_GRID[-1]:g} at "
                f"{math.degrees(theta):.4f} deg is {mass:.6f}; the state is too "
                "energetic to sample"
            )
        cdf /= mass
    return cdfs


def draw_homodyne(cdfs: np.ndarray, count, seeds, tags) -> QuadratureDataset:
    """Draw samples from the per-angle CDFs of `homodyne_cdfs` by inverse-CDF lookup.

    Row a gets `count` samples (or count[a]) from default_rng(seeds[a]), each
    tagged tags[a]. Raises ValidationError on repeated tags, on a count that is
    not a whole number >= 0 and on a seed that is not an integer >= 0.
    """
    tags = np.asarray(tags, dtype=float)
    if not tags.shape == (len(cdfs),) == (len(seeds),):
        raise ValidationError("each sampling angle needs one seed and one tag")
    counts = np.asarray(count)
    # booleans and strings are not counts; NaN, inf, 2.7 and -1 fail the test
    if counts.dtype.kind not in "iuf" or not np.all(
        np.isfinite(counts) & (counts >= 0) & (np.floor(counts) == counts)
    ):
        raise ValidationError(f"count must be a whole number >= 0, got {count!r}")
    counts = np.broadcast_to(counts.astype(int), tags.shape)
    for seed in seeds:
        require_int(seed, "seed")
    # a set, not np.unique, which imports numpy.ma; 0.0 and -0.0 are one tag
    if len(set(tags.tolist())) != tags.size:
        raise ValidationError("repeated sampling angle: each angle is drawn once")
    blocks = []
    for cdf, n, seed in zip(cdfs, counts, seeds):
        # np.interp maps each value on its own, and sorted values look up
        # faster; a stable radix sort on the leading 16 bits orders them
        # nearly as well as a full sort, at less cost
        uniform = np.random.default_rng(seed).random(n)
        order = np.argsort((uniform * 65536.0).astype(np.uint16), kind="stable")
        drawn = np.empty(n)
        drawn[order] = np.interp(uniform[order], cdf, SAMPLING_GRID)
        blocks.append(drawn)
    return QuadratureDataset(angles=np.repeat(tags, counts), values=np.concatenate(blocks))


def sample_homodyne(rho: FockDensityMatrix, angles, count, seeds) -> QuadratureDataset:
    """Draw homodyne samples at each angle (radians): `homodyne_cdfs`, then `draw_homodyne`.

    Angle a gets `count` samples (or count[a]) from default_rng(seeds[a]),
    tagged with the angle itself; data measured at true angles and tagged with
    their nominal ones are `draw_homodyne` on the true angles' CDFs.
    """
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    return draw_homodyne(homodyne_cdfs(rho, angles), count, seeds, angles)


def sample_quadratures(
    rho: FockDensityMatrix, theta: float, count: int, seed: int
) -> np.ndarray:
    """Homodyne samples of q_theta: the one-angle case of `sample_homodyne`.

    Deterministic for a fixed seed. Phase-noisy samples are those of
    `phase_diffusion(rho, sigma)`.
    """
    return sample_homodyne(rho, [theta], count, [seed]).values


# ---------------------------------------------------------------------------
# Tagged datasets and CSV format
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureDataset:
    """Per-sample quadrature values tagged with their nominal LO angle (radians)."""

    angles: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        angles = np.asarray(self.angles, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if angles.shape != values.shape or angles.ndim != 1:
            raise ValidationError("angles and values must be 1-D arrays of equal length")
        if not (np.isfinite(angles).all() and np.isfinite(values).all()):
            raise ValidationError("angles and values must be finite")
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.size


def dataset_from_angle_blocks(blocks: dict[float, np.ndarray]) -> QuadratureDataset:
    """Assemble a dataset from {angle_radians: values} blocks."""
    if not blocks:
        raise ValidationError("blocks must contain at least one angle")
    angles = np.concatenate([np.full(len(v), th) for th, v in blocks.items()])
    values = np.concatenate([np.asarray(v, float) for v in blocks.values()])
    return QuadratureDataset(angles=angles, values=values)


def save_samples_csv(dataset: QuadratureDataset, path) -> None:
    write_csv(path, _SAMPLES_HEADER, (np.degrees(dataset.angles), dataset.values))


def load_samples_csv(path) -> QuadratureDataset:
    _, (degs, values) = read_csv(path, _SAMPLES_HEADER)
    return QuadratureDataset(angles=np.radians(degs), values=values)
