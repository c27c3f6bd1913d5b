"""Homodyne measurement model: rotated quadrature marginals and sampling.

The measured observable at local-oscillator angle theta is
q_theta = x cos(theta) + p sin(theta), realized on Fock-basis density matrices
by the phase rotation rho_mn -> rho_mn exp(i (n - m) theta). Angles are radians
in memory; file formats use degrees.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NumericsError, ValidationError
from .fock import FockDensityMatrix, phase_diffusion

DEFAULT_GRID_HALF_RANGE = 8.0
DEFAULT_GRID_POINTS = 4001
MASS_DEFICIT_TOL = 1e-4


def fock_wavefunctions(nmax: int, x: np.ndarray) -> np.ndarray:
    """Harmonic-oscillator position wavefunctions psi_0..psi_nmax on a grid.

    psi_n(x) = H_n(x) exp(-x^2/2) / sqrt(2^n n! sqrt(pi)), evaluated with the
    stable normalized three-term recurrence. Returns shape (nmax+1, len(x)).
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((nmax + 1, x.size))
    out[0] = np.pi ** (-0.25) * np.exp(-0.5 * x**2)
    if nmax >= 1:
        out[1] = math.sqrt(2.0) * x * out[0]
    for n in range(2, nmax + 1):
        out[n] = math.sqrt(2.0 / n) * x * out[n - 1] - math.sqrt((n - 1) / n) * out[n - 2]
    return out


def _rotated(rho: FockDensityMatrix, theta: float) -> np.ndarray:
    n = np.arange(rho.dim)
    return rho.entries * np.exp(1j * theta * (n[None, :] - n[:, None]))


def marginal_pdf(rho: FockDensityMatrix, theta: float, x: np.ndarray) -> np.ndarray:
    """Probability density of the quadrature q_theta at the points x."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    psi = fock_wavefunctions(rho.nmax, x)
    rot = _rotated(rho, theta)
    pdf = np.einsum("mg,mn,ng->g", psi, rot, psi).real
    return pdf


def marginal_variance(rho: FockDensityMatrix, theta: float) -> float:
    """Variance of q_theta computed operator-side (no grid discretization).

    Uses q^2 = (a^2 e^{2i theta} + h.c. + 2 a^dag a + 1)/2 and subtracts the
    squared mean.
    """
    d = rho.dim
    diag = np.diag(rho.entries).real
    n = np.arange(d)
    # <a^2>: entries rho_{m, m+2} weighted sqrt((m+1)(m+2))
    if d >= 3:
        m = np.arange(d - 2)
        a2 = (np.sqrt((m + 1) * (m + 2)) * np.diagonal(rho.entries, offset=2)).sum()
    else:
        a2 = 0.0
    # <a>: entries rho_{m, m+1} weighted sqrt(m+1)
    if d >= 2:
        m1 = np.arange(d - 1)
        a1 = (np.sqrt(m1 + 1) * np.diagonal(rho.entries, offset=1)).sum()
    else:
        a1 = 0.0
    mean_n = float((n * diag).sum())
    second = 0.5 * (2.0 * (a2 * np.exp(2j * theta)).real + 2.0 * mean_n + 1.0)
    mean_q = math.sqrt(2.0) * (a1 * np.exp(1j * theta)).real
    return float(second - mean_q**2)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def _pdf_grid(half_range: float, points: int) -> np.ndarray:
    if points < 3 or half_range <= 0.0:
        raise ValidationError("sampling grid must have >= 3 points and positive range")
    return np.linspace(-half_range, half_range, points)


def _inverse_cdf_sample(grid: np.ndarray, pdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    dx = grid[1] - grid[0]
    mass = float(np.trapezoid(pdf, dx=dx))
    if abs(1.0 - mass) > MASS_DEFICIT_TOL:
        raise NumericsError(
            f"marginal mass on the sampling grid is {mass:.6f}; "
            "widen the grid or lower the cutoff"
        )
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * dx)])
    cdf /= cdf[-1]
    return np.interp(u, cdf, grid)


def sample_quadratures(
    rho: FockDensityMatrix,
    theta: float,
    count: int,
    seed: int,
    *,
    grid_half_range: float = DEFAULT_GRID_HALF_RANGE,
    grid_points: int = DEFAULT_GRID_POINTS,
) -> np.ndarray:
    """Draw homodyne samples of q_theta by inverse-CDF lookup on a dense grid.

    Deterministic for a fixed seed. Raises NumericsError if more than 1e-4 of
    the probability mass falls outside the grid.
    """
    if count < 0:
        raise ValidationError("count must be >= 0")
    grid = _pdf_grid(grid_half_range, grid_points)
    pdf = np.clip(marginal_pdf(rho, theta, grid), 0.0, None)
    rng = np.random.default_rng(seed)
    u = rng.random(count)
    return _inverse_cdf_sample(grid, pdf, u)


def sample_with_phase_noise(
    rho: FockDensityMatrix,
    theta: float,
    sigma: float,
    count: int,
    seed: int,
    *,
    grid_half_range: float = DEFAULT_GRID_HALF_RANGE,
    grid_points: int = DEFAULT_GRID_POINTS,
) -> np.ndarray:
    """Homodyne samples with per-sample Gaussian phase jitter of spread sigma.

    Averaging the marginal over a Normal(theta, sigma^2) angle is the marginal
    of the phase-diffused state at theta, so this samples that state directly.
    """
    if sigma < 0.0:
        raise ValidationError("sigma must be >= 0")
    if count < 0:
        raise ValidationError("count must be >= 0")
    return sample_quadratures(
        phase_diffusion(rho, sigma),
        theta,
        count,
        seed,
        grid_half_range=grid_half_range,
        grid_points=grid_points,
    )


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
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "values", values)

    @property
    def angle_set(self) -> np.ndarray:
        """The distinct nominal angles, sorted."""
        return np.unique(self.angles)

    def __len__(self) -> int:
        return self.values.size

    def for_angle(self, theta: float, tol: float = 1e-9) -> np.ndarray:
        selected = self.values[np.abs(self.angles - theta) < tol]
        if selected.size == 0:
            raise ValidationError(f"no samples recorded at angle {theta} rad")
        return selected


def dataset_from_angle_blocks(blocks: dict[float, np.ndarray]) -> QuadratureDataset:
    """Assemble a dataset from {angle_radians: values} blocks."""
    if not blocks:
        raise ValidationError("blocks must contain at least one angle")
    angles = np.concatenate([np.full(len(v), th) for th, v in blocks.items()])
    values = np.concatenate([np.asarray(v, float) for v in blocks.values()])
    return QuadratureDataset(angles=angles, values=values)


def save_samples_csv(dataset: QuadratureDataset, path) -> None:
    from .util import atomic_write_text

    lines = ["angle_deg,value"]
    degs = np.degrees(dataset.angles)
    lines.extend(f"{repr(float(a))},{repr(float(v))}" for a, v in zip(degs, dataset.values))
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_samples_csv(path) -> QuadratureDataset:
    path = Path(path)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["angle_deg", "value"]:
            raise ValidationError(f"{path}: expected header 'angle_deg,value'")
        angles, values = [], []
        for row in reader:
            if not row:
                continue
            try:
                angles.append(float(row[0]))
                values.append(float(row[1]))
            except (IndexError, ValueError) as exc:
                raise ValidationError(f"{path}: malformed row {row!r}") from exc
    return QuadratureDataset(
        angles=np.radians(np.asarray(angles)), values=np.asarray(values)
    )
