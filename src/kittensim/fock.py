"""Truncated Fock-basis density matrices, Gaussian-state preparation, and CV channels.

Conventions (used consistently across the package): hbar = 1, x = (a + a^dag)/sqrt(2),
p = (a - a^dag)/(i sqrt(2)), so the vacuum quadrature variance is 1/2 ("shot-noise
units") and the Wigner function is bounded by 1/pi in magnitude.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm
from scipy.special import comb, gammaln

from .errors import NumericsError, ValidationError

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
PSD_TOL = 1e-9

# Internal padding (extra Fock levels) used when a constructor needs to apply a
# non-number-conserving operation before truncating to the requested cutoff.
_CONSTRUCTOR_PAD = 24


@dataclass(frozen=True)
class FockDensityMatrix:
    """Density matrix on the truncated Fock space span{|0>, ..., |nmax>}.

    Entries are immutable after construction. Constructors in this module
    guarantee Hermiticity, unit trace and positive semi-definiteness within
    the module tolerances; `trace_deficit` records the probability mass lost
    to truncation by the operation that produced the state (0.0 when exact).
    """

    nmax: int
    entries: np.ndarray
    trace_deficit: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        ent = np.asarray(self.entries, dtype=complex)
        if ent.ndim != 2 or ent.shape[0] != ent.shape[1]:
            raise ValidationError(f"density matrix must be square, got shape {ent.shape}")
        if ent.shape[0] != self.nmax + 1:
            raise ValidationError(
                f"dimension {ent.shape[0]} does not match nmax={self.nmax}"
            )
        ent.setflags(write=False)
        object.__setattr__(self, "entries", ent)

    @property
    def dim(self) -> int:
        return self.nmax + 1

    def trace(self) -> float:
        return float(np.trace(self.entries).real)

    def purity(self) -> float:
        return float(np.trace(self.entries @ self.entries).real)

    def mean_photon(self) -> float:
        return float((np.arange(self.dim) * np.diag(self.entries).real).sum())

    def photon_distribution(self) -> np.ndarray:
        """Diagonal of the density matrix (photon-number probabilities)."""
        return np.diag(self.entries).real.copy()

    def validate(self) -> None:
        """Check the physicality invariants; raise ValidationError on failure."""
        ent = self.entries
        if np.max(np.abs(ent - ent.conj().T)) > HERMITICITY_TOL:
            raise ValidationError("density matrix is not Hermitian within 1e-12")
        if abs(np.trace(ent).real - 1.0) > TRACE_TOL or abs(np.trace(ent).imag) > TRACE_TOL:
            raise ValidationError("density matrix trace differs from 1 beyond 1e-10")
        if np.linalg.eigvalsh(ent).min() < -PSD_TOL:
            raise ValidationError("density matrix has an eigenvalue below -1e-9")


def _finalize(raw: np.ndarray, *, deficit: float = 0.0) -> FockDensityMatrix:
    """Hermitize, normalize and wrap a raw matrix produced by a channel/constructor."""
    mat = np.asarray(raw, dtype=complex)
    mat = 0.5 * (mat + mat.conj().T)
    tr = np.trace(mat).real
    if tr <= 0.0:
        raise NumericsError("state has non-positive trace after truncation")
    mat = mat / tr
    return FockDensityMatrix(nmax=mat.shape[0] - 1, entries=mat, trace_deficit=deficit)


def annihilation_matrix(dim: int) -> np.ndarray:
    """Matrix of the annihilation operator a on a `dim`-level truncated space."""
    return np.diag(np.sqrt(np.arange(1.0, dim)), k=1)


# ---------------------------------------------------------------------------
# dB bookkeeping
# ---------------------------------------------------------------------------

def variance_from_db(db: float) -> float:
    """Quadrature variance in shot-noise units from a decibel value.

    Negative dB = squeezing below the 1/2 vacuum level, e.g. -2.0 dB -> 0.31548.
    """
    return 0.5 * 10.0 ** (db / 10.0)


def db_from_variance(variance: float) -> float:
    """Inverse of variance_from_db."""
    if variance <= 0.0:
        raise ValidationError(f"variance must be positive, got {variance}")
    return 10.0 * math.log10(variance / 0.5)


# ---------------------------------------------------------------------------
# State constructors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianStateSpec:
    """Target x/p marginal variances (shot-noise units) of a zero-mean Gaussian state.

    v_x * v_p >= 1/4 (Heisenberg); equality means a pure squeezed vacuum.
    """

    v_x: float
    v_p: float

    def __post_init__(self) -> None:
        if self.v_x <= 0.0 or self.v_p <= 0.0:
            raise ValidationError("variances must be positive")
        if self.v_x * self.v_p < 0.25 - 1e-12:
            raise ValidationError(
                f"v_x*v_p = {self.v_x * self.v_p:.6g} violates the uncertainty bound 1/4"
            )

    def purified(self) -> "GaussianStateSpec":
        """Same squeezing ratio but rescaled onto the minimum-uncertainty shell."""
        g = math.sqrt(4.0 * self.v_x * self.v_p)
        return GaussianStateSpec(self.v_x / g, self.v_p / g)


def gaussian_state(
    spec: GaussianStateSpec,
    nmax: int = 20,
    *,
    max_trace_deficit: float = 1e-6,
) -> FockDensityMatrix:
    """Squeezed thermal state with the requested marginal variances.

    Built as a thermal state of mean photon number nbar = sqrt(v_x v_p) - 1/2
    squeezed by r = (1/4) ln(v_p / v_x) (truncated squeeze operator applied on a
    padded space, then cut back to nmax). Raises NumericsError if the truncated
    trace deficit exceeds `max_trace_deficit`.
    """
    if nmax < 1:
        raise ValidationError("nmax must be >= 1")
    dim_work = nmax + 1 + _CONSTRUCTOR_PAD
    nbar = math.sqrt(spec.v_x * spec.v_p) - 0.5
    r = 0.25 * math.log(spec.v_p / spec.v_x)

    n = np.arange(dim_work)
    if nbar > 1e-15:
        log_pops = n * math.log(nbar / (nbar + 1.0)) - math.log(nbar + 1.0)
        pops = np.exp(log_pops)
    else:
        pops = np.zeros(dim_work)
        pops[0] = 1.0
    rho_w = np.diag(pops)

    a = annihilation_matrix(dim_work)
    generator = 0.5 * r * (a @ a - a.T @ a.T)  # real antisymmetric
    squeezer = expm(generator)
    rho_w = squeezer @ rho_w @ squeezer.T

    cut = rho_w[: nmax + 1, : nmax + 1]
    deficit = 1.0 - float(np.trace(cut).real)
    if deficit > max_trace_deficit:
        raise NumericsError(
            f"truncation at nmax={nmax} loses trace {deficit:.3e} "
            f"(> {max_trace_deficit:.1e}); increase nmax"
        )
    return _finalize(cut, deficit=max(deficit, 0.0))


def cat_state(
    alpha: float,
    parity: str,
    nmax: int,
    *,
    max_norm_deficit: float = 1e-8,
) -> np.ndarray:
    """Normalized even/odd cat state vector (|alpha> +/- |-alpha>) in the Fock basis.

    parity: "even" or "odd". The odd cat at alpha = 0 is defined as its limit |1>.
    Raises NumericsError if the truncated basis misses more than `max_norm_deficit`
    of the untruncated norm.
    """
    if parity not in ("even", "odd"):
        raise ValidationError(f"parity must be 'even' or 'odd', got {parity!r}")
    if alpha < 0.0:
        raise ValidationError("alpha must be >= 0")
    rem = 1 if parity == "odd" else 0
    vec = np.zeros(nmax + 1)
    if alpha == 0.0:
        if parity == "odd":
            if nmax < 1:
                raise ValidationError("odd cat needs nmax >= 1")
            vec[1] = 1.0
        else:
            vec[0] = 1.0
        return vec

    n = np.arange(nmax + 1)
    keep = n % 2 == rem
    logc = np.where(keep, n * math.log(alpha) - 0.5 * gammaln(n + 1.0), -np.inf)
    coeff = np.exp(logc)
    included = float((coeff**2).sum())
    # Untruncated norm of the parity-projected coherent amplitudes:
    # sum_{n in parity} alpha^(2n)/n! = cosh(alpha^2) or sinh(alpha^2).
    total = math.sinh(alpha**2) if parity == "odd" else math.cosh(alpha**2)
    deficit = 1.0 - included / total
    if deficit >= max_norm_deficit:
        raise NumericsError(
            f"cat state at alpha={alpha} loses norm {deficit:.3e} at nmax={nmax}"
        )
    return coeff / math.sqrt(included)


# ---------------------------------------------------------------------------
# Channels
# ---------------------------------------------------------------------------

def photon_subtract(rho: FockDensityMatrix) -> tuple[FockDensityMatrix, float]:
    """Single-photon subtraction a rho a^dag / tr(a rho a^dag).

    Returns (state, weight); weight = tr(a rho a^dag) is the heralding weight
    (the input's mean photon number). The output cutoff drops by one (the top
    row/column cannot be populated). Raises ValidationError on (near-)vacuum input.
    """
    d = rho.dim
    if d < 2:
        raise ValidationError("cannot subtract a photon from a 1-level space")
    root_n = np.sqrt(np.arange(1.0, d))
    sub = rho.entries[1:, 1:] * np.outer(root_n, root_n)
    weight = float(np.trace(sub).real)
    if weight < 1e-12:
        raise ValidationError("photon subtraction has zero weight (vacuum input)")
    return _finalize(sub, deficit=rho.trace_deficit), weight


def _loss_amplitudes(dim: int, eta: float, k: int) -> np.ndarray:
    """Diagonal amplitudes of the k-photon-loss Kraus operator A_k.

    A_k |n> = sqrt(C(n,k) eta^(n-k) (1-eta)^k) |n-k>; returned for n = k..dim-1.
    """
    n = np.arange(k, dim)
    return np.sqrt(comb(n, k) * eta ** (n - k) * (1.0 - eta) ** k)


def loss_channel(rho: FockDensityMatrix, eta: float) -> FockDensityMatrix:
    """Pure-loss (beam-splitter) channel of transmissivity eta.

    Kraus decomposition in the number basis; exactly trace preserving on the
    truncated space. eta = 1 is the identity, eta = 0 maps everything to vacuum.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValidationError(f"transmissivity must lie in [0, 1], got {eta}")
    d = rho.dim
    out = np.zeros((d, d), dtype=complex)
    for k in range(d):
        amp = _loss_amplitudes(d, eta, k)
        out[: d - k, : d - k] += rho.entries[k:, k:] * np.outer(amp, amp)
    return _finalize(out, deficit=rho.trace_deficit)


def loss_adjoint(op: np.ndarray, eta: float) -> np.ndarray:
    """Heisenberg-picture (adjoint) loss channel sum_k A_k^dag Op A_k.

    Maps ideal measurement operators onto their inefficient-detector versions;
    unital (identity maps to identity). Acts on the last two axes, so a stack
    of operators of shape (..., d, d) is mapped in one pass; real input stays real.
    """
    if not 0.0 < eta <= 1.0:
        raise ValidationError(f"adjoint loss needs eta in (0, 1], got {eta}")
    op = np.asarray(op)
    d = op.shape[-1]
    out = np.zeros(op.shape, dtype=np.result_type(op, float))
    for k in range(d):
        amp = _loss_amplitudes(d, eta, k)
        out[..., k:, k:] += op[..., : d - k, : d - k] * np.outer(amp, amp)
    return out


def phase_diffusion(rho: FockDensityMatrix, sigma: float) -> FockDensityMatrix:
    """Gaussian phase-diffusion channel of angular spread sigma (radians).

    rho_mn -> rho_mn exp(-sigma^2 (m-n)^2 / 2): the exact result of averaging
    the state over a Normal(0, sigma^2) phase-space rotation. Diagonal
    (and hence photon statistics and parity) untouched.
    """
    if sigma < 0.0:
        raise ValidationError("sigma must be >= 0")
    n = np.arange(rho.dim)
    delta = n[:, None] - n[None, :]
    damp = np.exp(-0.5 * sigma**2 * delta.astype(float) ** 2)
    return FockDensityMatrix(
        nmax=rho.nmax, entries=rho.entries * damp, trace_deficit=rho.trace_deficit
    )


# ---------------------------------------------------------------------------
# Phase-space and overlap metrics
# ---------------------------------------------------------------------------

def wigner(rho: FockDensityMatrix, x, p) -> np.ndarray | float:
    """Wigner function W(x, p) via the iterative Fock-basis Laguerre recurrence.

    W_mn(alpha), alpha = (x + i p)/sqrt(2), is built row by row as in QuTiP's
    iterative method (Johansson, Nation & Nori, CPC 183, 1760, 2012):
    W_0n = 2 alpha W_0,n-1 / sqrt(n) and
    W_mn = (2 conj(alpha) W_m-1,n - sqrt(m) W_m-1,n-1) / sqrt(m) along each row.
    Broadcasts over array-valued x, p. Normalized so that the full-plane
    integral is 1 and |W| <= 1/pi for any physical state.
    """
    x_arr, p_arr = np.broadcast_arrays(np.asarray(x, float), np.asarray(p, float))
    alpha = (x_arr + 1j * p_arr) / math.sqrt(2.0)
    ent = rho.entries
    d = rho.dim
    row = [np.exp(-(x_arr**2 + p_arr**2)) / math.pi + 0j]
    total = ent[0, 0].real * row[0].real
    for n in range(1, d):
        row.append(2.0 * alpha * row[n - 1] / math.sqrt(n))
        total += 2.0 * (ent[0, n] * row[n]).real
    for m in range(1, d):
        prev = row[m]
        row[m] = (2.0 * alpha.conj() * prev - math.sqrt(m) * row[m - 1]) / math.sqrt(m)
        total += ent[m, m].real * row[m].real
        for n in range(m + 1, d):
            nxt = (2.0 * alpha * row[n - 1] - math.sqrt(m) * prev) / math.sqrt(n)
            prev, row[n] = row[n], nxt
            total += 2.0 * (ent[m, n] * row[n]).real
    if total.ndim == 0:
        return float(total)
    return total


def wigner_origin(rho: FockDensityMatrix) -> float:
    """W(0, 0) from the parity sum (1/pi) sum_n (-1)^n rho_nn."""
    signs = (-1.0) ** np.arange(rho.dim)
    return float((signs * np.diag(rho.entries).real).sum() / math.pi)


def fidelity(rho: FockDensityMatrix, psi: np.ndarray) -> float:
    """Pure-state fidelity <psi| rho |psi>; psi must match rho's dimension."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (rho.dim,):
        raise ValidationError(
            f"state vector of length {psi.shape} does not match dimension {rho.dim}"
        )
    val = np.vdot(psi, rho.entries @ psi)
    return float(val.real)


def state_fidelity(rho: FockDensityMatrix, sigma: FockDensityMatrix) -> float:
    """Uhlmann fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 of two mixed states.

    Dimensions may differ; the smaller matrix is zero-padded.
    """
    d = max(rho.dim, sigma.dim)

    def padded(state: FockDensityMatrix) -> np.ndarray:
        out = np.zeros((d, d), dtype=complex)
        out[: state.dim, : state.dim] = state.entries
        return out

    a, b = padded(rho), padded(sigma)
    evals, evecs = np.linalg.eigh(a)
    root = (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.conj().T
    mid = root @ b @ root
    mid_evals = np.clip(np.linalg.eigvalsh(mid), 0.0, None)
    return float(np.sqrt(mid_evals).sum() ** 2)


def _cat_cutoff(alpha: float, floor: int) -> int:
    """Cutoff with untruncated-norm deficit safely below 1e-8 for cat_state(alpha)."""
    guess = max(floor, int(math.ceil(alpha**2 + 12.0 * alpha + 10.0)))
    return guess


def cat_fidelity(
    rho: FockDensityMatrix,
    alpha: float,
    parity: str = "odd",
    orientation: float = math.pi / 2,
) -> float:
    """Fidelity of rho with an ideal (untruncated) cat state of amplitude alpha.

    The cat is built at a cutoff large enough that its norm deficit is < 1e-8,
    then only the components inside rho's truncated space contribute (rho is
    implicitly zero-padded). `orientation` rotates the cat in phase space; the
    default pi/2 puts the coherent lobes along p, which is where kitten states
    produced from x-squeezed light develop theirs.
    """
    big = _cat_cutoff(alpha, rho.nmax)
    vec = cat_state(alpha, parity, big).astype(complex)
    if orientation != 0.0:
        vec *= np.exp(1j * orientation * np.arange(big + 1))
    head = vec[: rho.dim]
    val = np.vdot(head, rho.entries @ head)
    return float(val.real)


def best_cat_fidelity(
    rho: FockDensityMatrix,
    parity: str = "odd",
    alpha_range: tuple[float, float] = (0.01, 2.0),
    alpha_step: float = 0.01,
    refine_tol: float = 1e-4,
    orientation: float = math.pi / 2,
) -> tuple[float, float]:
    """Maximize the cat fidelity over the amplitude alpha.

    Deterministic grid scan over [alpha_range] with `alpha_step`, followed by a
    golden-section refinement of the best bracket down to `refine_tol` in alpha.
    Returns (alpha_star, fidelity_star).
    """
    lo, hi = alpha_range
    if not (0.0 < lo < hi):
        raise ValidationError("alpha_range must satisfy 0 < lo < hi")
    alphas = np.arange(lo, hi + 0.5 * alpha_step, alpha_step)
    scores = np.array([cat_fidelity(rho, float(al), parity, orientation) for al in alphas])
    best = int(np.argmax(scores))

    a = alphas[max(best - 1, 0)]
    b = alphas[min(best + 1, len(alphas) - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    e = a + invphi * (b - a)
    fc = cat_fidelity(rho, float(c), parity, orientation)
    fe = cat_fidelity(rho, float(e), parity, orientation)
    while (b - a) > refine_tol:
        if fc > fe:
            b, e, fe = e, c, fc
            c = b - invphi * (b - a)
            fc = cat_fidelity(rho, float(c), parity, orientation)
        else:
            a, c, fc = c, e, fe
            e = a + invphi * (b - a)
            fe = cat_fidelity(rho, float(e), parity, orientation)
    alpha_star = 0.5 * (a + b)
    return float(alpha_star), cat_fidelity(rho, float(alpha_star), parity, orientation)


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

def density_matrix_to_json(rho: FockDensityMatrix) -> str:
    payload = {
        "nmax": rho.nmax,
        "re": rho.entries.real.tolist(),
        "im": rho.entries.imag.tolist(),
    }
    return json.dumps(payload)


def density_matrix_from_json(text: str) -> FockDensityMatrix:
    try:
        payload = json.loads(text)
        nmax = int(payload["nmax"])
        re = np.asarray(payload["re"], dtype=float)
        im = np.asarray(payload["im"], dtype=float)
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise ValidationError(f"malformed density-matrix JSON: {exc}") from exc
    mat = re + 1j * im
    if mat.shape != (nmax + 1, nmax + 1):
        raise ValidationError(
            f"density-matrix JSON shape {mat.shape} does not match nmax={nmax}"
        )
    if np.max(np.abs(mat - mat.conj().T)) > HERMITICITY_TOL:
        raise ValidationError("density-matrix JSON is not Hermitian within 1e-12")
    return FockDensityMatrix(nmax=nmax, entries=mat)


def save_density_matrix(rho: FockDensityMatrix, path) -> None:
    from .util import atomic_write_text

    atomic_write_text(path, density_matrix_to_json(rho))


def load_density_matrix(path) -> FockDensityMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return density_matrix_from_json(fh.read())
