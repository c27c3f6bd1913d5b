"""Truncated Fock-basis density matrices, Gaussian-state preparation, and CV channels.

Conventions (used consistently across the package): hbar = 1, x = (a + a^dag)/sqrt(2),
p = (a - a^dag)/(i sqrt(2)), so the vacuum quadrature variance is 1/2 ("shot-noise
units") and the Wigner function is bounded by 1/pi in magnitude.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericsError, ValidationError
from .util import atomic_write_text, require_int

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
PSD_TOL = 1e-9
GAUSSIAN_TRACE_DEFICIT_TOL = 1e-6  # trace gaussian_state may lose to its cutoff
CAT_NORM_DEFICIT_TOL = 1e-8  # norm cat_state may lose to its cutoff

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
        if not np.isfinite(ent).all():
            raise ValidationError("density matrix has a non-finite entry")
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


# ---------------------------------------------------------------------------
# dB bookkeeping
# ---------------------------------------------------------------------------

def variance_from_db(db: float) -> float:
    """Quadrature variance in shot-noise units from a decibel value.

    Negative dB = squeezing below the 1/2 vacuum level, e.g. -2.0 dB -> 0.31548.
    """
    try:
        return 0.5 * 10.0 ** (db / 10.0)
    except OverflowError:
        raise ValidationError(f"{db!r} dB is too large a variance to represent") from None


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
        if not (0.0 < self.v_x < math.inf and 0.0 < self.v_p < math.inf):
            raise ValidationError("variances must be positive and finite")
        if self.v_x * self.v_p < 0.25 - 1e-12:
            raise ValidationError(
                f"v_x*v_p = {self.v_x * self.v_p:.6g} violates the uncertainty bound 1/4"
            )

    def purified(self) -> "GaussianStateSpec":
        """Same squeezing ratio but rescaled onto the minimum-uncertainty shell."""
        g = math.sqrt(4.0 * self.v_x * self.v_p)
        return GaussianStateSpec(self.v_x / g, self.v_p / g)


def gaussian_state(spec: GaussianStateSpec, nmax: int = 20) -> FockDensityMatrix:
    """Squeezed thermal state with the requested marginal variances.

    Built as a thermal state of mean photon number nbar = sqrt(v_x v_p) - 1/2
    squeezed by r = (1/4) ln(v_p / v_x) (truncated squeeze operator applied on a
    padded space, then cut back to nmax). Raises NumericsError if the truncated
    trace deficit exceeds GAUSSIAN_TRACE_DEFICIT_TOL.
    """
    require_int(nmax, "nmax", 1)
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
    # exp(G) = exp(-iH) with H = iG Hermitian; real because G is
    lam, vec = np.linalg.eigh(1j * generator)
    squeezer = ((vec * np.exp(-1j * lam)) @ vec.conj().T).real
    rho_w = squeezer @ rho_w @ squeezer.T

    cut = rho_w[: nmax + 1, : nmax + 1]
    deficit = 1.0 - float(np.trace(cut).real)
    if deficit > GAUSSIAN_TRACE_DEFICIT_TOL:
        raise NumericsError(
            f"truncation at nmax={nmax} loses trace {deficit:.3e} "
            f"(> {GAUSSIAN_TRACE_DEFICIT_TOL:.1e}); increase nmax"
        )
    return _finalize(cut, deficit=max(deficit, 0.0))


def _cat_amplitudes(alphas, dim: int) -> np.ndarray:
    """Rows c_n, n < dim, of the untruncated odd cat with its lobes along p, one per alpha > 0.

    (|i alpha> - |-i alpha>) / norm is i c with c_n = (-1)^(n//2) alpha^n / sqrt(n! sinh a)
    on odd n, a = alpha^2; log sinh a = a + log((1 - e^(-2a)) / 2): no overflow, and
    expm1 keeps small alpha exact.
    """
    a = np.asarray(alphas, dtype=float)[:, None] ** 2
    log_norm = a + np.log(-0.5 * np.expm1(-2.0 * a))
    n = np.arange(dim)
    log_fact = np.fromiter(map(math.lgamma, range(1, dim + 1)), float, dim)
    amps = np.exp(0.5 * (n * np.log(a) - log_fact - log_norm)) * (-1.0) ** (n // 2)
    return np.where(n % 2 == 1, amps, 0.0)


def cat_state(alpha: float, nmax: int) -> np.ndarray:
    """The p-lobed odd cat of `cat_fidelity`, renormalised on |0>..|nmax>; |1> at alpha = 0.

    Raises NumericsError if the truncated basis misses CAT_NORM_DEFICIT_TOL or
    more of the untruncated norm.
    """
    if not 0.0 <= alpha < math.inf:
        raise ValidationError(f"alpha must be finite and >= 0, got {alpha}")
    require_int(nmax, "nmax", 1)
    if alpha == 0.0:
        return np.eye(nmax + 1)[1]
    coeff = _cat_amplitudes([alpha], nmax + 1)[0]
    included = float((coeff**2).sum())
    deficit = 1.0 - included
    if deficit >= CAT_NORM_DEFICIT_TOL:
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
    binom = np.array([math.comb(m, k) for m in range(k, dim)], dtype=float)
    return np.sqrt(binom * eta ** (n - k) * (1.0 - eta) ** k)


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
    if not 0.0 <= sigma < math.inf:
        raise ValidationError(f"sigma must be finite and >= 0, got {sigma}")
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
    """Wigner function W(x, p) as a separable sum of Hermite functions of x and of p.

    W(x, p) = (1/pi) int dy e^(2ipy) <x-y| rho |x+y>. The 50:50 two-mode rotation
    splits psi_m(x-y) psi_n(x+y) into sum_k B^mn_k psi_k(sqrt2 x) psi_(m+n-k)(sqrt2 y),
    and int e^(2ipy) psi_j(sqrt2 y) dy = sqrt(pi) i^j psi_j(sqrt2 p) (Leonhardt,
    Measuring the Quantum State of Light, 1997). So W = sum_kj K_kj h_k(x) h_j(p)
    with h_k(u) = psi_k(sqrt2 u), k, j < 2 dim - 1, and the real matrix
    K_kj = Re(i^j sum_(m+n=k+j) rho_mn B^mn_k) / sqrt(pi) (see `_wigner_split`).
    h is evaluated on the distinct x and the distinct p values only, after
    collapsing each axis along which a coordinate is constant, and W on the
    grid of distinct values is h(x)^T K h(p); when that grid has more entries
    than there are points (scattered points) the sum runs per point instead.
    Broadcasts over array-valued x, p. Normalized so that the full-plane
    integral is 1 and |W| <= 1/pi for any physical state.
    """
    x_arr, p_arr = np.broadcast_arrays(np.asarray(x, float), np.asarray(p, float))
    size = 2 * rho.dim - 1
    rows, target, coeff = _wigner_split(rho.dim)
    kernel = np.bincount(
        target, (rho.entries.ravel()[rows] * coeff).real, minlength=size * size
    ).reshape(size, size)

    def h(u):  # rows h_0..h_(size-1) at the points u
        return fock_wavefunctions(size - 1, math.sqrt(2.0) * u)

    xs, x_index = _distinct(x_arr)
    ps, p_index = _distinct(p_arr)
    if xs.size * ps.size <= x_arr.size:
        w = (h(xs).T @ kernel @ h(ps))[x_index, p_index]
    else:
        right = kernel @ h(p_arr.ravel())
        w = np.einsum("ki,ki->i", h(x_arr.ravel()), right).reshape(x_arr.shape)
    return float(w) if w.ndim == 0 else w


def _distinct(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values of `arr` and, broadcast to its shape, each entry's index among them.

    Axes along which `arr` is constant are dropped before sorting, so the axes
    of a meshgrid or of broadcast 1-D coordinates cost one row each.
    """
    core = arr
    for axis in range(arr.ndim):
        first = core[(slice(None),) * axis + (slice(0, 1),)]
        if (core == first).all():
            core = first
    values, index = np.unique(core, return_inverse=True)
    return values, np.broadcast_to(index.reshape(core.shape), arr.shape)


@functools.lru_cache(maxsize=2)
def _wigner_split(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The linear map rho -> K of `wigner`, as read-only (rows, target, coeff) triplets.

    K.flat[target] gathers Re(rho.flat[rows] * coeff), where coeff is
    i^j B^mn_k / sqrt(pi) for row m dim + n and target k (2 dim - 1) + j,
    j = m + n - k. With N = m + n,
    B^mn_k = 2^(-N/2) sqrt(k! (N-k)! / (m! n!)) [z^k] (z - 1)^m (1 + z)^n.
    The polynomial coefficients are exact Python integers (int64 overflows
    past dim 32) and each B is rounded once, from an exact integer ratio.
    Built on first use; the tables of the last 2 dimensions used are kept.
    """
    size = 2 * dim - 1
    fact = [math.factorial(k) for k in range(size)]
    phase = (1.0, 1j, -1.0, -1j)
    rows, target, coeff = [], [], []
    for m in range(dim):
        poly = [math.comb(m, i) * (-1) ** (m - i) for i in range(m + 1)]  # (z - 1)^m
        for n in range(dim):
            total = m + n
            for k, c in enumerate(poly):
                j = total - k
                ratio = (c * c * fact[k] * fact[j]) / (fact[m] * fact[n] << total)
                rows.append(m * dim + n)
                target.append(k * size + j)
                coeff.append(math.copysign(math.sqrt(ratio / math.pi), c) * phase[j % 4])
            poly = [a + b for a, b in zip([0] + poly, poly + [0])]  # times (1 + z)
    table = np.array(rows), np.array(target), np.array(coeff)
    for part in table:
        part.setflags(write=False)
    return table


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
    a, b = (np.pad(state.entries, (0, d - state.dim)) for state in (rho, sigma))
    evals, evecs = np.linalg.eigh(a)
    root = (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.conj().T
    mid = root @ b @ root
    mid_evals = np.clip(np.linalg.eigvalsh(mid), 0.0, None)
    return float(np.sqrt(mid_evals).sum() ** 2)


def _odd_cat_fidelities(rho: FockDensityMatrix, alphas) -> np.ndarray:
    """cat_fidelity for each alpha > 0."""
    vecs = _cat_amplitudes(alphas, rho.dim)
    return ((vecs @ rho.entries.real) * vecs).sum(axis=1)


def cat_fidelity(rho: FockDensityMatrix, alpha: float) -> float:
    """Fidelity of rho with the ideal (untruncated) odd cat of amplitude alpha.

    The cat's coherent lobes lie along p, where kitten states produced from
    x-squeezed light develop theirs. The cat is normalised on the full Fock
    space and only its components inside rho's truncated space contribute
    (rho is implicitly zero-padded). At alpha = 0 the cat is its limit |1>.
    """
    if not 0.0 <= alpha < math.inf:
        raise ValidationError(f"alpha must be finite and >= 0, got {alpha}")
    if alpha == 0.0:
        return float(rho.entries[1, 1].real) if rho.dim > 1 else 0.0
    return float(_odd_cat_fidelities(rho, [alpha])[0])


def best_cat_fidelity(rho: FockDensityMatrix) -> tuple[float, float]:
    """Maximize the odd, p-lobed cat fidelity over the amplitude alpha.

    Two deterministic scans: alpha in [0.01, 2] in steps of 0.01, then steps
    of 1e-4 over the best point +/- 0.01, kept inside [0.01, 2].
    Returns (alpha_star, fidelity_star).
    """
    coarse = np.arange(1, 201) / 100
    best = 100 * (1 + int(np.argmax(_odd_cat_fidelities(rho, coarse))))  # in units of 1e-4
    fine = np.arange(max(best - 100, 100), min(best + 100, 20_000) + 1) / 1e4
    scores = _odd_cat_fidelities(rho, fine)
    k = int(np.argmax(scores))
    return float(fine[k]), float(scores[k])


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

def density_matrix_to_json(rho: FockDensityMatrix) -> str:
    payload = {
        "nmax": rho.nmax,
        "re": rho.entries.real.tolist(),
        "im": rho.entries.imag.tolist(),
        "trace_deficit": rho.trace_deficit,
    }
    return json.dumps(payload)


def density_matrix_from_json(text: str) -> FockDensityMatrix:
    """The state a density-matrix JSON file holds; ValidationError unless it is a state."""
    try:
        payload = json.loads(text)
        nmax = int(payload["nmax"])
        re = np.asarray(payload["re"], dtype=float)
        im = np.asarray(payload["im"], dtype=float)
        deficit = float(payload.get("trace_deficit", 0.0))  # absent from older files
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise ValidationError(f"malformed density-matrix JSON: {exc}") from exc
    if re.shape != im.shape:
        raise ValidationError(
            f"density-matrix JSON has re of shape {re.shape} but im of shape {im.shape}"
        )
    if not math.isfinite(deficit):
        raise ValidationError("density-matrix JSON has a non-finite trace_deficit")
    rho = FockDensityMatrix(nmax=nmax, entries=re + 1j * im, trace_deficit=deficit)
    rho.validate()
    return rho


def save_density_matrix(rho: FockDensityMatrix, path) -> None:
    atomic_write_text(path, density_matrix_to_json(rho))


def load_density_matrix(path) -> FockDensityMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return density_matrix_from_json(fh.read())
