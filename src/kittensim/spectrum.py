"""Below-threshold OPO squeezing spectra, phase-noise dephasing, and the joint fit.

The sideband variances of an OPO of decay rate gamma pumped at rate epsilon,
measured with overall efficiency eta, are

    V_x(f) = 1/2 - 2 gamma epsilon eta / ((gamma + epsilon)^2 + (2 pi f)^2)
    V_p(f) = 1/2 + 2 gamma epsilon eta / ((gamma - epsilon)^2 + (2 pi f)^2)

(rates in rad/s, f in Hz, variances in shot-noise units). The excess over
vacuum is linear in eta, so a detector clearance c(f) scales it per frequency.
Gaussian phase noise of spread sigma mixes the quadratures before projection
onto the measured angle, through the phase contrast D = e^{-2 sigma^2}:

    V_theta = Vx_s cos^2(theta) + Vp_s sin^2(theta)
    Vx_s = (1 + D)/2 Vx + (1 - D)/2 Vp   (and x <-> p)

The joint fit recovers (epsilon, eta, sigma) and the true analysis angles from
variance spectra taken at several nominal angles; gamma and the 0/90 degree
angles stay fixed. It fits D rather than sigma, since d/dsigma vanishes at
sigma = 0 and would hold a fit that reaches that bound.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ValidationError
from .util import lookup_angle, match_angle, read_csv, write_csv

_FIXED_ANGLES = (0.0, math.pi / 2)
_SPECTRUM_HEADER = ("freq_hz", "angle_deg", "variance_snu")
_CLEARANCE_HEADER = ("freq_hz", "clearance")
MAX_LM_STEPS = 500  # Levenberg-Marquardt steps before joint_fit returns a capped fit


def spectral_variances(f, gamma: float, epsilon: float, eta: float):
    """(V_x, V_p) sideband variances at Fourier frequency f (Hz)."""
    if not 0.0 < gamma < math.inf:
        raise ValidationError(f"gamma must be positive and finite, got {gamma}")
    if not 0.0 <= epsilon < gamma:
        raise ValidationError("pump rate must satisfy 0 <= epsilon < gamma")
    if not 0.0 <= eta <= 1.0:
        raise ValidationError("efficiency must lie in [0, 1]")
    f = np.asarray(f, dtype=float)
    omega2 = (2.0 * math.pi * f) ** 2
    num = 2.0 * gamma * epsilon * eta
    vx = 0.5 - num / ((gamma + epsilon) ** 2 + omega2)
    vp = 0.5 + num / ((gamma - epsilon) ** 2 + omega2)
    return vx, vp


def dephased_variance(theta, sigma: float, vx, vp):
    """Measured variance at angle theta under Gaussian phase noise of spread sigma."""
    if not 0.0 <= sigma < math.inf:
        raise ValidationError(f"sigma must be finite and >= 0, got {sigma}")
    theta = np.asarray(theta, dtype=float)
    damp = math.exp(-2.0 * sigma**2)
    vx_s = 0.5 * (1.0 + damp) * np.asarray(vx) + 0.5 * (1.0 - damp) * np.asarray(vp)
    vp_s = 0.5 * (1.0 + damp) * np.asarray(vp) + 0.5 * (1.0 - damp) * np.asarray(vx)
    return vx_s * np.cos(theta) ** 2 + vp_s * np.sin(theta) ** 2


@dataclass(frozen=True)
class SpectrumModelParams:
    """Parameters of the dephased OPO spectrum model (rates rad/s, angles radians).

    theta_true maps each nominal analysis angle onto the fitted true angle; the
    0 and 90 degree entries are pinned to their nominal values.
    """

    gamma: float
    epsilon: float
    eta: float
    sigma: float
    theta_true: dict[float, float]

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma < math.inf:
            raise ValidationError(f"gamma must be positive and finite, got {self.gamma}")
        if not 0.0 <= self.epsilon < self.gamma:
            raise ValidationError("epsilon must lie in [0, gamma)")
        if not 0.0 <= self.eta <= 1.0:
            raise ValidationError("eta must lie in [0, 1]")
        if not 0.0 <= self.sigma < math.inf:
            raise ValidationError(f"sigma must be finite and >= 0, got {self.sigma}")
        for k, v in self.theta_true.items():
            fixed = match_angle(k, _FIXED_ANGLES)
            if fixed is not None and match_angle(v, (fixed,)) is None:
                raise ValidationError(
                    "0 and 90 degree angles are fixed references and cannot move"
                )

    def true_angle(self, nominal: float) -> float:
        return lookup_angle(self.theta_true, nominal)


@dataclass(frozen=True)
class SpectrumData:
    """Variance spectra per nominal angle plus an optional clearance curve.

    freq: increasing Fourier frequencies (Hz); variances: {nominal angle (rad):
    V(f) in shot-noise units}; clearance: multiplicative efficiency roll-off
    c(f) in (0, 1], defaults to 1.
    """

    freq: np.ndarray
    variances: dict[float, np.ndarray]
    clearance: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        freq = np.asarray(self.freq, dtype=float)
        if freq.ndim != 1 or freq.size < 2 or not np.all(np.diff(freq) > 0.0):  # NaN fails too
            raise ValidationError("frequency grid must be 1-D and strictly increasing")
        var = {float(k): np.asarray(v, dtype=float) for k, v in self.variances.items()}
        for k, v in var.items():
            if v.shape != freq.shape:
                raise ValidationError(f"variance curve at {k} does not match the grid")
            if not np.all((v > 0.0) & (v < math.inf)):
                raise ValidationError(f"variances must be finite and positive (curve at {k})")
        clearance = (
            np.ones_like(freq) if self.clearance is None else np.asarray(self.clearance, float)
        )
        if clearance.shape != freq.shape or not np.all((clearance >= 0.0) & (clearance <= 1.0)):
            raise ValidationError("clearance must lie in [0, 1] on the frequency grid")
        object.__setattr__(self, "freq", freq)
        object.__setattr__(self, "variances", var)
        object.__setattr__(self, "clearance", clearance)

    @property
    def nominal_angles(self) -> list[float]:
        return sorted(self.variances.keys())


def model_spectrum(
    params: SpectrumModelParams,
    nominal_angle: float,
    freq,
    clearance=None,
) -> np.ndarray:
    """Model variance curve at one nominal angle over the given frequencies."""
    freq = np.asarray(freq, dtype=float)
    c = np.ones_like(freq) if clearance is None else np.asarray(clearance, dtype=float)
    vx, vp = spectral_variances(freq, params.gamma, params.epsilon, params.eta)
    # the excess over vacuum is linear in eta, so the clearance scales it per frequency
    vx, vp = 0.5 + c * (vx - 0.5), 0.5 + c * (vp - 0.5)
    return dephased_variance(params.true_angle(nominal_angle), params.sigma, vx, vp)


# ---------------------------------------------------------------------------
# Joint fit (box-bounded Levenberg-Marquardt)
# ---------------------------------------------------------------------------

@dataclass
class FitResult:
    params: SpectrumModelParams
    cost: float
    iterations: int
    converged: bool
    projected: bool
    per_angle_rms: dict[float, float]

    @property
    def uncertified(self) -> str | None:
        return None if self.converged else "fit did not converge"


def _box_least_squares(
    fun, x: np.ndarray, lower: np.ndarray, upper: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int, bool]:
    """Levenberg-Marquardt on the box [lower, upper], steps clipped to the box.

    The Jacobian is a forward difference, taken inward at an upper bound. A
    parameter on a bound whose gradient points out of the box is held there for
    the step, so the others converge on that face instead of creeping along it.
    Stops when the cost drops by less than 1e-10 of itself, the largest step is
    below 1e-9, or no damped step lowers the cost, and after MAX_LM_STEPS
    steps unconverged. Returns (x, residual, iterations, converged).
    """
    x = np.clip(x, lower, upper)
    r = fun(x)
    lam = 1e-3
    for iteration in range(1, MAX_LM_STEPS + 1):
        jac = np.empty((r.size, x.size))
        for i in range(x.size):
            dx = np.zeros_like(x)
            dx[i] = -1e-7 if x[i] + 1e-7 > upper[i] else 1e-7
            jac[:, i] = (fun(x + dx) - r) / dx[i]
        grad, hess = jac.T @ r, jac.T @ jac
        free = ~(((x <= lower) & (grad > 0.0)) | ((x >= upper) & (grad < 0.0)))
        hess = hess[np.ix_(free, free)]
        damping = np.diag(np.maximum(np.diag(hess), 1e-12))
        for _ in range(25):
            step = np.zeros_like(x)
            step[free] = -np.linalg.solve(hess + lam * damping, grad[free])
            x_new = np.clip(x + step, lower, upper)
            r_new = fun(x_new)
            if r_new @ r_new <= r @ r:
                break
            lam *= 5.0
        else:
            return x, r, iteration, True  # damping saturated: stationary within roundoff
        drop = (r @ r - r_new @ r_new) / max(r @ r, 1e-300)
        moved = np.max(np.abs(x_new - x))
        x, r, lam = x_new, r_new, max(lam / 3.0, 1e-12)
        if drop < 1e-10 or moved < 1e-9:
            return x, r, iteration, True
    return x, r, MAX_LM_STEPS, False


def joint_fit(
    data: SpectrumData,
    gamma: float,
    *,
    fit_db: bool = False,
) -> FitResult:
    """Jointly fit (epsilon, eta, sigma) and the movable true angles to all spectra.

    gamma stays fixed; nominal 0 and 90 degree angles are trusted references.
    Residuals are model - data in linear shot-noise units (or in dB when
    fit_db=True); cost is their plain sum of squares. One box-bounded
    Levenberg-Marquardt run from a single start fits the phase contrast
    D = exp(-2 sigma^2) in [exp(-2 pi^2), 1] in place of sigma: the model
    depends on sigma only through D, so its gradient in sigma vanishes at
    sigma = 0 while the gradient in D does not. Deterministic given the data;
    the fit starts from epsilon = gamma/4, eta = 0.5, sigma = 10 degrees and
    the nominal angles. `iterations` counts Levenberg-Marquardt steps and
    MAX_LM_STEPS caps them; a capped fit returns its best point with
    converged=False. `projected` reports epsilon, eta or D ending on a bound.
    """
    angles = data.nominal_angles
    if len(angles) < 2:
        raise ValidationError("joint fit needs spectra at >= 2 nominal angles")
    if data.freq.size < 20:
        raise ValidationError("joint fit needs >= 20 frequency points")
    free_angles = [a for a in angles if match_angle(a, _FIXED_ANGLES) is None]

    stacked = np.concatenate([data.variances[a] for a in angles])
    if fit_db:
        stacked = 10.0 * np.log10(stacked / 0.5)

    def unpack(x: np.ndarray) -> SpectrumModelParams:
        theta = {a: a for a in angles}
        for i, a in enumerate(free_angles):
            theta[a] = float(x[3 + i])
        return SpectrumModelParams(
            gamma=gamma,
            epsilon=float(x[0]) * gamma,
            eta=float(x[1]),
            sigma=math.sqrt(0.5 * math.log(1.0 / float(x[2]))),
            theta_true=theta,
        )

    def residual(x: np.ndarray) -> np.ndarray:
        params = unpack(x)
        model = np.concatenate(
            [model_spectrum(params, a, data.freq, data.clearance) for a in angles]
        )
        if fit_db:
            model = 10.0 * np.log10(np.maximum(model, 1e-12) / 0.5)
        return model - stacked

    start = np.array([0.25, 0.5, math.exp(-2.0 * math.radians(10.0) ** 2), *free_angles])
    lower = np.concatenate([[0.0, 0.0, math.exp(-2.0 * math.pi**2)],
                            np.full(len(free_angles), -np.inf)])
    upper = np.concatenate([[0.999, 1.0, 1.0], np.full(len(free_angles), np.inf)])
    x, res, iterations, converged = _box_least_squares(residual, start, lower, upper)
    # non-convergence returns the best-so-far result flagged, never raises
    params = unpack(x)
    # report true angles folded into [0, 180) degrees
    folded = {a: t % math.pi for a, t in params.theta_true.items()}
    params = replace(params, theta_true=folded)
    rms = np.sqrt(np.mean(res.reshape(len(angles), -1) ** 2, axis=1))
    return FitResult(
        params=params,
        cost=float(res @ res),
        iterations=iterations,
        converged=converged,
        projected=bool(np.any((x == lower) | (x == upper))),
        per_angle_rms=dict(zip(angles, rms.tolist())),
    )


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def save_spectrum_csv(data: SpectrumData, path) -> None:
    angles = data.nominal_angles
    write_csv(path, _SPECTRUM_HEADER, (
        np.tile(data.freq, len(angles)),
        np.repeat([math.degrees(a) for a in angles], data.freq.size),
        np.concatenate([data.variances[a] for a in angles]),
    ))


def load_spectrum_csv(path, clearance_path=None) -> SpectrumData:
    _, (freqs, degs, values) = read_csv(path, _SPECTRUM_HEADER)
    if not degs.size:
        raise ValidationError(f"{path}: no spectrum rows")
    freq = None
    variances = {}
    for deg in dict.fromkeys(degs.tolist()):
        f, v = freqs[degs == deg], values[degs == deg]
        order = np.lexsort((v, f))
        if freq is None:
            freq = f[order]
        elif f.size != freq.size or not np.allclose(f[order], freq):
            raise ValidationError(f"{path}: angle {deg} uses a different frequency grid")
        variances[math.radians(deg)] = v[order]

    clearance = None
    if clearance_path is not None:
        _, (cf, cv) = read_csv(clearance_path, _CLEARANCE_HEADER)
        order = np.argsort(cf)
        if cf.size != freq.size or not np.allclose(cf[order], freq):
            raise ValidationError("clearance grid does not match the spectrum grid")
        clearance = cv[order]
    return SpectrumData(freq=freq, variances=variances, clearance=clearance)


def save_clearance_csv(freq: np.ndarray, clearance: np.ndarray, path) -> None:
    write_csv(path, _CLEARANCE_HEADER, (freq, clearance))


def fit_report_json(result: FitResult) -> str:
    payload = {
        "gamma_hz": result.params.gamma / (2.0 * math.pi),
        "epsilon_hz": result.params.epsilon / (2.0 * math.pi),
        "eta": result.params.eta,
        "sigma_deg": math.degrees(result.params.sigma),
        "theta_true_deg": {
            f"{math.degrees(k):.6g}": math.degrees(v)
            for k, v in sorted(result.params.theta_true.items())
        },
        "per_angle_rms_snu": {
            f"{math.degrees(k):.6g}": v for k, v in sorted(result.per_angle_rms.items())
        },
        "cost": result.cost,
        "iterations": result.iterations,
        "converged": result.converged,
        "projected": result.projected,
    }
    return json.dumps(payload, indent=2)
