"""Temporal-mode machinery: the heralded wavepacket, extraction, and trace synthesis.

The herald-conditioned signal occupies a two-sided exponential mode shaped by the
source linewidth gamma and the trigger-filter linewidth kappa,

    f(t) = exp(-gamma |t - t0|)/gamma - exp(-kappa |t - t0|)/kappa,

discretized on the trace grid and L2-normalized so that extracting white noise of
per-sample variance s^2 returns variance s^2 (vacuum -> 1/2 in shot-noise units).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NumericsError, ValidationError
from .util import read_csv, require_int, write_csv

TAIL_FRACTION_TOL = 1e-3
_MIN_ENSEMBLE = 1000
# synthesis draws the real parts of this many traces at a time, then each sub-block of
# _FFT_ROWS traces' imaginary parts as it inverse-transforms that sub-block into the
# output, so its temporaries stay small beside the output
_DRAW_ROWS = 2048
_FFT_ROWS = 256


@dataclass(frozen=True)
class TimeTrace:
    """One recorded homodyne trace: uniformly sampled values plus trigger position."""

    sample_rate: float
    values: np.ndarray
    trigger_index: int = 0

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise ValidationError("trace values must be a non-empty 1-D array")
        if not 0.0 < self.sample_rate < math.inf:
            raise ValidationError("sample_rate must be positive and finite")
        if not 0 <= self.trigger_index < vals.size:
            raise ValidationError("trigger_index outside the trace")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class ModeFunction:
    """Unit-norm discrete temporal mode aligned with a trace grid."""

    gamma: float
    kappa: float
    t0: float
    sample_rate: float
    t_start: float
    weights: np.ndarray
    tail_fraction: float

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


def mode_function_eval(t, gamma: float, kappa: float, t0: float = 0.0):
    """The un-normalized two-sided exponential mode; peak value 1/gamma - 1/kappa.

    e^(-gamma tau)/gamma - e^(-kappa tau)/kappa, tau = |t - t0|, is evaluated as
    (e^(-gamma tau)/gamma) (-expm1(log1p(-(kappa - gamma)/kappa) - (kappa - gamma) tau)):
    the two exponentials do not cancel as gamma -> kappa.
    """
    if not 0.0 < gamma < kappa < math.inf:
        raise ValidationError("mode function needs finite kappa > gamma > 0")
    tau = np.abs(np.asarray(t, dtype=float) - t0)
    gap = kappa - gamma
    with np.errstate(divide="ignore"):  # log1p(-1) = -inf once gamma/kappa < 2^-53
        log_ratio = np.log1p(-gap / kappa)
    val = np.exp(-gamma * tau) / gamma * -np.expm1(log_ratio - gap * tau)
    return val if val.ndim else float(val)


def _tail_mass(gamma: float, kappa: float, tau: float) -> float:
    """int_tau^inf f(t0+s)^2 ds in units of 1/(2 gamma^3): no power of a rate can overflow."""
    r = gamma / kappa
    return (
        math.exp(-2.0 * gamma * tau)
        - 4.0 * r * r / (1.0 + r) * math.exp(-(gamma + kappa) * tau)
        + r**3 * math.exp(-2.0 * kappa * tau)
    )


def build_mode(
    gamma: float,
    kappa: float,
    t0: float,
    sample_rate: float,
    window: tuple[float, float],
) -> ModeFunction:
    """Discretize and L2-normalize the mode on window = (t_start, t_end).

    Raises NumericsError when more than 1e-3 of the mode's continuous L2 mass
    falls outside the window (window too short or t0 badly placed).
    """
    t_start, t_end = window
    if not -math.inf < t_start < t_end < math.inf:
        raise ValidationError("window must satisfy t_end > t_start, both finite")
    if not 0.0 < sample_rate < math.inf:
        raise ValidationError("sample_rate must be positive and finite")
    if not t_start <= t0 <= t_end:
        raise ValidationError("t0 must lie inside the window")
    n = int(round((t_end - t_start) * sample_rate))
    if n < 8:
        raise ValidationError("window shorter than 8 samples")
    t = t_start + np.arange(n) / sample_rate
    w = mode_function_eval(t, gamma, kappa, t0)  # checks the rates before the tail mass
    # the whole mass, 2 _tail_mass(gamma, kappa, 0), factored to keep its digits as gamma -> kappa
    r = gamma / kappa
    total = 2.0 * ((kappa - gamma) / kappa) ** 2 * (1.0 + 3.0 * r + r * r) / (1.0 + r)
    tail = _tail_mass(gamma, kappa, t0 - t_start) + _tail_mass(gamma, kappa, t_end - t0)
    tail_fraction = tail / total
    if not tail_fraction <= TAIL_FRACTION_TOL:  # a NaN fraction fails too
        raise NumericsError(
            f"window keeps only {1 - tail_fraction:.6f} of the mode's L2 mass "
            f"(tail fraction {tail_fraction:.2e} > {TAIL_FRACTION_TOL:.0e})"
        )
    w = w / np.linalg.norm(w)
    return ModeFunction(
        gamma=gamma,
        kappa=kappa,
        t0=t0,
        sample_rate=sample_rate,
        t_start=t_start,
        weights=w,
        tail_fraction=tail_fraction,
    )


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------

def extract_ensemble(values: np.ndarray, mode: ModeFunction) -> np.ndarray:
    """Project every row of a (traces x samples) array onto the mode."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] != mode.weights.size:
        raise ValidationError("ensemble must be 2-D with rows matching the mode length")
    return values @ mode.weights


def shot_noise_scale(vacuum_values: np.ndarray, mode: ModeFunction) -> tuple[float, float]:
    """Calibration factor mapping raw extracted units to shot-noise units.

    Dividing extracted values by the returned scale gives vacuum variance 1/2.
    Returns (scale, standard_error); requires >= 1000 vacuum traces.
    """
    q = extract_ensemble(vacuum_values, mode)
    if q.size < _MIN_ENSEMBLE:
        raise ValidationError(f"need >= {_MIN_ENSEMBLE} vacuum traces, got {q.size}")
    v = float(np.var(q, ddof=1))
    if v <= 0.0:
        raise NumericsError("vacuum ensemble has zero variance")
    scale = math.sqrt(2.0 * v)
    # delta method on the sampling error of the variance
    stderr = scale / math.sqrt(2.0 * (q.size - 1))
    return scale, stderr


# ---------------------------------------------------------------------------
# Data-driven mode estimation
# ---------------------------------------------------------------------------

def _second_moment(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    return values.T @ values / values.shape[0]


def principal_mode(signal_values: np.ndarray, vacuum_values: np.ndarray) -> np.ndarray:
    """Dominant temporal mode of the vacuum-subtracted trace autocovariance.

    Both inputs are (traces x samples) arrays on the same grid; traces are
    zero-mean, so the autocovariance is taken as the raw second moment. The
    top eigenvector (by |eigenvalue|) of C_signal - C_vacuum is returned with
    its largest-magnitude tap made positive. Raises NumericsError when no
    eigenvalue stands above the vacuum sampling noise or when the top two are
    degenerate.
    """
    signal_values = np.asarray(signal_values, dtype=float)
    vacuum_values = np.asarray(vacuum_values, dtype=float)
    if signal_values.ndim != 2 or vacuum_values.ndim != 2:
        raise ValidationError("ensembles must be 2-D arrays (traces x samples)")
    if signal_values.shape[1] != vacuum_values.shape[1]:
        raise ValidationError("signal and vacuum ensembles use different grids")
    m_sig, m_vac = signal_values.shape[0], vacuum_values.shape[0]
    if min(m_sig, m_vac) < _MIN_ENSEMBLE:
        raise ValidationError(f"need >= {_MIN_ENSEMBLE} traces in each ensemble")

    diff = _second_moment(signal_values) - _second_moment(vacuum_values)
    evals, evecs = np.linalg.eigh(diff)
    order = np.argsort(np.abs(evals))[::-1]
    top, runner = evals[order[0]], evals[order[1]]

    # Noise floor: spectral radius of the split-half vacuum covariance difference,
    # rescaled from the half-ensemble sampling variance to the signal-vs-vacuum one.
    half = m_vac // 2
    floor_raw = np.abs(
        np.linalg.eigvalsh(
            _second_moment(vacuum_values[:half]) - _second_moment(vacuum_values[half:2 * half])
        )
    ).max()
    rescale = math.sqrt((1.0 / m_sig + 1.0 / m_vac) * half / 2.0)
    floor = floor_raw * rescale
    if abs(top) < 3.0 * floor:
        raise NumericsError(
            f"no dominant mode: top excess eigenvalue {top:.3e} is within the "
            f"vacuum sampling floor {floor:.3e}"
        )
    if abs(top) - abs(runner) < 1e-6 * abs(top):
        raise NumericsError("top two excess eigenvalues are degenerate")

    mode = evecs[:, order[0]]
    mode = mode / np.linalg.norm(mode)
    peak = int(np.argmax(np.abs(mode)))
    if mode[peak] < 0.0:
        mode = -mode
    return mode


# ---------------------------------------------------------------------------
# Stationary Gaussian trace synthesis
# ---------------------------------------------------------------------------

def _spectrum_on_grid(spectrum, freqs: np.ndarray) -> np.ndarray:
    """The callable `spectrum` on `freqs`: one finite, non-negative value per frequency."""
    v = np.asarray(spectrum(freqs), dtype=float)
    if v.shape != freqs.shape:
        raise ValidationError(
            f"spectrum returned shape {v.shape}, not the rfft grid's {freqs.shape}"
        )
    if np.any(v < 0.0) or not np.all(np.isfinite(v)):
        raise ValidationError("spectrum must be finite and non-negative")
    return v


def synthesize_gaussian_traces(
    spectrum,
    duration: float,
    sample_rate: float,
    count: int,
    seed: int,
) -> np.ndarray:
    """Synthesize stationary Gaussian traces with a target one-sided spectrum.

    `spectrum` is a vectorized callable V(f) in shot-noise units (flat
    V = 1/2 is vacuum), evaluated on the rfft frequency grid. Each Fourier bin
    receives an independent complex Gaussian amplitude with E|Z_k|^2 = N V_k,
    which makes the ensemble periodogram |rfft(x)|^2 / N an unbiased estimate
    of V. Returns a (count x N) array; deterministic for a fixed seed.
    """
    if not (0.0 < duration < math.inf and 0.0 < sample_rate < math.inf
            and duration * sample_rate < math.inf):
        raise ValidationError(
            "duration, sample_rate and their product must be positive and finite"
        )
    require_int(count, "count", 1)
    require_int(seed, "seed")
    n = int(round(duration * sample_rate))
    if n < 8:
        raise ValidationError("trace shorter than 8 samples")
    v = _spectrum_on_grid(spectrum, np.fft.rfftfreq(n, d=1.0 / sample_rate))
    rng = np.random.default_rng(seed)
    amp = np.sqrt(n * v)
    half = amp / math.sqrt(2.0)
    nyquist = n % 2 == 0
    out = np.empty((count, n))
    im = np.empty((min(_FFT_ROWS, count), v.size))
    z = np.empty(im.shape, dtype=complex)
    for start in range(0, count, _DRAW_ROWS):
        rows = min(_DRAW_ROWS, count - start)
        # all real parts of the block, then its imaginary parts in row order: this
        # fixes the stream, and drawing those a sub-block at a time keeps it
        re = rng.standard_normal((rows, v.size))
        for sub in range(0, rows, _FFT_ROWS):
            re_sub = re[sub : sub + _FFT_ROWS]
            k = re_sub.shape[0]
            rng.standard_normal(out=im[:k])
            np.multiply(re_sub, half, out=z[:k].real)
            np.multiply(im[:k], half, out=z[:k].imag)
            z[:k, 0] = re_sub[:, 0] * amp[0]  # DC bin is real
            if nyquist:
                z[:k, -1] = re_sub[:, -1] * amp[-1]
            np.fft.irfft(z[:k], n=n, axis=1, out=out[start + sub : start + sub + k])
    return out


def periodogram(values: np.ndarray, sample_rate: float) -> tuple[np.ndarray, np.ndarray]:
    """Ensemble-averaged one-sided periodogram in the synthesis normalization."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValidationError("periodogram expects a 2-D ensemble")
    n = values.shape[1]
    freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate)
    power = (np.abs(np.fft.rfft(values, axis=1)) ** 2).mean(axis=0) / n
    return freqs, power


def mode_variance_from_spectrum(mode: ModeFunction, spectrum) -> float:
    """Frequency-domain prediction of the extracted-quadrature variance.

    Var(q) = (2/fs) int_0^{fs/2} V(f) |W(f)|^2 df with W the discrete-time
    Fourier transform of the unit-norm mode taps and V the vectorized callable
    `spectrum`; evaluated by an 8-fold zero-padded FFT and trapezoidal
    integration.
    """
    w = mode.weights
    n_pad = 8 * w.size
    spec_w = np.abs(np.fft.rfft(w, n=n_pad)) ** 2
    freqs = np.fft.rfftfreq(n_pad, d=1.0 / mode.sample_rate)
    integrand = _spectrum_on_grid(spectrum, freqs) * spec_w
    return float(
        (2.0 / mode.sample_rate) * np.trapezoid(integrand, dx=freqs[1] - freqs[0])
    )


# ---------------------------------------------------------------------------
# Trace files
# ---------------------------------------------------------------------------

def save_trace_csv(trace: TimeTrace, path) -> None:
    metadata = {
        "sample_rate_hz": float(trace.sample_rate),
        "trigger_index": int(trace.trigger_index),
    }
    write_csv(path, ("value",), (trace.values,), metadata)


def load_trace_csv(path) -> TimeTrace:
    """Read a trace file written by save_trace_csv."""
    metadata, (values,) = read_csv(path, ("value",))
    if "sample_rate_hz" not in metadata:
        raise ValidationError(f"{path}: missing '# sample_rate_hz=' metadata")
    trigger_index = metadata.get("trigger_index", 0.0)
    if not trigger_index.is_integer():
        raise ValidationError(f"{path}: trigger_index must be an integer")
    return TimeTrace(metadata["sample_rate_hz"], values, int(trigger_index))


def load_trace_dir(directory) -> tuple[np.ndarray, float, np.ndarray]:
    """Load every *.csv trace in a directory (sorted) into one ensemble array.

    Each file is copied into its row as it is read, so the ensemble is held once.
    """
    directory = Path(directory)
    files = sorted(directory.glob("*.csv"))
    if not files:
        raise ValidationError(f"no trace files found in {directory}")
    first = load_trace_csv(files[0])
    rate = first.sample_rate
    values = np.empty((len(files), first.values.size))
    triggers = np.empty(len(files), dtype=int)
    for row, f in enumerate(files):
        t = first if row == 0 else load_trace_csv(f)
        if not math.isclose(t.sample_rate, rate, rel_tol=1e-9) or t.values.size != values.shape[1]:
            raise ValidationError(f"{f}: trace grid differs from the rest of the ensemble")
        values[row] = t.values
        triggers[row] = t.trigger_index
    return values, rate, triggers
