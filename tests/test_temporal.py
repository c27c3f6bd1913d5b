import decimal
import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest

from kittensim import (
    TimeTrace,
    ValidationError,
    NumericsError,
    build_mode,
    extract_ensemble,
    extract_quadrature,
    load_trace_csv,
    load_trace_dir,
    mode_function_eval,
    mode_variance_from_spectrum,
    periodogram,
    principal_mode,
    save_trace_csv,
    shot_noise_scale,
    synthesize_gaussian_traces,
)
from kittensim.spectrum import spectral_variances

FS = 500e6
GAMMA = 2 * math.pi * 8.0e6
KAPPA = 2 * math.pi * 30.0e6


def flat_half(f):
    return np.full_like(np.asarray(f, dtype=float), 0.5)


def test_mode_function_peak_value():
    peak = mode_function_eval(np.array([0.0]), GAMMA, KAPPA, t0=0.0)[0]
    assert peak == pytest.approx(1.0 / GAMMA - 1.0 / KAPPA, rel=1e-12)
    assert peak == pytest.approx(1.4589203116757074e-8, rel=1e-12)


def test_mode_function_requires_kappa_above_gamma():
    with pytest.raises(ValidationError):
        mode_function_eval(np.zeros(3), KAPPA, GAMMA)


@pytest.mark.parametrize("gamma, kappa", [
    (GAMMA, 0.0), (0.0, KAPPA), (-GAMMA, KAPPA), (GAMMA, math.inf), (math.nan, KAPPA),
], ids=["kappa-0", "gamma-0", "gamma-negative", "kappa-inf", "gamma-nan"])
def test_build_mode_checks_the_rates_first(gamma, kappa):
    # the tail mass came first: a ZeroDivisionError, a window that "keeps only
    # -1.1e22" of the mass, or a NaN mode
    with pytest.raises(ValidationError, match="needs finite kappa > gamma > 0"):
        build_mode(gamma, kappa, 0.5e-6, FS, window=(0.0, 1.0e-6))


@pytest.mark.parametrize("gamma", [6.3e-104, 1e-200])
def test_build_mode_rejects_a_window_for_a_vanishing_gamma(gamma):
    # the mode barely decays inside the window; the tail mass divided by
    # gamma**3, which overflowed to a NaN fraction that let a flat mode
    # through (6.3e-104) or underflowed to a ZeroDivisionError (1e-200)
    with pytest.raises(NumericsError, match=re.escape("tail fraction 1.00e+00 > 1e-03")):
        build_mode(gamma, KAPPA, 0.5e-6, FS, window=(0.0, 1.0e-6))


@pytest.mark.parametrize("gap", [1e-10, 1e-12])
def test_build_mode_keeps_the_mass_of_a_nearly_degenerate_mode(gap):
    # gamma within `gap` of kappa: the unfactored whole mass cancelled to 0
    # and the call ended in a ZeroDivisionError
    mode = build_mode(KAPPA * (1.0 - gap), KAPPA, 0.5e-6, FS, window=(0.0, 1.0e-6))
    assert np.linalg.norm(mode.weights) == pytest.approx(1.0, rel=1e-12)
    assert abs(mode.tail_fraction) < 1e-60


def mode_times(mode):
    """The trace-grid times of the mode's taps."""
    return mode.t_start + np.arange(mode.weights.size) / mode.sample_rate


def reference_mode_weights(mode):
    """The unit-norm weights of `mode` at its float times, in 60-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        gamma, kappa, t0 = (decimal.Decimal(v) for v in (mode.gamma, mode.kappa, mode.t0))
        vals = []
        for t in mode_times(mode):
            tau = abs(decimal.Decimal(float(t)) - t0)
            vals.append((-gamma * tau).exp() / gamma - (-kappa * tau).exp() / kappa)
        norm = sum(v * v for v in vals).sqrt()
        return np.array([float(v / norm) for v in vals])


@pytest.mark.parametrize("gap", [1e-10, 1e-12, 1e-14])
def test_nearly_degenerate_mode_matches_an_extended_precision_reference(gap):
    # the two exponentials of the mode cancelled: the weights were off by
    # 1.2e-7, 1.9e-5 and 1.6e-3 at these gaps
    mode = build_mode(KAPPA * (1.0 - gap), KAPPA, 0.5e-6, FS, window=(0.0, 1.0e-6))
    assert np.max(np.abs(mode.weights - reference_mode_weights(mode))) <= 1e-15


def test_default_mode_keeps_its_weights():
    mode = build_mode(GAMMA, KAPPA, 0.5e-6, FS, window=(0.0, 1.0e-6))
    tau = np.abs(mode_times(mode) - 0.5e-6)
    direct = np.exp(-GAMMA * tau) / GAMMA - np.exp(-KAPPA * tau) / KAPPA
    assert np.max(np.abs(mode.weights - direct / np.linalg.norm(direct))) <= 1e-15
    assert np.max(np.abs(mode.weights - reference_mode_weights(mode))) <= 1e-15


def traced_peak(call):
    """(call(), the peak bytes that tracemalloc saw allocated while it ran)."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_build_mode_shape_and_norm():
    mode = build_mode(GAMMA, KAPPA, 0.5e-6, FS, window=(0.0, 1.0e-6))
    assert mode.weights.size == 500
    assert np.linalg.norm(mode.weights) == pytest.approx(1.0, rel=1e-12)
    assert mode.tail_fraction < 1e-3
    # peak sits at t0
    assert abs(mode_times(mode)[np.argmax(np.abs(mode.weights))] - 0.5e-6) < 2.0 / FS


def test_build_mode_rejects_short_window():
    # clipping away >1e-3 of the L2 mass is a numerics failure ...
    with pytest.raises(NumericsError):
        build_mode(GAMMA, KAPPA, 0.05e-6, FS, window=(0.0, 0.1e-6))
    # ... while a t0 outside the window is a validation failure
    with pytest.raises(ValidationError):
        build_mode(GAMMA, KAPPA, 2.0e-6, FS, window=(0.0, 1.0e-6))


def test_extract_quadrature_linearity():
    mode = build_mode(GAMMA, KAPPA, 0.5e-6, FS, window=(0.0, 1.0e-6))
    rng = np.random.default_rng(5)
    v1 = rng.standard_normal(mode.weights.size)
    v2 = rng.standard_normal(mode.weights.size)
    q1 = extract_quadrature(TimeTrace(FS, v1), mode)
    q2 = extract_quadrature(TimeTrace(FS, v2), mode)
    q12 = extract_quadrature(TimeTrace(FS, 2.0 * v1 - 3.0 * v2), mode)
    assert q12 == pytest.approx(2.0 * q1 - 3.0 * q2, rel=1e-12)


def test_extract_rejects_grid_mismatch():
    mode = build_mode(GAMMA, KAPPA, 0.5e-6, FS, window=(0.0, 1.0e-6))
    with pytest.raises(ValidationError):
        extract_quadrature(TimeTrace(FS / 2, np.zeros(500)), mode)
    with pytest.raises(ValidationError):
        extract_quadrature(TimeTrace(FS, np.zeros(400)), mode)


def test_unit_mode_preserves_white_noise_variance():
    mode = build_mode(GAMMA, KAPPA, 0.5e-6, FS, window=(0.0, 1.0e-6))
    m = 30_000
    rng = np.random.default_rng(17)
    traces = math.sqrt(0.5) * rng.standard_normal((m, mode.weights.size))
    quads = extract_ensemble(traces, mode)
    se = 0.5 * math.sqrt(2.0 / m)
    assert abs(np.var(quads) - 0.5) < 3 * se


def test_shot_noise_scale():
    mode = build_mode(GAMMA, KAPPA, 0.5e-6, FS, window=(0.0, 1.0e-6))
    m = 20_000
    rng = np.random.default_rng(29)
    traces = math.sqrt(0.5) * rng.standard_normal((m, mode.weights.size))
    scale, err = shot_noise_scale(traces, mode)
    assert abs(scale - 1.0) < 3 * err
    assert err == pytest.approx(scale / math.sqrt(2 * (m - 1)), rel=1e-9)
    with pytest.raises(ValidationError):
        shot_noise_scale(traces[:500], mode)


def test_synthesis_flat_spectrum_variance():
    traces = synthesize_gaussian_traces(flat_half, 1.0e-6, FS, 4000, seed=101)
    assert traces.shape == (4000, 500)
    v = float(np.var(traces))
    se = 0.5 * math.sqrt(2.0 / traces.size)
    # per-sample variance = (2/fs) * integral of V over [0, fs/2] = 0.5
    assert abs(v - 0.5) < 5 * se


def test_synthesis_deterministic():
    a = synthesize_gaussian_traces(flat_half, 1.0e-6, FS, 16, seed=3)
    b = synthesize_gaussian_traces(flat_half, 1.0e-6, FS, 16, seed=3)
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize(
    "duration, sample_rate", [(math.nan, FS), (1.0e-6, math.inf), (1e200, 1e200)]
)
def test_synthesis_rejects_non_finite_timing(duration, sample_rate):
    # the last pair is finite but its sample count is not
    with pytest.raises(ValidationError):
        synthesize_gaussian_traces(flat_half, duration, sample_rate, 4, seed=1)


def test_synthesis_stream_is_pinned_across_draw_blocks():
    # 2050 traces span two 2048-trace draw blocks; the values and the digest
    # were recorded from the synthesis that transformed each block at once
    traces = synthesize_gaussian_traces(flat_half, 16e-9, FS, 2050, seed=7)
    assert traces.shape == (2050, 8)
    expected = {
        0: [-0.4195317927234433, 0.4641342741655761, 0.3187948929009161],
        2047: [-0.4471871904645997, -0.2998705255671892, 0.41220214213897677],
        2048: [1.0908262454481665, 1.0803392509794654, 0.18025522935154978],
        2049: [0.1551107300297011, 0.13019377096538687, 0.027500851805609516],
    }
    for row, values in expected.items():
        np.testing.assert_array_equal(traces[row, :3], values)
    digest = hashlib.sha256(traces.tobytes()).hexdigest()
    assert digest == "21033da7404f312803fe913c7a75fef8069c47e0b182836c67555d6753e51b54"


def test_synthesis_holds_its_output_about_once():
    # the whole draw block's imaginary parts and its complex temporaries came to
    # 2.81x the output; now one sub-block's imaginary parts and amplitudes are reused
    synthesize_gaussian_traces(flat_half, 1.0e-6, FS, 4, seed=1)
    traces, peak = traced_peak(
        lambda: synthesize_gaussian_traces(flat_half, 1.0e-6, FS, 1000, seed=1)
    )
    assert traces.shape == (1000, 500)
    assert peak <= 2.2 * traces.nbytes


def test_periodogram_tracks_spectrum():
    spec = lambda f: spectral_variances(f, GAMMA, 2 * math.pi * 1.74e6, 0.462)[1]
    traces = synthesize_gaussian_traces(spec, 2.0e-6, FS, 3000, seed=11)
    freq, power = periodogram(traces, FS)
    expected = spec(freq)
    sel = (freq > 1e6) & (freq < 200e6)
    ratio = power[sel] / expected[sel]
    assert abs(np.mean(ratio) - 1.0) < 0.05


def test_mode_variance_from_spectrum_flat():
    mode = build_mode(GAMMA, KAPPA, 0.5e-6, FS, window=(0.0, 1.0e-6))
    # unit-norm mode on white noise keeps the white level exactly
    assert mode_variance_from_spectrum(mode, flat_half) == pytest.approx(0.5, abs=1e-3)


def test_principal_mode_recovers_planted_mode():
    mode = build_mode(GAMMA, KAPPA, 0.5e-6, FS, window=(0.0, 1.0e-6))
    m = 3000
    vac_sig = synthesize_gaussian_traces(flat_half, 1.0e-6, FS, m, seed=51)
    vac_ref = synthesize_gaussian_traces(flat_half, 1.0e-6, FS, m, seed=52)
    rng = np.random.default_rng(53)
    amps = math.sqrt(16 * 0.5) * rng.standard_normal(m)
    sig = vac_sig + amps[:, None] * mode.weights[None, :]
    est = principal_mode(sig, vac_ref)
    assert np.linalg.norm(est) == pytest.approx(1.0, rel=1e-12)
    assert abs(float(est @ mode.weights)) >= 0.98
    # sign convention: positive at the largest-magnitude tap
    assert est[np.argmax(np.abs(est))] > 0


def test_principal_mode_rejects_pure_noise():
    a = synthesize_gaussian_traces(flat_half, 1.0e-6, FS, 2000, seed=71)
    b = synthesize_gaussian_traces(flat_half, 1.0e-6, FS, 2000, seed=72)
    with pytest.raises(NumericsError):
        principal_mode(a, b)


def ensemble(traces, samples=8):
    return np.ones((traces, samples))


@pytest.mark.parametrize("signal, vacuum, message", [
    (np.ones(8), ensemble(1000), "ensembles must be 2-D arrays (traces x samples)"),
    (ensemble(1000), np.ones((1000, 8, 1)), "ensembles must be 2-D arrays (traces x samples)"),
    (ensemble(1000), ensemble(1000, 9), "signal and vacuum ensembles use different grids"),
    (ensemble(999), ensemble(1000), "need >= 1000 traces in each ensemble"),
    (ensemble(1000), ensemble(999), "need >= 1000 traces in each ensemble"),
])
def test_principal_mode_rejects_bad_ensembles(signal, vacuum, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        principal_mode(signal, vacuum)


def test_principal_mode_rejects_two_equal_modes():
    # half the traces along tap 0, half along tap 1, over a silent vacuum: the
    # excess second moment is diag(1, 1, 0, ...), so no one mode dominates
    signal = np.zeros((1000, 8))
    signal[::2, 0] = signal[1::2, 1] = math.sqrt(2.0)
    with pytest.raises(NumericsError, match="top two excess eigenvalues are degenerate"):
        principal_mode(signal, np.zeros((1000, 8)))


def test_shot_noise_scale_rejects_a_silent_vacuum():
    mode = build_mode(GAMMA, KAPPA, 0.5e-6, FS, window=(0.0, 1.0e-6))
    with pytest.raises(NumericsError, match="vacuum ensemble has zero variance"):
        shot_noise_scale(np.zeros((1000, mode.weights.size)), mode)


def test_trace_csv_round_trip(tmp_path):
    rng = np.random.default_rng(83)
    trace = TimeTrace(FS, rng.standard_normal(64), trigger_index=10)
    path = tmp_path / "trace_00000.csv"
    save_trace_csv(trace, path)
    back = load_trace_csv(path)
    assert back.sample_rate == FS
    assert back.trigger_index == 10
    np.testing.assert_array_equal(back.values, trace.values)

    save_trace_csv(TimeTrace(FS, rng.standard_normal(64)), tmp_path / "trace_00001.csv")
    values, fs, triggers = load_trace_dir(tmp_path)
    assert values.shape == (2, 64)
    assert fs == FS
    assert list(triggers) == [10, 0]


def test_trace_csv_rejects_malformed_files(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("# sample_rate_hz=500000000.0\nvalue\n0.25\n0.5x\n-1.0\n")
    with pytest.raises(ValidationError, match="malformed"):
        load_trace_csv(path)
    path.write_text("# trigger_index=0\nvalue\n0.25\n-1.0\n")
    with pytest.raises(ValidationError, match="sample_rate_hz"):
        load_trace_csv(path)
    path.write_text("# sample_rate_hz=500000000.0\n# trigger_index=1.5\nvalue\n0.25\n-1.0\n")
    with pytest.raises(ValidationError, match="trigger_index"):
        load_trace_csv(path)


@pytest.mark.parametrize("values, sample_rate, trigger_index, message", [
    (np.zeros((2, 4)), FS, 0, "trace values must be a non-empty 1-D array"),
    (np.zeros(0), FS, 0, "trace values must be a non-empty 1-D array"),
    (np.zeros(4), 0.0, 0, "sample_rate must be positive"),
    (np.zeros(4), FS, 4, "trigger_index outside the trace"),
    (np.zeros(4), FS, -1, "trigger_index outside the trace"),
    # NaN and inf were accepted, and save_trace_csv wrote a file load_trace_csv refused
    (np.zeros(4), math.nan, 0, "sample_rate must be positive and finite"),
    (np.zeros(4), math.inf, 0, "sample_rate must be positive and finite"),
])
def test_time_trace_rejects_bad_inputs(values, sample_rate, trigger_index, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        TimeTrace(sample_rate, values, trigger_index)


@pytest.mark.parametrize("t0, sample_rate, window, message", [
    (0.5e-6, FS, (1.0e-6, 0.0), "window must satisfy t_end > t_start"),
    (0.5e-6, -FS, (0.0, 1.0e-6), "sample_rate must be positive"),
    (1.5e-6, FS, (0.0, 1.0e-6), "t0 must lie inside the window"),
    (5e-9, FS, (0.0, 10e-9), "window shorter than 8 samples"),
    # NaN ended in a bare ValueError, and an infinite rate or window end in a bare OverflowError
    (0.5e-6, math.nan, (0.0, 1.0e-6), "sample_rate must be positive and finite"),
    (0.5e-6, math.inf, (0.0, 1.0e-6), "sample_rate must be positive and finite"),
    (0.5e-6, FS, (0.0, math.inf), "window must satisfy t_end > t_start, both finite"),
    (0.5e-6, FS, (-math.inf, 1.0e-6), "window must satisfy t_end > t_start, both finite"),
])
def test_build_mode_rejects_bad_inputs(t0, sample_rate, window, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        build_mode(GAMMA, KAPPA, t0, sample_rate, window)


@pytest.mark.parametrize("spectrum, duration, count, message", [
    (flat_half, 1.0e-6, 0, "count must be >= 1"),
    (flat_half, 10e-9, 4, "trace shorter than 8 samples"),
    (lambda f: np.full(3, 0.5), 1.0e-6, 4,
     "spectrum returned shape (3,), not the rfft grid's (251,)"),
    (lambda f: np.full_like(f, np.nan), 1.0e-6, 4, "spectrum must be finite and non-negative"),
    (lambda f: np.full_like(f, -0.5), 1.0e-6, 4, "spectrum must be finite and non-negative"),
])
def test_synthesis_rejects_bad_inputs(spectrum, duration, count, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        synthesize_gaussian_traces(spectrum, duration, FS, count, seed=1)


def test_synthesis_rejects_a_negative_seed():
    # numpy's default_rng raised a bare ValueError, which no caller catches
    with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
        synthesize_gaussian_traces(flat_half, 1.0e-6, FS, 4, seed=-1)


@pytest.mark.parametrize(
    "count, seed, message",
    [(4, 1.5, "seed must be an integer, got 1.5"),
     (4, False, "seed must be an integer, got False"),
     (2.5, 1, "count must be an integer, got 2.5"),
     (4.0, 1, "count must be an integer, got 4.0")],
)
def test_synthesis_rejects_a_seed_or_count_that_is_not_an_integer(count, seed, message):
    # 1.5, 2.5 and 4.0 ended in numpy's or Python's raw TypeError
    with pytest.raises(ValidationError, match=re.escape(message)):
        synthesize_gaussian_traces(flat_half, 1.0e-6, FS, count, seed=seed)


def test_periodogram_rejects_a_single_trace():
    with pytest.raises(ValidationError, match="periodogram expects a 2-D ensemble"):
        periodogram(np.zeros(8), FS)


@pytest.mark.parametrize("spectrum, message", [
    (lambda f: np.full(3, 0.5), "spectrum returned shape (3,), not the rfft grid's (2001,)"),
    (lambda f: np.full_like(f, np.nan), "spectrum must be finite and non-negative"),
    (lambda f: np.full_like(f, -0.5), "spectrum must be finite and non-negative"),
])
def test_mode_variance_checks_its_spectrum_as_synthesis_does(spectrum, message):
    # the 500-tap mode is zero-padded to 4000 points: 2001 rfft frequencies
    mode = build_mode(GAMMA, KAPPA, 0.5e-6, FS, window=(0.0, 1.0e-6))
    with pytest.raises(ValidationError, match=re.escape(message)):
        mode_variance_from_spectrum(mode, spectrum)


def test_load_trace_dir_rejects_an_empty_directory(tmp_path):
    with pytest.raises(ValidationError, match=re.escape(f"no trace files found in {tmp_path}")):
        load_trace_dir(tmp_path)


@pytest.mark.parametrize("other", [TimeTrace(FS, np.zeros(32)), TimeTrace(FS / 2, np.zeros(64))])
def test_load_trace_dir_rejects_a_trace_on_another_grid(tmp_path, other):
    save_trace_csv(TimeTrace(FS, np.zeros(64)), tmp_path / "trace_00000.csv")
    save_trace_csv(other, tmp_path / "trace_00001.csv")
    message = f"{tmp_path / 'trace_00001.csv'}: trace grid differs from the rest of the ensemble"
    with pytest.raises(ValidationError, match=re.escape(message)):
        load_trace_dir(tmp_path)


def write_trace_dir(directory, count, length):
    rng = np.random.default_rng(97)
    for i in range(count):
        trace = TimeTrace(FS, rng.standard_normal(length), trigger_index=i % length)
        save_trace_csv(trace, directory / f"trace_{i:05d}.csv")


def test_load_trace_dir_stacks_the_trace_files(tmp_path):
    write_trace_dir(tmp_path, 7, 64)
    values, fs, triggers = load_trace_dir(tmp_path)
    traces = [load_trace_csv(f) for f in sorted(tmp_path.glob("*.csv"))]
    np.testing.assert_array_equal(values, np.stack([t.values for t in traces]))
    np.testing.assert_array_equal(triggers, [t.trigger_index for t in traces])
    assert values.dtype == np.float64 and triggers.dtype == np.int64
    assert fs == FS


def test_load_trace_dir_holds_the_ensemble_about_once(tmp_path):
    # a list of every file's trace and then np.stack came to 2.24x the ensemble
    write_trace_dir(tmp_path, 200, 500)
    load_trace_dir(tmp_path)
    (values, _, _), peak = traced_peak(lambda: load_trace_dir(tmp_path))
    assert values.shape == (200, 500)
    assert peak <= 1.3 * values.nbytes
