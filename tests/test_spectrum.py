import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from kittensim import spectrum
from kittensim import (
    SpectrumData,
    SpectrumModelParams,
    ValidationError,
    dephased_variance,
    fit_report_json,
    joint_fit,
    load_spectrum_csv,
    model_spectrum,
    save_clearance_csv,
    save_spectrum_csv,
    spectral_variances,
)

GAMMA = 2 * math.pi * 8.0e6
EPSILON = 2 * math.pi * 1.74e6
FREQ = np.linspace(0.05e6, 10e6, 800)
NOMINAL = [math.radians(d) for d in (0.0, 30.0, 60.0, 90.0)]
TRUE_DEG = {0.0: 0.0, 30.0: 33.5, 60.0: 65.6, 90.0: 90.0}


def make_params(eta=0.462, sigma_deg=19.4):
    theta = {math.radians(k): math.radians(v) for k, v in TRUE_DEG.items()}
    return SpectrumModelParams(
        gamma=GAMMA,
        epsilon=EPSILON,
        eta=eta,
        sigma=math.radians(sigma_deg),
        theta_true=theta,
    )


def make_data(params, clearance=None):
    return SpectrumData(
        freq=FREQ,
        variances={
            a: model_spectrum(params, a, FREQ, clearance) for a in NOMINAL
        },
        clearance=clearance,
    )


def test_sideband_variances_at_zero_frequency():
    vx, vp = spectral_variances(0.0, GAMMA, EPSILON, 0.462)
    assert float(vx) == pytest.approx(0.36442072952198645, rel=1e-12)
    assert float(vp) == pytest.approx(0.8282181098102461, rel=1e-12)


def test_sideband_variances_limits():
    vx, vp = spectral_variances(1e13, GAMMA, EPSILON, 0.88)
    assert float(vx) == pytest.approx(0.5, abs=1e-9)
    assert float(vp) == pytest.approx(0.5, abs=1e-9)
    vx0, vp0 = spectral_variances(FREQ, GAMMA, 0.0, 0.88)
    np.testing.assert_allclose(vx0, 0.5, atol=1e-15)
    np.testing.assert_allclose(vp0, 0.5, atol=1e-15)
    with pytest.raises(ValidationError):
        spectral_variances(0.0, GAMMA, GAMMA, 0.88)


def test_dephased_variance_sigma_zero_identity():
    theta = np.linspace(0.0, math.pi, 25)
    got = dephased_variance(theta, 0.0, 0.3, 0.9)
    want = 0.3 * np.cos(theta) ** 2 + 0.9 * np.sin(theta) ** 2
    np.testing.assert_allclose(got, want, rtol=1e-14)


def test_dephased_variance_large_sigma_averages():
    theta = np.linspace(0.0, math.pi, 25)
    got = dephased_variance(theta, 50.0, 0.3, 0.9)
    np.testing.assert_allclose(got, 0.6, atol=1e-12)


def test_dephased_variance_angle_sum_rule():
    # orthogonal angles always add up to vx + vp, at any dephasing strength
    for sigma in (0.0, math.radians(10.0), math.radians(19.4), 1.2):
        for theta in (0.0, 0.37, 1.1):
            total = dephased_variance(theta, sigma, 0.3, 0.9) + dephased_variance(
                theta + math.pi / 2, sigma, 0.3, 0.9
            )
            assert total == pytest.approx(1.2, rel=1e-14)


def test_dephased_variance_moves_toward_mean():
    sigmas = np.radians([0.0, 5.0, 10.0, 19.4, 30.0, 60.0])
    at_zero = np.array([float(dephased_variance(0.0, s, 0.3, 0.9)) for s in sigmas])
    at_ninety = np.array([float(dephased_variance(math.pi / 2, s, 0.3, 0.9)) for s in sigmas])
    assert np.all(np.diff(at_zero) > 0.0)  # squeezed angle degrades monotonically
    assert np.all(np.diff(at_ninety) < 0.0)
    assert np.all(at_zero < 0.6) and np.all(at_ninety > 0.6)


@pytest.mark.parametrize("theta_deg", [0.0, 30.0, 60.0, 90.0])
@pytest.mark.parametrize("sigma_deg", [10.0, 19.4, 45.0])
def test_dephased_variance_matches_gaussian_smearing(theta_deg, sigma_deg):
    theta = math.radians(theta_deg)
    sigma = math.radians(sigma_deg)
    vx, vp = 0.31, 0.87
    phi = np.linspace(-8.0 * sigma, 8.0 * sigma, 20001)
    weight = np.exp(-0.5 * (phi / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
    integrand = vx * np.cos(theta + phi) ** 2 + vp * np.sin(theta + phi) ** 2
    numeric = np.trapezoid(weight * integrand, phi)
    assert float(dephased_variance(theta, sigma, vx, vp)) == pytest.approx(
        numeric, abs=1e-10
    )


def test_model_spectrum_reduces_to_bare_curves():
    params = make_params(sigma_deg=0.0)
    vx, vp = spectral_variances(FREQ, GAMMA, EPSILON, 0.462)
    np.testing.assert_allclose(model_spectrum(params, 0.0, FREQ), vx, rtol=1e-14)
    np.testing.assert_allclose(
        model_spectrum(params, math.pi / 2, FREQ), vp, rtol=1e-14
    )


def test_model_spectrum_zero_clearance_is_shot_noise():
    params = make_params()
    out = model_spectrum(params, math.radians(30.0), FREQ, np.zeros_like(FREQ))
    np.testing.assert_allclose(out, 0.5, atol=1e-15)


@pytest.mark.parametrize("name, bad, message", [
    ("freq", math.nan, "frequency grid must be 1-D and strictly increasing"),
    ("variances", math.nan, "variances must be finite and positive"),
    ("variances", math.inf, "variances must be finite and positive"),
    ("clearance", math.nan, "clearance must lie in"),
])
def test_spectrum_data_names_the_field_of_a_non_finite_value(name, bad, message):
    # NaN compares False with everything, so each check must be one NaN fails;
    # past them, joint_fit would fail on epsilon, which the caller never set
    data = make_data(make_params())
    fields = dict(freq=data.freq.copy(), clearance=data.clearance.copy(),
                  variances={a: v.copy() for a, v in data.variances.items()})
    target = fields["variances"][NOMINAL[1]] if name == "variances" else fields[name]
    target[-1] = bad
    with pytest.raises(ValidationError, match=message):
        SpectrumData(**fields)


def make_data_on(freq):
    params = make_params()
    return SpectrumData(freq=freq, variances={a: model_spectrum(params, a, freq) for a in NOMINAL})


@pytest.mark.parametrize("call, message", [
    (lambda: spectral_variances(FREQ, GAMMA, EPSILON, -0.1), "efficiency must lie in [0, 1]"),
    (lambda: spectral_variances(FREQ, GAMMA, EPSILON, 1.5), "efficiency must lie in [0, 1]"),
    (lambda: dephased_variance(0.3, -0.1, 0.4, 0.6), "sigma must be"),
    # NaN gave a NaN variance; inf passed as full dephasing
    (lambda: dephased_variance(0.3, math.nan, 0.4, 0.6), "sigma must be finite and >= 0, got nan"),
    (lambda: dephased_variance(0.3, math.inf, 0.4, 0.6), "sigma must be finite and >= 0, got inf"),
    (lambda: replace(make_params(), gamma=0.0), "gamma must be positive"),
    (lambda: replace(make_params(), gamma=-GAMMA), "gamma must be positive"),
    # gamma = inf and sigma = NaN were accepted; a NaN gamma was named as a bad epsilon
    (lambda: replace(make_params(), gamma=math.inf), "gamma must be positive and finite, got inf"),
    (lambda: replace(make_params(), gamma=math.nan), "gamma must be positive and finite, got nan"),
    (lambda: replace(make_params(), epsilon=-1.0), "epsilon must lie in [0, gamma)"),
    (lambda: replace(make_params(), epsilon=GAMMA), "epsilon must lie in [0, gamma)"),
    (lambda: replace(make_params(), eta=-0.1), "eta must lie in [0, 1]"),
    (lambda: replace(make_params(), eta=1.5), "eta must lie in [0, 1]"),
    (lambda: replace(make_params(), sigma=-0.1), "sigma must be"),
    (lambda: replace(make_params(), sigma=math.nan), "sigma must be finite and >= 0, got nan"),
    (lambda: replace(make_params(), sigma=math.inf), "sigma must be finite and >= 0, got inf"),
    (lambda: SpectrumData(freq=FREQ, variances={0.0: np.full(5, 0.5)}),
     "variance curve at 0.0 does not match the grid"),
    (lambda: joint_fit(SpectrumData(freq=FREQ, variances={0.0: np.full(FREQ.size, 0.5)}), GAMMA),
     "joint fit needs spectra at >= 2 nominal angles"),
    (lambda: joint_fit(make_data_on(FREQ[:19]), GAMMA), "joint fit needs >= 20 frequency points"),
], ids=["efficiency-below-0", "efficiency-above-1", "dephasing-sigma-below-0",
        "dephasing-sigma-nan", "dephasing-sigma-inf", "gamma-0", "gamma-below-0", "gamma-inf",
        "gamma-nan", "epsilon-below-0", "epsilon-at-gamma", "eta-below-0", "eta-above-1",
        "sigma-below-0", "sigma-nan", "sigma-inf", "curve-off-grid", "one-angle",
        "19-frequencies"])
def test_spectrum_input_checks(call, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        call()


def test_params_reject_moving_fixed_angles():
    with pytest.raises(ValidationError):
        SpectrumModelParams(
            gamma=GAMMA,
            epsilon=EPSILON,
            eta=0.88,
            sigma=0.0,
            theta_true={0.0: math.radians(2.0)},
        )


@pytest.fixture(scope="module")
def noiseless_fit():
    truth = make_params()
    data = make_data(truth)
    return truth, joint_fit(data, GAMMA)


def test_joint_fit_noiseless_recovery(noiseless_fit):
    truth, result = noiseless_fit
    assert result.converged
    assert result.params.epsilon == pytest.approx(truth.epsilon, rel=1e-6)
    assert result.params.eta == pytest.approx(truth.eta, rel=1e-6)
    assert result.params.sigma == pytest.approx(truth.sigma, rel=1e-6)
    for nominal, true in truth.theta_true.items():
        assert result.params.true_angle(nominal) == pytest.approx(true, abs=1e-6)
    assert max(result.per_angle_rms.values()) < 1e-7


def test_joint_fit_no_dephasing_data_gives_small_sigma():
    data = make_data(make_params(sigma_deg=0.0))
    result = joint_fit(data, GAMMA)
    assert result.converged
    assert math.degrees(result.params.sigma) <= 1.0


def test_joint_fit_iteration_cap_returns_flagged_result(monkeypatch):
    monkeypatch.setattr(spectrum, "MAX_LM_STEPS", 1)
    data = make_data(make_params())
    result = joint_fit(data, GAMMA)
    assert result.converged is False
    assert result.iterations == 1
    assert result.cost >= 0.0  # best-so-far result is still populated


def test_a_fit_carries_its_own_verdict(monkeypatch):
    data = make_data(make_params())
    assert joint_fit(data, GAMMA).uncertified is None
    monkeypatch.setattr(spectrum, "MAX_LM_STEPS", 1)
    assert joint_fit(data, GAMMA).uncertified == "fit did not converge"


def test_joint_fit_db_residuals_noiseless_recovery():
    truth = make_params()
    result = joint_fit(make_data(truth), GAMMA, fit_db=True)
    assert result.converged
    assert result.params.epsilon == pytest.approx(truth.epsilon, rel=1e-6)
    assert result.params.eta == pytest.approx(truth.eta, rel=1e-6)
    assert result.params.sigma == pytest.approx(truth.sigma, rel=1e-6)
    for nominal, true in truth.theta_true.items():
        assert result.params.true_angle(nominal) == pytest.approx(true, abs=1e-6)


def test_joint_fit_escapes_sigma_zero_trap():
    # the model sees sigma only through exp(-2 sigma^2), whose sigma-gradient
    # vanishes at sigma = 0; a fit in sigma stalled there on these spectra
    theta = {math.radians(k): math.radians(v) for k, v in ((0, 0), (45, 47), (90, 90))}
    truth = SpectrumModelParams(
        gamma=GAMMA, epsilon=EPSILON, eta=0.7, sigma=math.radians(12.0), theta_true=theta
    )
    freq = np.linspace(0.05e6, 10e6, 400)
    data = SpectrumData(
        freq=freq, variances={a: model_spectrum(truth, a, freq) for a in theta}
    )
    result = joint_fit(data, GAMMA)
    assert result.converged
    assert result.params.eta == pytest.approx(0.7, abs=0.01)
    assert math.degrees(result.params.sigma) == pytest.approx(12.0, abs=0.5)
    assert math.degrees(result.params.true_angle(math.radians(45))) == pytest.approx(
        47.0, abs=0.5
    )


@pytest.mark.parametrize(
    "eta, sigma_deg, seed",
    [(0.462, 0.0, 1), (1.0, 5.0, 0)],
    ids=["sigma-zero", "eta-one"],
)
def test_joint_fit_converges_on_a_bound(eta, sigma_deg, seed):
    # noisy spectra whose best fit lies on a bound: the fit must stop there,
    # not step outside the box or creep along the bound until the cap
    truth = make_params(eta=eta, sigma_deg=sigma_deg)
    rng = np.random.default_rng(seed)
    data = SpectrumData(
        freq=FREQ,
        variances={
            a: model_spectrum(truth, a, FREQ) * (1.0 + 0.01 * rng.standard_normal(FREQ.size))
            for a in NOMINAL
        },
    )
    result = joint_fit(data, GAMMA)
    assert result.converged
    assert result.projected
    assert result.params.eta == pytest.approx(eta, abs=0.01)
    assert math.degrees(result.params.sigma) == pytest.approx(sigma_deg, abs=1.0)


@pytest.mark.parametrize(
    "clearance",
    [
        # step-shaped detector clearance; ignoring it would bias eta downward
        np.select([FREQ < 2.5e6, FREQ < 5e6, FREQ < 7.5e6], [1.0, 0.9, 0.75], default=0.6),
        # smooth roll-off: a distinct clearance value at every frequency
        1.0 / (1.0 + (FREQ / 20e6) ** 2),
    ],
    ids=["step", "smooth"],
)
def test_joint_fit_with_clearance_recovers_eta(clearance):
    truth = make_params()
    data = make_data(truth, clearance=clearance)
    result = joint_fit(data, GAMMA)
    assert result.converged
    assert result.params.eta == pytest.approx(0.462, abs=1e-4)
    assert result.params.epsilon == pytest.approx(EPSILON, rel=1e-4)


def test_fit_report_json_units(noiseless_fit):
    _, result = noiseless_fit
    payload = json.loads(fit_report_json(result))
    assert payload["gamma_hz"] == pytest.approx(8.0e6, rel=1e-12)
    assert payload["epsilon_hz"] == pytest.approx(1.74e6, rel=1e-5)
    assert payload["eta"] == pytest.approx(0.462, rel=1e-5)
    assert payload["sigma_deg"] == pytest.approx(19.4, abs=1e-3)
    assert payload["theta_true_deg"]["30"] == pytest.approx(33.5, abs=1e-3)
    assert payload["theta_true_deg"]["90"] == pytest.approx(90.0, abs=1e-9)
    assert set(payload) >= {
        "gamma_hz",
        "epsilon_hz",
        "eta",
        "sigma_deg",
        "theta_true_deg",
        "per_angle_rms_snu",
        "cost",
        "iterations",
        "converged",
        "projected",
    }


def test_spectrum_csv_round_trip(tmp_path):
    data = make_data(make_params())
    path = tmp_path / "spectra.csv"
    save_spectrum_csv(data, path)
    back = load_spectrum_csv(path)
    np.testing.assert_array_equal(back.freq, data.freq)
    assert len(back.variances) == len(data.variances)
    for angle, curve in data.variances.items():
        key = min(back.variances, key=lambda k: abs(k - angle))
        assert key == pytest.approx(angle, abs=1e-12)
        np.testing.assert_array_equal(back.variances[key], curve)
    np.testing.assert_array_equal(back.clearance, np.ones_like(FREQ))


def test_clearance_csv_round_trip(tmp_path):
    clearance = np.select(
        [FREQ < 2.5e6, FREQ < 5e6, FREQ < 7.5e6], [1.0, 0.9, 0.75], default=0.6
    )
    data = make_data(make_params(), clearance=clearance)
    spec_path = tmp_path / "spectra.csv"
    clear_path = tmp_path / "clearance.csv"
    save_spectrum_csv(data, spec_path)
    save_clearance_csv(FREQ, clearance, clear_path)
    back = load_spectrum_csv(spec_path, clearance_path=clear_path)
    np.testing.assert_array_equal(back.clearance, clearance)


def test_load_spectrum_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("freq,angle,var\n1.0,0.0,0.5\n")
    with pytest.raises(ValidationError):
        load_spectrum_csv(path)


def test_load_spectrum_rejects_a_file_without_rows(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("freq_hz,angle_deg,variance_snu\n")
    with pytest.raises(ValidationError, match=re.escape(f"{path}: no spectrum rows")):
        load_spectrum_csv(path)


def test_load_spectrum_rejects_an_angle_on_another_grid(tmp_path):
    path = tmp_path / "spectra.csv"
    rows = [(f, 0.0) for f in (1.0, 2.0, 3.0)] + [(f, 90.0) for f in (1.0, 2.0, 4.0)]
    path.write_text("freq_hz,angle_deg,variance_snu\n"
                    + "".join(f"{f},{deg},0.5\n" for f, deg in rows))
    message = f"{path}: angle 90.0 uses a different frequency grid"
    with pytest.raises(ValidationError, match=re.escape(message)):
        load_spectrum_csv(path)


@pytest.mark.parametrize("clearance_freq", [FREQ[:-1], 2.0 * FREQ])
def test_load_spectrum_rejects_a_clearance_on_another_grid(tmp_path, clearance_freq):
    spec_path, clear_path = tmp_path / "spectra.csv", tmp_path / "clearance.csv"
    save_spectrum_csv(make_data(make_params()), spec_path)
    save_clearance_csv(clearance_freq, np.ones_like(clearance_freq), clear_path)
    with pytest.raises(ValidationError,
                       match="clearance grid does not match the spectrum grid"):
        load_spectrum_csv(spec_path, clearance_path=clear_path)
