import hashlib
import json
import math
import re
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np
import pytest

from kittensim import (
    ChannelSection,
    DetectionSection,
    ExperimentConfig,
    GaussianStateSpec,
    OutputsSection,
    ReconstructionConfig,
    ReconstructionSection,
    SamplingSection,
    StateSection,
    ValidationError,
    apply_link,
    cat_state,
    gaussian_state,
    load_config,
    load_samples_csv,
    loss_channel,
    run_pipeline,
    sample_homodyne,
    sample_quadratures,
    save_config,
    simulate_source_state,
    verify_run_dir,
    wigner_origin,
)
from kittensim.pipeline import detect_and_sample, parse_angle_list, parse_angle_pairs
from kittensim.tomography import MAX_BIN_COUNT


def small_config(outputs, **overrides):
    base = dict(
        state=StateSection(v_x_db=-2.0, v_p_db=2.4, nmax=14),
        channel=ChannelSection(link_eta=0.9, phase_sigma_deg=5.0),
        detection=DetectionSection(hd_eta=0.88, correct_loss=True),
        sampling=SamplingSection(angles_deg=(0.0, 60.0, 120.0), per_angle_count=400, seed=42),
        reconstruction=ReconstructionSection(
            nmax=8, max_iters=600, bootstrap_resamples=0
        ),
        outputs=OutputsSection(str(outputs)),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_ini_round_trip(tmp_path):
    config = small_config(tmp_path / "run")
    path = tmp_path / "exp.ini"
    save_config(config, path)
    assert load_config(path) == config


def test_config_ini_round_trip_keeps_a_percent_in_the_directory(tmp_path):
    # save_config writes the directory verbatim; interpolation read its "%"
    # as the start of a reference and raised InterpolationSyntaxError
    config = small_config(tmp_path / "runs at 100% and %(state)s")
    path = tmp_path / "exp.ini"
    save_config(config, path)
    assert load_config(path) == config


def test_config_ini_round_trip_of_every_key(tmp_path):
    # each key's INI type comes from its field's type: a key parsed as the
    # wrong type would not come back equal
    config = ExperimentConfig(
        state=StateSection(v_x_db=-1.5, v_p_db=2.0, subtract=False, purity_mix=0.75, nmax=17),
        channel=ChannelSection(link_eta=0.7, phase_sigma_deg=12.5),
        detection=DetectionSection(hd_eta=0.9, correct_loss=True),
        sampling=SamplingSection(angles_deg=(10.0, -55.5), per_angle_count=123, seed=77),
        reconstruction=ReconstructionSection(
            nmax=9, bin_width=0.25, bin_min=-5.0, bin_max=7.0, max_iters=321,
            gap_tol=0.003, bootstrap_resamples=7,
        ),
        outputs=OutputsSection(str(tmp_path / "elsewhere")),
    )
    sections = [getattr(config, f.name) for f in fields(config)]
    for owner in (config, *sections):
        for f in fields(owner):
            assert f.default is MISSING or getattr(owner, f.name) != f.default, f.name
    path = tmp_path / "exp.ini"
    save_config(config, path)
    assert load_config(path) == config


def test_readme_example_config_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.ini"
    path.write_text(block)
    cfg = load_config(path)
    assert cfg.state.v_x_db == -2.0
    assert cfg.channel.phase_sigma_deg == 19.4
    assert cfg.reconstruction.bootstrap_resamples == 50


def test_config_rejects_unknown_section(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[state]\nv_x_db = -2.0\nv_p_db = 2.4\n\n[detector]\nhd_eta = 0.9\n")
    with pytest.raises(ValidationError):
        load_config(path)


def test_config_rejects_a_default_section(tmp_path):
    # configparser copied its keys into every section: this loaded with state.nmax = 9
    path = tmp_path / "bad.ini"
    path.write_text("[DEFAULT]\nnmax = 9\n\n[state]\nv_x_db = -2.0\nv_p_db = 2.4\n")
    with pytest.raises(ValidationError, match=re.escape("unknown config section [DEFAULT]")):
        load_config(path)


@pytest.mark.parametrize(
    "v_x_db, v_p_db, message",
    [(4000.0, 2.4, "v_x_db 4000.0, v_p_db 2.4: 4000.0 dB is too large a variance"),
     (-3.0, 1.0, "v_x_db -3.0, v_p_db 1.0: v_x*v_p = 0.157739 violates the uncertainty bound")],
)
def test_config_rejects_a_state_that_cannot_be_built(tmp_path, v_x_db, v_p_db, message):
    # 4000 dB ended in a raw OverflowError; the state below the bound loaded, and the
    # run then failed after it had made the run directory
    path = tmp_path / "bad.ini"
    path.write_text(f"[state]\nv_x_db = {v_x_db}\nv_p_db = {v_p_db}\n")
    with pytest.raises(ValidationError, match=re.escape(message)):
        load_config(path)


@pytest.mark.parametrize(
    "build, arguments, message",
    [(StateSection, {"v_x_db": -2.0, "v_p_db": 2.4, "nmax": 2.5}, "state nmax"),
     (SamplingSection, {"per_angle_count": 2.5}, "per_angle_count"),
     (ReconstructionSection, {"bootstrap_resamples": 2.5}, "bootstrap_resamples"),
     (ReconstructionSection, {"nmax": 2.5}, "nmax"),
     (ReconstructionConfig, {"nmax": 2.5}, "nmax"),
     (ReconstructionConfig, {"max_iters": 2.5}, "max_iters"),
     (gaussian_state, {"spec": GaussianStateSpec(0.5, 0.5), "nmax": 2.5}, "nmax"),
     (cat_state, {"alpha": 0.5, "nmax": 2.5}, "nmax")],
    ids=["state-nmax", "per-angle-count", "bootstrap-resamples", "section-nmax",
         "config-nmax", "max-iters", "gaussian-state-nmax", "cat-state-nmax"],
)
def test_a_size_or_count_that_is_not_an_integer_is_rejected(build, arguments, message):
    # each was accepted, and the run then ended in a raw TypeError
    with pytest.raises(ValidationError, match=re.escape(f"{message} must be an integer, got 2.5")):
        build(**arguments)


@pytest.mark.parametrize("flag", ["no", "false", 0, 1, None])
def test_flags_must_be_bools(flag):
    # "no" and "false" were accepted and read as true
    with pytest.raises(ValidationError, match="correct_loss must be a bool"):
        DetectionSection(hd_eta=0.88, correct_loss=flag)
    with pytest.raises(ValidationError, match="subtract must be a bool"):
        StateSection(v_x_db=-2.0, v_p_db=2.4, subtract=flag)


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[state]\nv_x_db = -2.0\nv_p_db = 2.4\nsqueeze_db = 3.0\n")
    with pytest.raises(ValidationError):
        load_config(path)


def test_config_requires_state_section(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[channel]\nlink_eta = 0.9\n")
    with pytest.raises(ValidationError):
        load_config(path)


@pytest.mark.parametrize(
    "text, message",
    [("[state]\nv_p_db = 2.4\n", "[state] missing key 'v_x_db'"),
     ("[state]\nv_x_db = -2.0\n\n[outputs]\ndirectory = x\n", "[state] missing key 'v_p_db'"),
     ("[state]\n", "[state] missing key 'v_x_db'"),
     ("[outputs]\ndirectory = x\n", "config must contain a [state] section")],
)
def test_config_missing_key_is_a_validation_error(tmp_path, text, message):
    # a [state] section without a key used to end in StateSection's raw TypeError
    path = tmp_path / "bad.ini"
    path.write_text(text)
    with pytest.raises(ValidationError) as err:
        load_config(path)
    assert str(err.value) == message


def test_config_outputs_section_is_typed_like_the_others(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("[state]\nv_x_db = -2.0\nv_p_db = 2.4\n\n[outputs]\ndirectory = runs/a b\n")
    assert load_config(path).outputs == OutputsSection("runs/a b")
    path.write_text("[state]\nv_x_db = -2.0\nv_p_db = 2.4\n")
    assert load_config(path).outputs == OutputsSection() == OutputsSection("run")
    path.write_text("[state]\nv_x_db = -2.0\nv_p_db = 2.4\n\n[outputs]\nfolder = x\n")
    with pytest.raises(ValidationError, match="\\[outputs\\] unknown key 'folder'"):
        load_config(path)


def test_save_config_ends_with_the_outputs_section(tmp_path):
    path = tmp_path / "exp.ini"
    save_config(small_config("runs/x"), path)
    text = path.read_text()
    assert text.endswith("\n\n[outputs]\ndirectory = runs/x\n")
    assert text.count("\n\n") == 5


def test_config_rejects_bad_boolean(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[state]\nv_x_db = -2.0\nv_p_db = 2.4\nsubtract = maybe\n")
    with pytest.raises(ValidationError):
        load_config(path)


@pytest.mark.parametrize(
    "raw, value",
    [("True", True), ("YES", True), ("On", True), ("1", True),
     ("fAlse", False), ("No", False), ("OFF", False), ("0", False)],
)
def test_config_reads_each_boolean_spelling(tmp_path, raw, value):
    path = tmp_path / "exp.ini"
    path.write_text(f"[state]\nv_x_db = -2.0\nv_p_db = 2.4\nsubtract = {raw}\n")
    assert load_config(path).state.subtract is value


@pytest.mark.parametrize(
    "width, message",
    [("0.07", "does not tile"), ("5.0", "does not tile"), ("100", "does not tile"),
     ("nan", "degenerate"), ("inf", "degenerate"),
     # past the bin cap: 1e-300 used to fail inside np.linspace, 1e-6 to ask for 12e6 bins
     ("0.001", "allowed"), ("1e-6", "allowed"), ("1e-300", "allowed"), ("5e-324", "allowed")],
)
def test_config_rejects_bin_width_that_does_not_tile(tmp_path, width, message):
    # the grid used to round to a whole number of bins of another width
    path = tmp_path / "exp.ini"
    path.write_text(f"[state]\nv_x_db = -2.0\nv_p_db = 2.4\n\n[reconstruction]\nbin_width = {width}\n")
    with pytest.raises(ValidationError, match=message):
        load_config(path)


@pytest.mark.parametrize(
    "section, key",
    [("state", "v_x_db"), ("state", "v_p_db"), ("channel", "phase_sigma_deg"),
     ("reconstruction", "gap_tol")],
)
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_config_rejects_non_finite_numbers(tmp_path, section, key, value):
    # these used to load: nan phase noise was then dropped, an infinite stopping
    # tolerance stopped the reconstruction after two iterations, a nan variance gave a NaN state.
    # The other number keys already refused nan and inf through their range checks.
    sections = {"state": {"v_x_db": "-2.0", "v_p_db": "2.4"}}
    sections.setdefault(section, {})[key] = value
    path = tmp_path / "exp.ini"
    path.write_text("".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items())
        for name, body in sections.items()
    ))
    with pytest.raises(ValidationError, match=key):
        load_config(path)


def test_bin_grid_at_the_cap_loads(tmp_path):
    path = tmp_path / "exp.ini"
    width = 12.0 / MAX_BIN_COUNT
    path.write_text(
        f"[state]\nv_x_db = -2.0\nv_p_db = 2.4\n\n[reconstruction]\nbin_width = {width!r}\n"
    )
    edges = load_config(path).reconstruction.to_config().bin_edges
    assert edges.size == MAX_BIN_COUNT + 1


@pytest.mark.parametrize("name", ["local", "transmitted"])
def test_shipped_bin_grid_loads(name):
    config = load_config(Path(__file__).resolve().parents[1] / "configs" / f"{name}.ini")
    for eta in (1.0, config.detection.hd_eta):
        edges = config.reconstruction.to_config(eta).bin_edges
        assert edges.tobytes() == np.linspace(-6.0, 6.0, 121).tobytes()


def test_config_missing_file(tmp_path):
    with pytest.raises(ValidationError):
        load_config(tmp_path / "nope.ini")


def test_config_rejects_repeated_angles(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[state]\nv_x_db = -2.0\nv_p_db = 2.4\n\n[sampling]\nangles_deg = 0, 0, 30\n")
    with pytest.raises(ValidationError, match="angles_deg"):
        load_config(path)


def test_config_rejects_a_negative_seed(tmp_path):
    # it loaded, and the run then ended in numpy's raw ValueError
    path = tmp_path / "bad.ini"
    path.write_text("[state]\nv_x_db = -2.0\nv_p_db = 2.4\n\n[sampling]\nseed = -1\n")
    with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
        load_config(path)


@pytest.mark.parametrize("seed", [1.5, 2.0, True, "7", None])
def test_sampling_section_rejects_a_seed_that_is_not_an_integer(seed):
    # it was accepted, and the run then ended in numpy's raw TypeError
    with pytest.raises(ValidationError, match="seed must be an integer"):
        SamplingSection(seed=seed)


def test_sampling_section_rejects_repeated_angles():
    with pytest.raises(ValidationError):
        SamplingSection(angles_deg=(0.0, 30.0, 0.0))
    with pytest.raises(ValidationError):
        SamplingSection(angles_deg=(-0.0, 0.0))


@pytest.mark.parametrize("raw", ["", "0,,30", "0,30,", "0,abc", "0,nan", "0,0,30", "30,0.0,-0"])
def test_angle_list_rejects_empty_bad_and_repeated_entries(raw):
    with pytest.raises(ValidationError):
        parse_angle_list(raw)


def test_angle_list_keeps_the_degrees_as_written():
    assert parse_angle_list(" 0, 30,45.5 ,-90") == (0.0, 30.0, 45.5, -90.0)


def test_angle_pairs_keep_the_degrees_as_written():
    assert parse_angle_pairs(" 0:0, 30 :33.5,90: 90") == {0.0: 0.0, 30.0: 33.5, 90.0: 90.0}


def test_detect_and_sample_is_seeded_per_angle_index(kitten):
    sampling = SamplingSection(angles_deg=(90.0, 0.0, 30.0), per_angle_count=40, seed=9)
    dataset = detect_and_sample(kitten, DetectionSection(), sampling)
    angles = [math.radians(d) for d in sampling.angles_deg]
    seeds = [int(np.random.SeedSequence([9, i]).generate_state(1)[0]) for i in range(3)]
    expected = [sample_quadratures(kitten, th, 40, s) for th, s in zip(angles, seeds)]
    np.testing.assert_array_equal(dataset.values, np.concatenate(expected))
    np.testing.assert_array_equal(dataset.angles, np.repeat(angles, 40))


def test_purity_mix_is_linear_at_the_origin():
    w = {}
    for xi in (0.0, 0.5, 1.0):
        state, _ = simulate_source_state(
            StateSection(v_x_db=-2.0, v_p_db=2.4, purity_mix=xi, nmax=16)
        )
        assert np.trace(state.entries).real == pytest.approx(1.0, abs=1e-12)
        w[xi] = wigner_origin(state)
    assert w[1.0] < w[0.5] < w[0.0]
    assert w[0.5] == pytest.approx(0.5 * (w[0.0] + w[1.0]), abs=1e-12)


def test_run_pipeline_is_deterministic(tmp_path):
    run_a = run_pipeline(small_config(tmp_path / "a"))
    run_b = run_pipeline(small_config(tmp_path / "b"))
    bytes_a = (tmp_path / "a" / "metrics.json").read_bytes()
    bytes_b = (tmp_path / "b" / "metrics.json").read_bytes()
    assert bytes_a == bytes_b
    assert run_a.report.manifest == run_b.report.manifest
    assert run_a.report.metrics["converged"]


def test_run_artifacts_and_verification(tmp_path):
    out = tmp_path / "run"
    run = run_pipeline(small_config(out))
    for name in (
        "rho_source.json",
        "rho_transmitted.json",
        "samples.csv",
        "rho_uncorrected.json",
        "rho_corrected.json",
        "metrics.json",
        "report.json",
    ):
        assert (out / name).exists()

    report = verify_run_dir(out)
    assert report["metrics"]["w00"] == run.report.metrics["w00"]

    with open(out / "samples.csv", "a", encoding="utf-8") as fh:
        fh.write("0.0,0.123\n")
    with pytest.raises(ValidationError):
        verify_run_dir(out)


def test_verify_reports_missing_artifact(tmp_path):
    out = tmp_path / "run"
    run_pipeline(small_config(out))
    (out / "rho_source.json").unlink()
    with pytest.raises(ValidationError):
        verify_run_dir(out)


def test_verify_rejects_manifest_names_outside_the_run(tmp_path):
    # each entry's digest is right, so both used to verify
    out = tmp_path / "run"
    run_pipeline(small_config(out))
    outside = tmp_path / "outside.txt"
    outside.write_text("not part of the run")
    digest = hashlib.sha256(outside.read_bytes()).hexdigest()
    report = json.loads((out / "report.json").read_text())
    for name in (str(outside), "../outside.txt"):
        (out / "report.json").write_text(
            json.dumps({**report, "manifest": {**report["manifest"], name: digest}})
        )
        with pytest.raises(ValidationError, match="is not a file name in"):
            verify_run_dir(out)


def test_verify_returns_the_hashed_metrics(tmp_path):
    # report.json's copy of the metrics is not hashed: an edit there must not
    # reach what verify_run_dir returns
    out = tmp_path / "run"
    run = run_pipeline(small_config(out))
    report = json.loads((out / "report.json").read_text())
    report["metrics"]["w00"] = 0.25
    (out / "report.json").write_text(json.dumps(report))
    assert verify_run_dir(out)["metrics"] == run.report.metrics


def test_metrics_json_carries_the_reconstruction_record(tmp_path):
    # floored bins, grid-mass loss and the counts are the primary
    # reconstruction's own record, written as it is
    out = tmp_path / "run"
    run = run_pipeline(small_config(out))
    written = json.loads((out / "metrics.json").read_text())
    for key in ("floored_bins", "out_of_range_fraction", "total_counts"):
        assert written[key] == run.corrected.metrics[key] == run.report.metrics[key], key
    assert written["total_counts"] == 3 * 400
    assert written["floored_bins"] == 0


def test_stagewise_run_matches_pipeline(tmp_path):
    config = small_config(tmp_path / "run")
    run = run_pipeline(config)

    source, weight = simulate_source_state(config.state)
    assert weight == run.report.metrics["subtract_weight"]
    transmitted = apply_link(source, config.channel)
    detected = loss_channel(transmitted, config.detection.hd_eta)
    angles = [math.radians(a) for a in config.sampling.angles_deg]
    seeds = [
        int(np.random.SeedSequence([config.sampling.seed, i]).generate_state(1)[0])
        for i in range(len(angles))
    ]
    dataset = sample_homodyne(detected, angles, config.sampling.per_angle_count, seeds)
    assert np.array_equal(dataset.values, run.dataset.values)
    assert np.array_equal(dataset.angles, run.dataset.angles)

    on_disk = load_samples_csv(tmp_path / "run" / "samples.csv")
    assert np.array_equal(on_disk.values, run.dataset.values)
    np.testing.assert_allclose(on_disk.angles, run.dataset.angles, atol=1e-12)


def test_metrics_without_loss_correction(tmp_path):
    config = small_config(
        tmp_path / "run",
        detection=DetectionSection(hd_eta=0.88, correct_loss=False),
    )
    run = run_pipeline(config)
    assert run.corrected is None
    assert run.report.metrics["w00_corrected"] is None
    assert run.report.metrics["w00"] == run.report.metrics["w00_uncorrected"]


def test_metrics_without_subtraction(tmp_path):
    config = small_config(
        tmp_path / "run",
        state=StateSection(v_x_db=-2.0, v_p_db=2.4, subtract=False, nmax=14),
    )
    run = run_pipeline(config)
    assert run.report.metrics["subtract_weight"] is None
    assert run.report.metrics["w00"] > 0.0  # Gaussian states stay positive


def test_bootstrap_metrics_populated(tmp_path):
    config = small_config(
        tmp_path / "run",
        sampling=SamplingSection(angles_deg=(0.0, 60.0, 120.0), per_angle_count=300, seed=2),
        reconstruction=ReconstructionSection(
            nmax=6, max_iters=1500, bootstrap_resamples=4
        ),
    )
    run = run_pipeline(config)
    assert run.bootstrap is not None
    assert run.report.metrics["w00_std"] == run.bootstrap.std
    assert run.report.metrics["w00_std"] > 0.0
    assert run.report.metrics["bootstrap_failures"] == 0


def test_purity_mix_records_the_truncation_loss():
    # the background keeps its squeezed state's truncation loss and loses that
    # state's top level too, which the subtracted state cannot populate
    section = StateSection(v_x_db=-2.0, v_p_db=2.4, purity_mix=0.9, nmax=16)
    mixed, _ = simulate_source_state(section)
    subtracted, _ = simulate_source_state(replace(section, purity_mix=1.0))
    background, _ = simulate_source_state(replace(section, subtract=False))
    dropped = background.entries[-1, -1].real
    assert subtracted.trace_deficit > 0.0 and dropped > 0.0
    expected = 0.9 * subtracted.trace_deficit + 0.1 * (background.trace_deficit + dropped)
    assert mixed.trace_deficit == pytest.approx(expected, rel=1e-12)
    link = ChannelSection(link_eta=0.78, phase_sigma_deg=19.4)
    assert apply_link(mixed, link).trace_deficit == mixed.trace_deficit


def test_every_state_of_a_run_passes_validate(tmp_path):
    config = small_config(
        tmp_path / "run",
        state=StateSection(v_x_db=-2.0, v_p_db=2.4, purity_mix=0.9, nmax=14),
    )
    run = run_pipeline(config)
    # the uncorrected and corrected states are mle_reconstruct results
    for rho in (run.source, run.transmitted, run.uncorrected.rho, run.corrected.rho):
        rho.validate()


@pytest.mark.parametrize("resamples", [0, 3])
def test_report_times_exactly_the_stages_that_ran(tmp_path, resamples):
    config = small_config(
        tmp_path / "run",
        sampling=SamplingSection(angles_deg=(0.0, 60.0, 120.0), per_angle_count=300, seed=2),
        reconstruction=ReconstructionSection(
            nmax=6, max_iters=1500, bootstrap_resamples=resamples
        ),
    )
    run_pipeline(config)
    timings = json.loads((tmp_path / "run" / "report.json").read_text())["timings_s"]
    stages = {"prepare_state", "link_channel", "sample", "reconstruct", "cat_fit", "write_artifacts"}
    assert set(timings) == (stages | {"bootstrap"} if resamples else stages)
    assert all(math.isfinite(t) and t >= 0.0 for t in timings.values())


@pytest.mark.parametrize("resamples, causes", [(0, None), (3, [])])
def test_metrics_json_lists_the_bootstrap_failure_causes(tmp_path, resamples, causes):
    config = small_config(
        tmp_path / "run",
        sampling=SamplingSection(angles_deg=(0.0, 60.0, 120.0), per_angle_count=300, seed=2),
        reconstruction=ReconstructionSection(
            nmax=6, max_iters=1500, bootstrap_resamples=resamples
        ),
    )
    run_pipeline(config)
    metrics = json.loads((tmp_path / "run" / "metrics.json").read_text())
    assert metrics["bootstrap_failure_causes"] == causes
    assert metrics["bootstrap_failures"] == (None if causes is None else len(causes))
