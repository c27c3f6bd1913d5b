"""End-to-end experiment pipeline: source -> link -> detection -> reconstruction.

A single INI config describes the run; every stage is also reachable through
the CLI on the same helper functions, so stage-by-stage runs reproduce the
one-shot pipeline bit for bit (all randomness derives from the config seed).
"""

from __future__ import annotations

import configparser
import contextlib
import json
import math
import time
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .fock import (
    FockDensityMatrix,
    GaussianStateSpec,
    best_cat_fidelity,
    gaussian_state,
    loss_channel,
    phase_diffusion,
    photon_subtract,
    save_density_matrix,
    variance_from_db,
    db_from_variance,
)
from .quadrature import QuadratureDataset, sample_homodyne, save_samples_csv
from .tomography import (
    BootstrapResult,
    ReconstructionConfig,
    ReconstructionResult,
    bootstrap_metric,
    mle_reconstruct,
)
from .util import atomic_write_text, require_int, sha256_file

_BOOTSTRAP_SEED_OFFSET = 10_000_019


@dataclass(frozen=True)
class StateSection:
    v_x_db: float
    v_p_db: float
    subtract: bool = True
    purity_mix: float = 1.0  # weight of the subtracted state in the convex mix
    nmax: int = 20

    def __post_init__(self) -> None:
        self.to_spec()  # the variance and uncertainty checks of the state itself
        if not isinstance(self.subtract, bool):
            raise ValidationError(f"subtract must be a bool, got {self.subtract!r}")
        if not 0.0 <= self.purity_mix <= 1.0:
            raise ValidationError("purity_mix must lie in [0, 1]")
        require_int(self.nmax, "state nmax", 2)

    def to_spec(self) -> GaussianStateSpec:
        """The Gaussian state v_x_db and v_p_db describe; an error names both values."""
        try:
            return GaussianStateSpec(variance_from_db(self.v_x_db), variance_from_db(self.v_p_db))
        except ValidationError as exc:
            raise ValidationError(f"v_x_db {self.v_x_db}, v_p_db {self.v_p_db}: {exc}") from None


@dataclass(frozen=True)
class ChannelSection:
    link_eta: float = 1.0
    phase_sigma_deg: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.link_eta <= 1.0:
            raise ValidationError("link_eta must lie in (0, 1]")
        if not 0.0 <= self.phase_sigma_deg < math.inf:
            raise ValidationError("phase_sigma_deg must be finite and >= 0")


@dataclass(frozen=True)
class DetectionSection:
    hd_eta: float = 1.0
    correct_loss: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.hd_eta <= 1.0:
            raise ValidationError("hd_eta must lie in (0, 1]")
        if not isinstance(self.correct_loss, bool):
            raise ValidationError(f"correct_loss must be a bool, got {self.correct_loss!r}")


@dataclass(frozen=True)
class SamplingSection:
    angles_deg: tuple[float, ...] = (0.0, 30.0, 60.0, 90.0, 120.0, 150.0)
    per_angle_count: int = 5000
    seed: int = 0

    def __post_init__(self) -> None:
        if len(self.angles_deg) < 1:
            raise ValidationError("need at least one sampling angle")
        if len(set(self.angles_deg)) != len(self.angles_deg):
            raise ValidationError(f"repeated sampling angle in {list(self.angles_deg)} deg")
        require_int(self.per_angle_count, "per_angle_count", 1)
        require_int(self.seed, "seed")


@dataclass(frozen=True)
class ReconstructionSection:
    """The [reconstruction] section: a ReconstructionConfig's fields and the bootstrap size."""

    nmax: int = ReconstructionConfig.nmax
    bin_width: float = ReconstructionConfig.bin_width
    bin_min: float = ReconstructionConfig.bin_min
    bin_max: float = ReconstructionConfig.bin_max
    max_iters: int = ReconstructionConfig.max_iters
    gap_tol: float = ReconstructionConfig.gap_tol
    bootstrap_resamples: int = 50

    def __post_init__(self) -> None:
        self.to_config()  # the grid and stopping-rule checks of the reconstruction itself
        require_int(self.bootstrap_resamples, "bootstrap_resamples")
        if self.bootstrap_resamples == 1:  # a std needs two resamples
            raise ValidationError("bootstrap_resamples must be 0 (no bootstrap) or >= 2, got 1")

    def to_config(self, eta_correction: float = 1.0) -> ReconstructionConfig:
        recon = asdict(self)
        del recon["bootstrap_resamples"]
        return ReconstructionConfig(**recon, eta_correction=eta_correction)


@dataclass(frozen=True)
class OutputsSection:
    directory: str = "run"  # the run directory; run_pipeline's out_dir replaces it


@dataclass(frozen=True)
class ExperimentConfig:
    state: StateSection
    channel: ChannelSection = field(default_factory=ChannelSection)
    detection: DetectionSection = field(default_factory=DetectionSection)
    sampling: SamplingSection = field(default_factory=SamplingSection)
    reconstruction: ReconstructionSection = field(default_factory=ReconstructionSection)
    outputs: OutputsSection = field(default_factory=OutputsSection)


# the INI sections, in order: the fields of ExperimentConfig
_SECTIONS = typing.get_type_hints(ExperimentConfig)


def _parse_degrees(raw: str, tokens, distinct: bool = True) -> tuple[float, ...]:
    try:
        degs = tuple(float(tok) for tok in tokens)
    except ValueError as exc:
        raise ValidationError(f"bad angle list {raw!r}: every entry must be a number") from exc
    if not all(math.isfinite(d) for d in degs):
        raise ValidationError(f"bad angle list {raw!r}: every entry must be finite")
    if distinct and len(set(degs)) != len(degs):
        raise ValidationError(f"bad angle list {raw!r}: each angle may appear once")
    return degs


def parse_angle_list(raw: str) -> tuple[float, ...]:
    """Parse a comma-separated list of distinct, finite angles in degrees."""
    return _parse_degrees(raw, raw.split(","))


def parse_angle_pairs(raw: str) -> dict[float, float]:
    """Parse comma-separated `nominal:true` pairs in degrees into {nominal: true}.

    As in parse_angle_list: no empty entries, finite numbers only, each nominal angle once.
    """
    pairs = [tok.split(":") for tok in raw.split(",")]
    if any(len(pair) != 2 for pair in pairs):
        raise ValidationError(f"bad angle list {raw!r}: every entry must be nominal:true")
    nominal = _parse_degrees(raw, [n for n, _ in pairs])
    return dict(zip(nominal, _parse_degrees(raw, [t for _, t in pairs], distinct=False)))


def _parse_value(section: str, key: str, raw: str, kind):
    """One INI value as the section field's type `kind`."""
    raw = raw.strip()
    if typing.get_origin(kind) is tuple:
        try:
            return parse_angle_list(raw)
        except ValidationError as exc:
            raise ValidationError(f"[{section}] {key}: {exc}") from exc
    if kind is bool:
        value = configparser.ConfigParser.BOOLEAN_STATES.get(raw.lower())
        if value is None:
            raise ValidationError(f"[{section}] {key}: expected a boolean, got {raw!r}")
        return value
    try:
        return kind(raw)  # int, float or str
    except ValueError as exc:
        noun = "an integer" if kind is int else "a number"
        raise ValidationError(f"[{section}] {key}: expected {noun}, got {raw!r}") from exc


def load_config(path) -> ExperimentConfig:
    """Parse and validate an INI experiment config; unknown keys are errors."""
    # no interpolation: "%" reads back as save_config wrote it; [DEFAULT] is an unknown section
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ValidationError(f"{path}: malformed config ({exc})") from exc
    if not read:
        raise ValidationError(f"config file not found: {path}")
    kwargs = {}
    for section in parser.sections():
        cls = _SECTIONS.get(section)
        if cls is None:
            raise ValidationError(f"unknown config section [{section}]")
        kinds = typing.get_type_hints(cls)
        values = {}
        for key, raw in parser.items(section):
            if key not in kinds:
                raise ValidationError(f"[{section}] unknown key {key!r}")
            values[key] = _parse_value(section, key, raw, kinds[key])
        kwargs[section] = _build(cls, values, f"[{section}] missing key {{name!r}}")
    return _build(ExperimentConfig, kwargs, "config must contain a [{name}] section")


def _build(cls, values: dict, missing: str):
    """cls(**values); a field with no default absent from values raises `missing` with its name."""
    for f in fields(cls):
        if f.name not in values and f.default is MISSING and f.default_factory is MISSING:
            raise ValidationError(missing.format(name=f.name))
    return cls(**values)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ", ".join(repr(float(v)) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def save_config(config: ExperimentConfig, path) -> None:
    lines = []
    for section in _SECTIONS:
        lines.append(f"[{section}]")
        for key, value in asdict(getattr(config, section)).items():
            lines.append(f"{key} = {_format_value(value)}")
        lines.append("")
    atomic_write_text(path, "\n".join(lines))


# ---------------------------------------------------------------------------
# Stage helpers (shared by run_pipeline and the CLI subcommands)
# ---------------------------------------------------------------------------

def simulate_source_state(state: StateSection) -> tuple[FockDensityMatrix, float | None]:
    """Squeezed-thermal source, optionally photon-subtracted and purity-mixed.

    Returns (state, subtraction_weight); the weight is None when subtract=False.
    With 0 < purity_mix < 1 the output models imperfect heralding: a convex mix
    of the subtracted state and the unsubtracted background.
    """
    rho_sqz = gaussian_state(state.to_spec(), nmax=state.nmax)
    if not state.subtract:
        return rho_sqz, None
    rho_sub, weight = photon_subtract(rho_sqz)
    xi = state.purity_mix
    if xi < 1.0:
        # drop the squeezed state's top level to match dimensions; its
        # population joins the background's truncation loss
        trunc = rho_sqz.entries[: rho_sub.dim, : rho_sub.dim]
        dropped = float(rho_sqz.entries[-1, -1].real)
        trunc = trunc / np.trace(trunc).real
        mixed = xi * rho_sub.entries + (1.0 - xi) * trunc
        deficit = xi * rho_sub.trace_deficit + (1.0 - xi) * (rho_sqz.trace_deficit + dropped)
        rho_sub = FockDensityMatrix(nmax=rho_sub.nmax, entries=mixed, trace_deficit=deficit)
    return rho_sub, weight


def apply_link(rho: FockDensityMatrix, channel: ChannelSection) -> FockDensityMatrix:
    out = loss_channel(rho, channel.link_eta)
    return phase_diffusion(out, math.radians(channel.phase_sigma_deg))


def detect_and_sample(
    rho: FockDensityMatrix, detection: DetectionSection, sampling: SamplingSection
) -> QuadratureDataset:
    """The homodyne dataset of `rho` through the detector (hd_eta = 1 samples `rho` itself)."""
    detected = loss_channel(rho, detection.hd_eta) if detection.hd_eta < 1.0 else rho
    angles = [math.radians(a) for a in sampling.angles_deg]
    # angle i draws from SeedSequence([seed, i]): the same section gives the same dataset
    seeds = [
        int(np.random.SeedSequence([sampling.seed, i]).generate_state(1)[0])
        for i in range(len(angles))
    ]
    return sample_homodyne(detected, angles, sampling.per_angle_count, seeds)


# ---------------------------------------------------------------------------
# Run orchestration
# ---------------------------------------------------------------------------

@dataclass
class PipelineRun:
    report: dict  # what report.json holds: config, metrics, manifest, timings_s
    source: FockDensityMatrix
    transmitted: FockDensityMatrix
    dataset: QuadratureDataset
    uncorrected: ReconstructionResult
    corrected: ReconstructionResult | None
    bootstrap: BootstrapResult | None

    @property
    def uncertified(self) -> str | None:
        """The first uncertified estimate's reason: the primary state, the other, the bootstrap."""
        other = self.uncorrected if self.corrected else None  # when it is not the primary
        named = (("", self.corrected or self.uncorrected),
                 ("uncorrected reconstruction: ", other), ("bootstrap: ", self.bootstrap))
        reasons = [name + est.uncertified for name, est in named if est and est.uncertified]
        return reasons[0] if reasons else None


def new_output_dir(path) -> Path:
    """`path` as a Path, which must be absent or an empty directory: output never merges."""
    path = Path(path)
    if path.exists() and (not path.is_dir() or any(path.iterdir())):
        raise ValidationError(f"{path} is in use: the output needs a new or empty directory")
    return path


def run_pipeline(config: ExperimentConfig, out_dir=None) -> PipelineRun:
    """Execute every stage, then write the artifact set to a new or empty output directory.

    An out_dir replaces config.outputs.directory, so the report names the directory
    written. A fixed config gives byte-identical metrics.json and manifest hashes.
    """
    if out_dir is not None:
        config = replace(config, outputs=OutputsSection(str(out_dir)))
    out = new_output_dir(config.outputs.directory)
    timings: dict[str, float] = {}

    @contextlib.contextmanager
    def stage(name: str):
        tic = time.perf_counter()
        yield
        timings[name] = time.perf_counter() - tic

    with stage("prepare_state"):
        source, weight = simulate_source_state(config.state)
    with stage("link_channel"):
        transmitted = apply_link(source, config.channel)
    with stage("sample"):
        dataset = detect_and_sample(transmitted, config.detection, config.sampling)

    with stage("reconstruct"):
        primary_cfg = config.reconstruction.to_config(1.0)
        recon_uncorr = mle_reconstruct(dataset, primary_cfg)
        corrected = None
        if config.detection.correct_loss and config.detection.hd_eta < 1.0:
            primary_cfg = config.reconstruction.to_config(config.detection.hd_eta)
            corrected = mle_reconstruct(dataset, primary_cfg)
    primary = corrected if corrected is not None else recon_uncorr

    boot = None
    if config.reconstruction.bootstrap_resamples > 0:
        with stage("bootstrap"):
            boot = bootstrap_metric(
                primary.rho,
                primary_cfg,
                per_angle_counts=dict.fromkeys(
                    map(math.radians, config.sampling.angles_deg), config.sampling.per_angle_count
                ),
                n_resamples=config.reconstruction.bootstrap_resamples,
                seed=config.sampling.seed + _BOOTSTRAP_SEED_OFFSET,
            )

    with stage("cat_fit"):
        alpha_star, cat_fid = best_cat_fidelity(primary.rho)

    metrics = {
        **primary.metrics,
        "w00_uncorrected": recon_uncorr.metrics["w00"],
        "w00_corrected": None if corrected is None else corrected.metrics["w00"],
        "w00_std": None if boot is None else boot.std,
        "bootstrap_failures": None if boot is None else boot.failures,
        "bootstrap_failure_causes": None if boot is None else boot.failure_causes,
        "var_db": {
            k: db_from_variance(v) for k, v in primary.metrics["var_deg"].items()
        },
        "alpha_star": alpha_star,
        "cat_fidelity": cat_fid,
        "subtract_weight": weight,
        "gap_uncorrected": recon_uncorr.metrics["gap"],
    }

    with stage("write_artifacts"):
        states = {
            "rho_source.json": source,
            "rho_transmitted.json": transmitted,
            "rho_uncorrected.json": recon_uncorr.rho,
        }
        if corrected is not None:
            states["rho_corrected.json"] = corrected.rho
        for name, rho in states.items():
            save_density_matrix(rho, out / name)
        save_samples_csv(dataset, out / "samples.csv")
        atomic_write_text(out / "metrics.json", json.dumps(metrics, indent=2, sort_keys=True))
        manifest = {
            name: sha256_file(out / name) for name in [*states, "samples.csv", "metrics.json"]
        }

    text = json.dumps({"config": asdict(config), "metrics": metrics, "manifest": manifest,
                       "timings_s": timings}, indent=2, sort_keys=True)
    atomic_write_text(out / "report.json", text)
    return PipelineRun(
        report=json.loads(text),  # as report.json holds it: the config's tuples as lists
        source=source,
        transmitted=transmitted,
        dataset=dataset,
        uncorrected=recon_uncorr,
        corrected=corrected,
        bootstrap=boot,
    )


def verify_run_dir(run_dir) -> dict:
    """Raise unless the run's files are exactly report.json and its manifest, each hash matching.

    The manifest must list metrics.json; the returned report carries its metrics.
    """
    run_dir = Path(run_dir)
    report_path = run_dir / "report.json"
    if not report_path.is_file():
        raise ValidationError(f"{run_dir} does not contain report.json")
    report = _read_json_object(report_path)
    manifest = report.get("manifest")
    if not isinstance(manifest, dict) or "metrics.json" not in manifest:
        raise ValidationError(f"{report_path}: the manifest does not list metrics.json")
    files = {entry.name for entry in run_dir.iterdir()} - {"report.json"}
    if others := sorted(name for name in files if not (run_dir / name).is_file()):
        raise ValidationError(f"{run_dir} is not one run: {others} are not files")
    missing, unlisted = sorted(manifest.keys() - files), sorted(files - manifest.keys())
    if missing or unlisted:
        raise ValidationError(f"{run_dir} is not one run: missing {missing}, unlisted {unlisted}")
    for name, digest in manifest.items():
        actual = sha256_file(run_dir / name)
        if actual != digest:
            raise ValidationError(f"artifact hash mismatch for {name}: {actual} != {digest}")
    report["metrics"] = _read_json_object(run_dir / "metrics.json")
    return report


def _read_json_object(path: Path) -> dict:
    """The JSON object a run file holds; anything else is a ValidationError."""
    try:
        payload = json.loads(path.read_text())
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValidationError(f"{path} does not hold a JSON object")
    return payload
