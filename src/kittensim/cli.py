"""Command line interface for the kitten-state simulation toolkit.

Exit codes: 0 success, 1 invalid input or usage, 2 numerical failure: a truncation budget
exceeded, or an uncertified estimate (a reconstruction, a bootstrap with more than 10 % failed
resamples, a fit) after its output is written. Errors are one JSON object on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, fields, replace

import numpy as np

from .errors import NumericsError, ValidationError
from .fock import load_density_matrix, save_density_matrix, wigner, wigner_origin
from .pipeline import (
    ChannelSection,
    DetectionSection,
    ReconstructionSection,
    SamplingSection,
    StateSection,
    apply_link,
    detect_and_sample,
    load_config,
    new_output_dir,
    parse_angle_list,
    parse_angle_pairs,
    run_pipeline,
    simulate_source_state,
    verify_run_dir,
)
from .quadrature import dataset_from_angle_blocks, load_samples_csv, save_samples_csv
from .spectrum import (
    fit_report_json,
    joint_fit,
    load_spectrum_csv,
    save_spectrum_csv,
    spectral_variances,
)
from .temporal import (
    build_mode,
    extract_ensemble,
    load_trace_dir,
    save_trace_csv,
    shot_noise_scale,
    synthesize_gaussian_traces,
    TimeTrace,
)
from .tomography import ReconstructionConfig, bootstrap_metric, mle_reconstruct
from .util import atomic_write_text, require_int, write_csv

_GAMMA_MHZ = 8.0  # default OPO decay rate gamma / 2 pi, in MHz


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of calling sys.exit(2) on usage errors."""

    def error(self, message):
        raise ValidationError(message)


_RECONSTRUCTION_FLAGS = tuple(  # `bootstrap` takes the bootstrap size as --resamples
    f.name for f in fields(ReconstructionSection) if f.name != "bootstrap_resamples")


def _add_section_flags(parser: argparse.ArgumentParser, section, names) -> None:
    """One --flag per named field of a config dataclass, typed and defaulted as the field is."""
    for name in names:
        value = getattr(section, name)
        parser.add_argument("--" + name.replace("_", "-"), type=type(value), default=value)


def _add_reconstruction_flags(parser: argparse.ArgumentParser) -> None:
    """The reconstruct/bootstrap flags, defaulted as the [reconstruction] section is."""
    parser.add_argument("--eta", type=float, default=ReconstructionConfig.eta_correction)
    _add_section_flags(parser, ReconstructionSection, _RECONSTRUCTION_FLAGS)


def _reconstruction_config(args) -> ReconstructionConfig:
    """The reconstruct/bootstrap flags as a config."""
    flags = {name: getattr(args, name) for name in _RECONSTRUCTION_FLAGS}
    return ReconstructionSection(**flags).to_config(args.eta)


def _rad_per_s(mhz: float) -> float:
    """An angular rate (rad/s) from a frequency flag in MHz."""
    return 2.0 * math.pi * mhz * 1e6


def _emit(result, out=None, uncertified: str | None = None) -> None:
    """Print a JSON result (a dict or library text), write it to `out`; `uncertified` is exit 2."""
    text = result if isinstance(result, str) else json.dumps(result, indent=2, sort_keys=True)
    if out:
        atomic_write_text(out, text)
    print(text)
    if uncertified:
        raise NumericsError(uncertified)


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_simulate_state(args) -> None:
    state = StateSection(
        v_x_db=args.vx_db,
        v_p_db=args.vp_db,
        subtract=not args.no_subtract,
        purity_mix=args.purity_mix,
        nmax=args.nmax,
    )
    channel = ChannelSection(link_eta=args.link_eta, phase_sigma_deg=args.phase_sigma_deg)
    rho, weight = simulate_source_state(state)
    rho = apply_link(rho, channel)
    save_density_matrix(rho, args.out)
    _emit({
        "out": str(args.out),
        "nmax": rho.nmax,
        "mean_photon": rho.mean_photon(),
        "purity": rho.purity(),
        "subtract_weight": weight,
    })


def _cmd_sample(args) -> None:
    rho = load_density_matrix(args.rho)
    sampling = SamplingSection(
        angles_deg=parse_angle_list(args.angles_deg), per_angle_count=args.count, seed=args.seed
    )
    ds = detect_and_sample(rho, DetectionSection(hd_eta=args.hd_eta), sampling)
    save_samples_csv(ds, args.out)
    _emit({
        "out": str(args.out),
        "angles_deg": list(sampling.angles_deg),
        "per_angle_count": sampling.per_angle_count,
        "total": len(ds.values),
    })


def _cmd_synth_traces(args) -> None:
    out = new_output_dir(args.out_dir)
    gamma = _rad_per_s(args.gamma_mhz)
    epsilon = _rad_per_s(args.epsilon_mhz)
    if args.spectrum == "flat":
        spectrum = lambda f: np.full_like(np.asarray(f, dtype=float), args.snu)
    else:
        quadrature = ("vx", "vp").index(args.spectrum)
        spectrum = lambda f: spectral_variances(f, gamma, epsilon, args.eta)[quadrature]
    fs = args.sample_rate_msps * 1e6
    traces = synthesize_gaussian_traces(
        spectrum, duration=args.duration_us * 1e-6, sample_rate=fs, count=args.count,
        seed=args.seed,
    )
    for i in range(traces.shape[0]):
        save_trace_csv(TimeTrace(fs, traces[i]), out / f"trace_{i:05d}.csv")
    _emit({
        "out_dir": str(out),
        "count": traces.shape[0],
        "samples_per_trace": traces.shape[1],
        "sample_rate_hz": fs,
    })


def _cmd_extract(args) -> None:
    values, fs, _ = load_trace_dir(args.traces)
    gamma = _rad_per_s(args.gamma_mhz)
    kappa = _rad_per_s(args.kappa_mhz)
    duration = values.shape[1] / fs
    mode = build_mode(gamma, kappa, args.t0_us * 1e-6, fs, window=(0.0, duration))
    quads = extract_ensemble(values, mode)
    scale_info = None
    if args.vacuum is not None:
        vac_values, vac_fs, _ = load_trace_dir(args.vacuum)
        if not math.isclose(vac_fs, fs, rel_tol=1e-9):
            raise ValidationError("vacuum traces use a different sample rate")
        scale, scale_err = shot_noise_scale(vac_values, mode)
        quads = quads / scale
        scale_info = {"scale": scale, "scale_stderr": scale_err}
    ds = dataset_from_angle_blocks({math.radians(args.angle_deg): quads})
    save_samples_csv(ds, args.out)
    _emit({
        "out": str(args.out),
        "count": int(quads.size),
        "variance_snu": float(np.var(quads)),
        "normalization": scale_info,
    })


def _cmd_reconstruct(args) -> None:
    ds = load_samples_csv(args.samples)
    config = _reconstruction_config(args)
    if args.true_angles_deg is not None:
        table = parse_angle_pairs(args.true_angles_deg)
        config = replace(config, angle_overrides={
            math.radians(nominal): math.radians(true) for nominal, true in table.items()
        })
    result = mle_reconstruct(ds, config)
    save_density_matrix(result.rho, args.out_rho)
    _emit({**result.metrics, "out_rho": str(args.out_rho)}, args.out_metrics, result.uncertified)


def _cmd_wigner_grid(args) -> None:
    require_int(args.points, "--points", 2)
    if not (math.isfinite(args.range) and args.range > 0.0):
        raise ValidationError(f"--range must be a finite positive number, got {args.range}")
    rho = load_density_matrix(args.rho)
    axis = np.linspace(-args.range, args.range, args.points)
    xg, pg = np.meshgrid(axis, axis, indexing="ij")
    w = wigner(rho, xg, pg)
    write_csv(args.out, ("x", "p", "w"), (xg.ravel(), pg.ravel(), w.ravel()))
    _emit({
        "out": str(args.out),
        "points": args.points,
        "range": args.range,
        "w_origin": wigner_origin(rho),
        "w_min": float(w.min()),
    })


def _cmd_fit_spectrum(args) -> None:
    data = load_spectrum_csv(args.spectra, clearance_path=args.clearance)
    result = joint_fit(data, _rad_per_s(args.gamma_mhz), fit_db=args.fit_db)
    _emit(fit_report_json(result), args.out, result.uncertified)


def _cmd_bootstrap(args) -> None:
    rho = load_density_matrix(args.rho)
    degs = parse_angle_list(args.angles_deg)
    boot = bootstrap_metric(
        rho,
        _reconstruction_config(args),
        per_angle_counts={math.radians(d): args.count for d in degs},
        n_resamples=args.resamples,
        seed=args.seed,
    )
    receipt = asdict(boot)
    del receipt["values"]
    _emit(receipt, args.out, boot.uncertified)


def _cmd_pipeline(args) -> None:
    config = load_config(args.config)
    if args.seed is not None:
        config = replace(config, sampling=replace(config.sampling, seed=args.seed))
    run = run_pipeline(config, out_dir=args.out)
    primary, other = (run.corrected, run.uncorrected) if run.corrected else (run.uncorrected, None)
    named = (("", primary), ("uncorrected reconstruction: ", other), ("bootstrap: ", run.bootstrap))
    reasons = [name + est.uncertified for name, est in named if est and est.uncertified]
    _emit(run.report.to_json(), uncertified=reasons[0] if reasons else None)


def _cmd_report(args) -> None:
    report = verify_run_dir(args.run)
    _emit({"run": str(args.run), "hashes_ok": True, "metrics": report["metrics"],
           "timings_s": report.get("timings_s")})


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kittensim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate-state", help="build a source state and apply the link")
    p.add_argument("--vx-db", type=float, required=True)
    p.add_argument("--vp-db", type=float, required=True)
    p.add_argument("--no-subtract", action="store_true")
    _add_section_flags(p, StateSection, ("purity_mix", "nmax"))
    _add_section_flags(p, ChannelSection, ("link_eta", "phase_sigma_deg"))
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate_state)

    p = sub.add_parser("sample", help="draw homodyne samples from a stored state")
    p.add_argument("--rho", required=True)
    p.add_argument("--angles-deg", required=True)
    p.add_argument("--count", type=int, required=True)
    _add_section_flags(p, SamplingSection, ("seed",))
    _add_section_flags(p, DetectionSection, ("hd_eta",))
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("synth-traces", help="synthesize Gaussian homodyne time traces")
    p.add_argument("--spectrum", choices=("flat", "vx", "vp"), required=True)
    p.add_argument("--snu", type=float, default=0.5, help="flat spectrum level")
    p.add_argument("--gamma-mhz", type=float, default=_GAMMA_MHZ)
    p.add_argument("--epsilon-mhz", type=float, default=1.74)
    p.add_argument("--eta", type=float, default=0.462)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--duration-us", type=float, default=1.0)
    p.add_argument("--sample-rate-msps", type=float, default=500.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_synth_traces)

    p = sub.add_parser("extract", help="project traces onto a temporal mode")
    p.add_argument("--traces", required=True)
    p.add_argument("--vacuum", default=None, help="vacuum trace dir for shot-noise scaling")
    p.add_argument("--gamma-mhz", type=float, default=_GAMMA_MHZ)
    p.add_argument("--kappa-mhz", type=float, default=30.0)
    p.add_argument("--t0-us", type=float, default=0.5)
    p.add_argument("--angle-deg", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("reconstruct", help="maximum-likelihood state reconstruction")
    p.add_argument("--samples", required=True)
    _add_reconstruction_flags(p)
    p.add_argument("--true-angles-deg", default=None,
                   help="comma list nominal:true overrides, degrees")
    p.add_argument("--out-rho", required=True)
    p.add_argument("--out-metrics", default=None)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("wigner-grid", help="evaluate the Wigner function on a grid")
    p.add_argument("--in", dest="rho", required=True, help="density-matrix JSON")
    p.add_argument("--range", type=float, default=4.0, help="half-range of the square grid")
    p.add_argument("--points", type=int, default=81)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_wigner_grid)

    p = sub.add_parser("fit-spectrum", help="joint fit of squeezing spectra")
    p.add_argument("--spectra", required=True)
    p.add_argument("--clearance", default=None)
    p.add_argument("--gamma-mhz", type=float, default=_GAMMA_MHZ)
    p.add_argument("--fit-db", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_fit_spectrum)

    p = sub.add_parser("bootstrap", help="parametric bootstrap of the Wigner origin")
    p.add_argument("--rho", required=True)
    p.add_argument("--angles-deg", required=True)
    p.add_argument("--count", type=int, required=True)
    _add_reconstruction_flags(p)
    p.add_argument("--resamples", type=int, default=ReconstructionSection.bootstrap_resamples)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_bootstrap)

    p = sub.add_parser("pipeline", help="run the full pipeline from an INI config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("report", help="verify a run directory's artifact hashes")
    p.add_argument("--run", required=True)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
        return 0
    except (ValidationError, OSError) as exc:
        print(json.dumps({"error": "validation", "message": str(exc)}), file=sys.stderr)
        return 1
    except NumericsError as exc:
        print(json.dumps({"error": "numerics", "message": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
