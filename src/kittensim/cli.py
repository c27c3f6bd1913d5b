"""Command line interface for the kitten-state simulation toolkit.

Exit codes: 0 success, 1 invalid input or usage, 2 numerical failure
(non-convergence / truncation budget exceeded). Errors are emitted as a JSON
object on stderr so scripted callers can parse them.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import KittenError, NumericsError, ValidationError
from .fock import (
    best_cat_fidelity,
    load_density_matrix,
    loss_channel,
    save_density_matrix,
    wigner,
    wigner_origin,
)
from .pipeline import (
    ChannelSection,
    ReconstructionSection,
    StateSection,
    apply_link,
    load_config,
    parse_angle_list,
    run_pipeline,
    sample_homodyne_dataset,
    simulate_source_state,
    verify_run_dir,
)
from .quadrature import load_samples_csv, save_samples_csv
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
from .quadrature import dataset_from_angle_blocks
from .util import atomic_write_text, write_csv


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of calling sys.exit(2) on usage errors."""

    def error(self, message):
        raise ValidationError(message)


_RECONSTRUCTION_FLAGS = ("nmax", "bin_width", "bin_min", "bin_max", "max_iters", "loglik_tol")


def _add_reconstruction_flags(parser: argparse.ArgumentParser) -> None:
    """The reconstruct/bootstrap flags, with the pipeline's [reconstruction] defaults."""
    parser.add_argument("--eta", type=float, default=ReconstructionConfig.eta_correction)
    defaults = ReconstructionSection()
    for name in _RECONSTRUCTION_FLAGS:
        value = getattr(defaults, name)
        parser.add_argument("--" + name.replace("_", "-"), type=type(value), default=value)


def _reconstruction_config(args) -> ReconstructionConfig:
    """The reconstruct/bootstrap flags as a config, built the way the pipeline builds it."""
    section = ReconstructionSection(**{name: getattr(args, name) for name in _RECONSTRUCTION_FLAGS})
    return section.to_config(args.eta)


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_simulate_state(args) -> int:
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
    print(json.dumps({
        "out": str(args.out),
        "nmax": rho.nmax,
        "mean_photon": rho.mean_photon(),
        "purity": rho.purity(),
        "subtract_weight": weight,
    }, indent=2, sort_keys=True))
    return 0


def _cmd_sample(args) -> int:
    rho = load_density_matrix(args.rho)
    if args.hd_eta < 1.0:
        rho = loss_channel(rho, args.hd_eta)
    degs = parse_angle_list(args.angles_deg)
    ds = sample_homodyne_dataset(rho, [math.radians(d) for d in degs], args.count, args.seed)
    save_samples_csv(ds, args.out)
    print(json.dumps({
        "out": str(args.out),
        "angles_deg": list(degs),
        "per_angle_count": args.count,
        "total": len(ds.values),
    }, indent=2, sort_keys=True))
    return 0


def _cmd_synth_traces(args) -> int:
    gamma = 2.0 * math.pi * args.gamma_mhz * 1e6
    epsilon = 2.0 * math.pi * args.epsilon_mhz * 1e6
    if args.spectrum == "flat":
        spectrum = lambda f: np.full_like(np.asarray(f, dtype=float), args.snu)
    elif args.spectrum == "vx":
        spectrum = lambda f: spectral_variances(f, gamma, epsilon, args.eta)[0]
    else:  # vp
        spectrum = lambda f: spectral_variances(f, gamma, epsilon, args.eta)[1]
    traces = synthesize_gaussian_traces(
        spectrum,
        duration=args.duration_us * 1e-6,
        sample_rate=args.sample_rate_msps * 1e6,
        count=args.count,
        seed=args.seed,
    )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    fs = args.sample_rate_msps * 1e6
    for i in range(traces.shape[0]):
        save_trace_csv(TimeTrace(fs, traces[i]), out / f"trace_{i:05d}.csv")
    print(json.dumps({
        "out_dir": str(out),
        "count": traces.shape[0],
        "samples_per_trace": traces.shape[1],
        "sample_rate_hz": fs,
    }, indent=2, sort_keys=True))
    return 0


def _cmd_extract(args) -> int:
    values, fs, _ = load_trace_dir(args.traces)
    gamma = 2.0 * math.pi * args.gamma_mhz * 1e6
    kappa = 2.0 * math.pi * args.kappa_mhz * 1e6
    duration = values.shape[1] / fs
    mode = build_mode(gamma, kappa, args.t0_us * 1e-6, fs, window=(0.0, duration))
    quads = extract_ensemble(values, mode)
    scale_info = None
    if args.vacuum is not None:
        vac_values, vac_fs, _ = load_trace_dir(args.vacuum)
        if abs(vac_fs - fs) > 1e-6:
            raise ValidationError("vacuum traces use a different sample rate")
        scale, scale_err = shot_noise_scale(vac_values, mode)
        quads = quads / scale
        scale_info = {"scale": scale, "scale_stderr": scale_err}
    ds = dataset_from_angle_blocks({math.radians(args.angle_deg): quads})
    save_samples_csv(ds, args.out)
    summary = {
        "out": str(args.out),
        "count": int(quads.size),
        "variance_snu": float(np.var(quads)),
        "normalization": scale_info,
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _cmd_reconstruct(args) -> int:
    ds = load_samples_csv(args.samples)
    config = _reconstruction_config(args)
    if args.true_angles_deg:
        overrides = {}
        for pair in args.true_angles_deg.split(","):
            if not pair.strip():
                continue
            try:
                nom, true = pair.split(":")
                overrides[math.radians(float(nom))] = math.radians(float(true))
            except ValueError as exc:
                raise ValidationError(f"bad angle override {pair!r}") from exc
        config = replace(config, angle_overrides=overrides)
    result = mle_reconstruct(ds, config)
    save_density_matrix(result.rho, args.out_rho)
    metrics = dict(result.metrics)
    metrics["out_rho"] = str(args.out_rho)
    text = json.dumps(metrics, indent=2, sort_keys=True)
    if args.out_metrics:
        atomic_write_text(args.out_metrics, text)
    print(text)
    if not result.converged:
        print(json.dumps({"error": "numerics",
                          "message": "reconstruction did not converge"}), file=sys.stderr)
        return 2
    return 0


def _cmd_wigner_grid(args) -> int:
    if args.points < 2:
        raise ValidationError(f"--points must be at least 2, got {args.points}")
    if not (math.isfinite(args.range) and args.range > 0.0):
        raise ValidationError(f"--range must be a finite positive number, got {args.range}")
    rho = load_density_matrix(args.rho)
    axis = np.linspace(-args.range, args.range, args.points)
    xg, pg = np.meshgrid(axis, axis, indexing="ij")
    w = wigner(rho, xg, pg)
    write_csv(args.out, ("x", "p", "w"), (xg.ravel(), pg.ravel(), w.ravel()))
    print(json.dumps({
        "out": str(args.out),
        "points": args.points,
        "range": args.range,
        "w_origin": wigner_origin(rho),
        "w_min": float(w.min()),
    }, indent=2, sort_keys=True))
    return 0


def _cmd_fit_spectrum(args) -> int:
    data = load_spectrum_csv(args.spectra, clearance_path=args.clearance)
    gamma = 2.0 * math.pi * args.gamma_mhz * 1e6
    result = joint_fit(data, gamma, fit_db=args.fit_db)
    text = fit_report_json(result)
    if args.out:
        atomic_write_text(args.out, text)
    print(text)
    if not result.converged:
        print(json.dumps({"error": "numerics", "message": "fit did not converge"}),
              file=sys.stderr)
        return 2
    return 0


def _cmd_bootstrap(args) -> int:
    rho = load_density_matrix(args.rho)
    degs = parse_angle_list(args.angles_deg)
    boot = bootstrap_metric(
        rho,
        _reconstruction_config(args),
        per_angle_counts={math.radians(d): args.count for d in degs},
        n_resamples=args.resamples,
        seed=args.seed,
    )
    text = json.dumps({
        "metric": boot.metric,
        "mean": boot.mean,
        "std": boot.std,
        "n_resamples": boot.n_resamples,
        "failures": boot.failures,
        "valid": boot.valid,
    }, indent=2, sort_keys=True)
    if args.out:
        atomic_write_text(args.out, text)
    print(text)
    return 0


def _cmd_pipeline(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = replace(config, sampling=replace(config.sampling, seed=args.seed))
    run = run_pipeline(config, out_dir=args.out)
    print(run.report.to_json())
    if not run.report.metrics["converged"]:
        print(json.dumps({"error": "numerics",
                          "message": "reconstruction did not converge"}), file=sys.stderr)
        return 2
    return 0


def _cmd_report(args) -> int:
    report = verify_run_dir(args.run)
    print(json.dumps({
        "run": str(args.run),
        "hashes_ok": True,
        "metrics": report.get("metrics", {}),
    }, indent=2, sort_keys=True))
    return 0


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
    p.add_argument("--purity-mix", type=float, default=1.0)
    p.add_argument("--nmax", type=int, default=20)
    p.add_argument("--link-eta", type=float, default=1.0)
    p.add_argument("--phase-sigma-deg", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate_state)

    p = sub.add_parser("sample", help="draw homodyne samples from a stored state")
    p.add_argument("--rho", required=True)
    p.add_argument("--angles-deg", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--hd-eta", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("synth-traces", help="synthesize Gaussian homodyne time traces")
    p.add_argument("--spectrum", choices=("flat", "vx", "vp"), required=True)
    p.add_argument("--snu", type=float, default=0.5, help="flat spectrum level")
    p.add_argument("--gamma-mhz", type=float, default=8.0)
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
    p.add_argument("--gamma-mhz", type=float, default=8.0)
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
    p.add_argument("--gamma-mhz", type=float, default=8.0)
    p.add_argument("--fit-db", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_fit_spectrum)

    p = sub.add_parser("bootstrap", help="parametric bootstrap of the Wigner origin")
    p.add_argument("--rho", required=True)
    p.add_argument("--angles-deg", required=True)
    p.add_argument("--count", type=int, required=True)
    _add_reconstruction_flags(p)
    p.add_argument("--resamples", type=int, default=50)
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
        return args.func(args)
    except (ValidationError, OSError) as exc:
        print(json.dumps({"error": "validation", "message": str(exc)}), file=sys.stderr)
        return 1
    except NumericsError as exc:
        print(json.dumps({"error": "numerics", "message": str(exc)}), file=sys.stderr)
        return 2
    except KittenError as exc:  # pragma: no cover - base class fallback
        print(json.dumps({"error": "internal", "message": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
