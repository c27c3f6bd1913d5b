"""Shows that every benchmark check passes on real output and trips on a corrupted one.

Run from the root of a kittensim checkout (takes about a minute):

    python3 perfbench/selftest.py

Each case builds a real output with the program, confirms the checks accept
it, then corrupts one thing and confirms that the matching check reports it.
It also confirms that BENCHMARK.json names exactly the metrics run.py prints.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import run  # pins the thread settings before numpy is imported

import numpy as np

sys.path.insert(0, str(run.SRC))
import kittensim as ks  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

RESULTS: list[tuple[str, bool]] = []


def expect(name: str, failures: list[str], keyword: str | None) -> None:
    """keyword None: the output is genuine and must pass; else a failure must mention it."""
    if keyword is None:
        ok = not failures
    else:
        ok = any(keyword in msg for msg in failures)
    RESULTS.append((name, ok))
    print(f"{'ok  ' if ok else 'FAIL'} {name}" + ("" if ok else f": {failures}"), flush=True)


def rewrite_json(path: Path, edit) -> None:
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def save_entries(path: Path, entries: np.ndarray) -> None:
    ks.save_density_matrix(ks.FockDensityMatrix(nmax=entries.shape[0] - 1, entries=entries), path)


def pipeline_cases(scratch: Path) -> None:
    config = ks.load_config(run.ROOT / "configs" / "local.ini")
    # the resample count the pipeline workload runs with
    quick = replace(config, reconstruction=replace(
        config.reconstruction, bootstrap_resamples=workloads.BOOTSTRAP_RESAMPLES))
    genuine = scratch / "genuine"
    ks.run_pipeline(quick, out_dir=genuine)
    expect("pipeline: genuine run passes", checks.check_pipeline_run(ks, genuine, "local", quick), None)

    def corrupted(label, edit, keyword):
        target = scratch / label.replace(" ", "_")
        shutil.copytree(genuine, target)
        edit(target)
        expect(f"pipeline: {label}", checks.check_pipeline_run(ks, target, "local", quick), keyword)

    rho = ks.load_density_matrix(genuine / "rho_corrected.json").entries
    vacuum = np.zeros_like(rho)
    vacuum[0, 0] = 1.0
    corrupted("corrected state replaced by vacuum",
              lambda d: save_entries(d / "rho_corrected.json", vacuum), "corrected fidelity")
    early = ks.mle_reconstruct(ks.load_samples_csv(genuine / "samples.csv"),
                               replace(quick.reconstruction.to_config(1.0), max_iters=150))
    corrupted("uncorrected state stopped after 150 iterations",
              lambda d: ks.save_density_matrix(early.rho, d / "rho_uncorrected.json"), "not converged")
    negative = rho.copy()
    negative[rho.shape[0] - 1, rho.shape[0] - 1] -= 0.01
    negative[0, 0] += 0.01
    corrupted("corrected state not positive",
              lambda d: save_entries(d / "rho_corrected.json", negative), "eigenvalue")

    def stretch_samples(d):
        data = ks.load_samples_csv(d / "samples.csv")
        values = np.where(data.angles == data.angles[0], 1.1 * data.values, data.values)
        ks.save_samples_csv(ks.QuadratureDataset(angles=data.angles, values=values), d / "samples.csv")

    corrupted("samples at one angle stretched by 10%", stretch_samples, "standard errors")
    for key, value, keyword in (
        ("w00_corrected", -0.154, "w00_corrected"),
        ("converged", False, "converged"),
        ("bootstrap_failures", 1, "bootstrap_failures"),
        ("w00_std", 0.02, "w00_std"),
    ):
        corrupted(f"metrics.json {key} = {value}",
                  lambda d, k=key, v=value: rewrite_json(d / "metrics.json", lambda m: m.__setitem__(k, v)),
                  keyword)

    manifest = json.loads((genuine / "report.json").read_text())["manifest"]
    expect("pipeline: same manifest passes", checks.check_manifest(manifest, dict(manifest)), None)
    expect("pipeline: changed manifest trips",
           checks.check_manifest(manifest, {**manifest, "samples.csv": "0" * 64}), "manifest differs")


def scan_cases(scratch: Path) -> None:
    scan = workloads.Scan(ks, run.ROOT, 0, scratch)
    scan.setup(scratch)
    op = scan.ops(0)[0]
    result, wig = op.run()
    expect("scan: genuine op passes", op.check((result, wig)), None)

    expect("scan: not converged", op.check((replace(result, converged=False), wig)), "did not converge")
    vacuum = np.zeros((result.rho.dim, result.rho.dim), dtype=complex)
    vacuum[0, 0] = 1.0
    bad_rho = replace(result, rho=ks.FockDensityMatrix(nmax=result.rho.nmax, entries=vacuum))
    expect("scan: state replaced by vacuum", op.check((bad_rho, wig)), "fidelity")
    shifted = replace(result, metrics={**result.metrics, "w00": result.metrics["w00"] + 0.05})
    expect("scan: W(0,0) shifted", op.check((shifted, wig)), "W(0,0)")
    centre = wig.copy()
    mid = np.argmin(np.abs(scan.grid))
    centre[mid, mid] += 1e-6
    expect("scan: grid centre moved", op.check((result, centre)), "centre")
    spike = wig.copy()
    spike[0, 0] = 0.33
    expect("scan: grid value above 1/pi", op.check((result, spike)), "exceeds 1/pi")
    expect("scan: grid scaled by 1.001", op.check((result, 1.001 * wig)), "integrates")


def characterize_cases(scratch: Path) -> None:
    char = workloads.Characterize(ks, run.ROOT, 0, scratch)
    char.setup(scratch)
    main, trap = char.ops(0)
    out = main.run()
    expect("characterize: genuine op passes", main.check(out), None)

    fit = out["fit"]
    expect("characterize: fit not converged", main.check({**out, "fit": replace(fit, converged=False)}),
           "did not converge")
    expect("characterize: reported cost halved", main.check({**out, "fit": replace(fit, cost=0.5 * fit.cost)}),
           "reported cost")
    worse = replace(fit.params, eta=fit.params.eta + 0.05)
    data = char.spectra(0)
    worse_cost = checks.reference_cost(data, worse.gamma, worse.epsilon, worse.eta, worse.sigma,
                                       worse.theta_true)
    expect("characterize: fit worse than the generating parameters",
           main.check({**out, "fit": replace(fit, params=worse, cost=worse_cost)}), "generating cost")

    values, rate, triggers = out["signal"]
    flipped = values.copy()
    flipped[7, 11] = np.nextafter(flipped[7, 11], np.inf)
    expect("characterize: one trace value off by one ulp",
           main.check({**out, "signal": (flipped, rate, triggers)}), "differ from the synthesized")
    expect("characterize: sample rate changed",
           main.check({**out, "vacuum": (out["vacuum"][0], rate * 2, out["vacuum"][2])}), "sample rate")
    predicted = ks.mode_variance_from_spectrum(out["mode"], workloads.signal_spectrum)
    # 4 standard errors are 25 % of the prediction with 1000 + 1000 traces
    expect("characterize: variance 40% above the prediction",
           main.check({**out, "variance": 1.4 * predicted}), "SE from")

    trap_fit = trap.run()
    expect("characterize: sigma=0 trap fails today", trap.check(trap_fit), "did not converge")
    truth = workloads.TRAP_TRUTH
    solved = replace(
        trap_fit,
        params=replace(trap_fit.params, eta=truth["eta"], sigma=truth["sigma"], theta_true=dict(truth["true_angles"]),
                       epsilon=truth["epsilon"]),
        cost=checks.reference_cost(char.trap_spectra, **truth), converged=True,
    )
    expect("characterize: a fit that lands on the truth passes the trap check",
           trap.check(solved), None)


def benchmark_json_cases() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    expect("BENCHMARK.json: end-to-end metrics match run.py",
           [] if e2e == run.END_TO_END_UNITS else [f"{e2e} != {run.END_TO_END_UNITS}"], None)
    tracer = spans.Tracer()
    tracer.freeze()
    names = list(spans.layer_metrics(tracer, 0.0)) + ["trace.overhead_s", "trace.overhead_pct"]
    emitted = {n: run.layer_unit(n) for n in names}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect("BENCHMARK.json: per-layer metrics match run.py",
           [] if layer == emitted else [f"{sorted(set(layer) ^ set(emitted))} or units differ"], None)
    expect("BENCHMARK.json: workloads match run.py",
           [] if tuple(w["name"] for w in spec["workloads"]) == run.WORKLOAD_NAMES else ["workloads differ"],
           None)


def main() -> int:
    scratch_root = run.TMP_DIR
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=scratch_root))
    try:
        benchmark_json_cases()
        for name, case in (("scan", scan_cases), ("characterize", characterize_cases),
                           ("pipeline", pipeline_cases)):
            sub = scratch / name
            sub.mkdir()
            case(sub)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    failed = [name for name, ok in RESULTS if not ok]
    print(f"{len(RESULTS) - len(failed)}/{len(RESULTS)} selftest cases passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
