"""The benchmark's three workloads: set-up, ops and the checks each op runs.

A workload object generates its inputs in `setup(dest)` and hands out the ops
of round k through `ops(k)`. Every op has a `run` (the timed part, which
returns the outputs) and a `check` (untimed, returns failure messages).
Inputs derive from the workload seed only, so a seed reproduces them. The
first `warmup_rounds` rounds of a run are run and checked but not timed.
Ops last a few seconds each, so a run holds enough of them for its medians
to ride out the speed changes of a small shared machine.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

import checks

CHILD_TIMEOUT_S = 170.0


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    known_failure: bool = False   # fails today because of a named program fault
    rss_mb: Callable[[object], float | None] = field(default=lambda out: None)


# ---------------------------------------------------------------------------
# pipeline: one CLI process per op, on each of the two shipped configs
# ---------------------------------------------------------------------------

CONFIG_NAMES = ("local", "transmitted")
# The shipped configs ask for 50 resamples, which makes one op about 40 s.
# Two keep every step of the run, the bootstrap included, in a 3-4 s op.
BOOTSTRAP_RESAMPLES = 2


def source_digest(root: Path) -> str:
    """Digest of the package sources, so stored manifests follow the code."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "kittensim").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class Pipeline:
    name = "pipeline"
    warmup_rounds = 0   # every op is a new process; set-up already imported once

    def __init__(self, ks, root: Path, seed: int, workdir: Path, store: Path, in_process=False):
        self.ks, self.root, self.seed, self.workdir = ks, root, seed, workdir
        self.store = store
        self.in_process = in_process

    def setup(self, dest: Path) -> None:
        """The shipped configs with BOOTSTRAP_RESAMPLES resamples, written to dest."""
        self.configs, self.config_paths = {}, {}
        for name in CONFIG_NAMES:
            shipped = self.ks.load_config(self.root / "configs" / f"{name}.ini")
            config = replace(shipped, reconstruction=replace(
                shipped.reconstruction, bootstrap_resamples=BOOTSTRAP_RESAMPLES))
            path = dest / f"{name}.ini"
            self.ks.save_config(config, path)
            self.configs[name], self.config_paths[name] = self.ks.load_config(path), path
        self.code_key = source_digest(self.root)
        self.stack_cache: dict = {}
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.child_env = env

    def export(self, dest: Path) -> None:
        self.setup(dest)

    def ops(self, k: int) -> list[Op]:
        """Both configs, the one first that n + k makes even (local) or odd."""
        first = (self.seed + k) % 2
        return [self._op(k, CONFIG_NAMES[(first + i) % 2]) for i in range(2)]

    def _op(self, k: int, name: str) -> Op:
        out = self.workdir / f"run-{k}-{name}"
        return Op(
            name=f"pipeline:{name}",
            run=(lambda: self._run_in_process(name, out)) if self.in_process
            else (lambda: self._run_cli(name, out)),
            check=lambda res: self._check(name, out, res),
            rss_mb=lambda res: res.get("rss_mb"),
        )

    def _run_cli(self, name: str, out: Path) -> dict:
        cmd = [sys.executable, "-m", "kittensim.cli", "pipeline",
               "--config", str(self.config_paths[name]), "--out", str(out)]
        with open(self.workdir / "cli-stderr.txt", "wb") as err:
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.child_env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        res = {"exit_code": proc.returncode, "rss_mb": usage.ru_maxrss * 1024 / 1e6}
        if proc.returncode == 0:
            res.update(self._verify(out))
        return res

    def _run_in_process(self, name: str, out: Path) -> dict:
        self.ks.run_pipeline(self.ks.load_config(self.config_paths[name]), out_dir=out)
        return {"exit_code": 0, **self._verify(out)}

    def _verify(self, out: Path) -> dict:
        try:
            return {"manifest": self.ks.verify_run_dir(out)["manifest"]}
        except self.ks.KittenError as exc:
            return {"verify_error": str(exc)}

    def _check(self, name: str, out: Path, res: dict) -> list[str]:
        try:
            if res["exit_code"] != 0:
                err = (self.workdir / "cli-stderr.txt").read_text(errors="replace").strip()
                return [f"CLI exited {res['exit_code']}: {err[-300:]}"]
            if "verify_error" in res:
                return [f"verify_run_dir: {res['verify_error']}"]
            failures = checks.check_pipeline_run(
                self.ks, out, name, self.configs[name], self.stack_cache)
            failures += checks.check_manifest(res["manifest"], self._stored_manifest(name, res["manifest"]))
            return failures
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _stored_manifest(self, name: str, manifest: dict) -> dict | None:
        """The manifest an earlier op of this code and config wrote, if any.

        The first op of a checkout records its manifest; later ops, in this
        run or in later runs, are compared against it.
        """
        path = self.store / f"{name}-b{BOOTSTRAP_RESAMPLES}-{self.code_key}.json"
        if path.exists():
            return json.loads(path.read_text())
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(manifest, sort_keys=True))
        os.replace(tmp, path)
        return None


# ---------------------------------------------------------------------------
# scan: phase-scanned data, one loss-corrected reconstruction + Wigner grid
# ---------------------------------------------------------------------------

SCAN_ANGLES = 18
SCAN_STEP_DEG = 10.0
SCAN_SAMPLES_PER_ANGLE = 4000
SCAN_JITTER_DEG = 3.0
GRID_POINTS = 201
GRID_HALF_RANGE = 6.0


class Scan:
    name = "scan"
    warmup_rounds = 1

    def __init__(self, ks, root: Path, seed: int, workdir: Path, **_):
        self.ks, self.root, self.seed = ks, root, seed

    def setup(self, dest: Path) -> None:
        ks = self.ks
        cfg = ks.load_config(self.root / "configs" / "transmitted.ini")
        source, _ = ks.simulate_source_state(cfg.state)
        self.truth = ks.apply_link(source, cfg.channel)
        self.detected = ks.loss_channel(self.truth, cfg.detection.hd_eta)
        self.recon_config = cfg.reconstruction.to_config(cfg.detection.hd_eta)
        self.grid = np.linspace(-GRID_HALF_RANGE, GRID_HALF_RANGE, GRID_POINTS)

    def angles(self, k: int):
        """Round k's nominal angles, offset together, and their jittered true angles."""
        rng = np.random.default_rng([self.seed, k])
        offset = rng.uniform(0.0, SCAN_STEP_DEG)
        nominal = np.radians(offset + SCAN_STEP_DEG * np.arange(SCAN_ANGLES))
        true = nominal + np.radians(rng.uniform(-SCAN_JITTER_DEG, SCAN_JITTER_DEG, SCAN_ANGLES))
        return nominal, true, rng.integers(0, 2**63, SCAN_ANGLES)

    def export(self, dest: Path) -> None:
        self.setup(dest)
        nominal, true, seeds = self.angles(0)
        self.ks.save_samples_csv(self._sample(nominal, true, seeds), dest / "scan-round0-samples.csv")
        table = {repr(float(np.degrees(n))): float(np.degrees(t)) for n, t in zip(nominal, true)}
        (dest / "scan-round0-true-angles.json").write_text(json.dumps(table, indent=1))

    def ops(self, k: int) -> list[Op]:
        nominal, true, seeds = self.angles(k)
        return [Op(
            name="scan",
            run=lambda: self._run(nominal, true, seeds),
            check=lambda out: checks.check_scan(self.ks, out[0], self.truth, self.grid, out[1]),
        )]

    def _sample(self, nominal, true, seeds):
        """Samples drawn at the true angles, tagged with the nominal ones."""
        return self.ks.dataset_from_angle_blocks({
            float(n): self.ks.sample_quadratures(self.detected, float(t), SCAN_SAMPLES_PER_ANGLE, seed=int(s))
            for n, t, s in zip(nominal, true, seeds)
        })

    def _run(self, nominal, true, seeds):
        ks = self.ks
        result = ks.reconstruct_with_angles(
            self._sample(nominal, true, seeds),
            self.recon_config,
            {float(n): float(t) for n, t in zip(nominal, true)},
        )
        x, p = np.meshgrid(self.grid, self.grid)
        return result, ks.wigner(result.rho, x, p)


# ---------------------------------------------------------------------------
# characterize: spectrum fit plus trace loading and mode extraction
# ---------------------------------------------------------------------------

GAMMA = 2 * math.pi * 8.0e6
KAPPA = 2 * math.pi * 30.0e6
EPSILON = 2 * math.pi * 1.74e6
FREQ = np.linspace(0.05e6, 10e6, 400)
CLEARANCE_CORNER_HZ = 20e6
SPECTRUM_NOISE = 0.01
FIT_TRUTH = {
    "gamma": GAMMA,
    "epsilon": EPSILON,
    "eta": 0.462,
    "sigma": math.radians(19.4),
    "true_angles": {math.radians(a): math.radians(t)
                    for a, t in ((0, 0.0), (30, 33.5), (60, 65.6), (90, 90.0))},
}
# The sigma = 0 trap: noise-free spectra, flat clearance, joint_fit's default init.
TRAP_TRUTH = {
    "gamma": GAMMA,
    "epsilon": EPSILON,
    "eta": 0.7,
    "sigma": math.radians(12.0),
    "true_angles": {math.radians(a): math.radians(t) for a, t in ((0, 0.0), (45, 47.0), (90, 90.0))},
}
TRACE_RATE = 500e6
TRACE_DURATION = 1.0e-6
TRACE_T0 = 0.5e-6
TRIGGER_INDEX = 250
N_SIGNAL = 1000
N_VACUUM = 1000   # shot_noise_scale needs at least 1000 vacuum traces
TRACE_SEED_TAG = 1_000_003  # keeps the trace stream apart from the rounds' [seed, k]


def clean_spectra(truth: dict, clearance: np.ndarray) -> dict[float, np.ndarray]:
    return {
        nominal: checks.reference_spectrum(
            FREQ, true, truth["gamma"], truth["epsilon"], truth["eta"], truth["sigma"], clearance
        )
        for nominal, true in truth["true_angles"].items()
    }


def signal_spectrum(f):
    """Squeezed-quadrature spectrum of the fitted source, no phase noise."""
    return checks.reference_spectrum(f, 0.0, GAMMA, EPSILON, FIT_TRUTH["eta"], 0.0, 1.0)


def vacuum_spectrum(f):
    return np.full_like(np.asarray(f, dtype=float), 0.5)


class Characterize:
    name = "characterize"
    warmup_rounds = 1

    def __init__(self, ks, root: Path, seed: int, workdir: Path, **_):
        self.ks, self.seed = ks, seed

    def setup(self, dest: Path) -> None:
        ks = self.ks
        self.clearance = 1.0 / (1.0 + (FREQ / CLEARANCE_CORNER_HZ) ** 2)
        self.clean = clean_spectra(FIT_TRUTH, self.clearance)
        flat = np.ones_like(FREQ)
        self.trap_spectra = ks.SpectrumData(freq=FREQ, variances=clean_spectra(TRAP_TRUTH, flat))

        sig_seed, vac_seed = np.random.SeedSequence([self.seed, TRACE_SEED_TAG]).generate_state(2)
        self.signal = ks.synthesize_gaussian_traces(
            signal_spectrum, TRACE_DURATION, TRACE_RATE, N_SIGNAL, seed=int(sig_seed))
        self.vacuum = ks.synthesize_gaussian_traces(
            vacuum_spectrum, TRACE_DURATION, TRACE_RATE, N_VACUUM, seed=int(vac_seed))
        self.signal_dir, self.vacuum_dir = dest / "signal", dest / "vacuum"
        for directory, values in ((self.signal_dir, self.signal), (self.vacuum_dir, self.vacuum)):
            directory.mkdir(parents=True)
            for i, row in enumerate(values):
                ks.save_trace_csv(
                    ks.TimeTrace(TRACE_RATE, row, TRIGGER_INDEX), directory / f"trace_{i:05d}.csv")

    def export(self, dest: Path) -> None:
        self.setup(dest)
        self.ks.save_spectrum_csv(self.spectra(0), dest / "spectra-round0.csv")
        self.ks.save_clearance_csv(FREQ, self.clearance, dest / "clearance.csv")
        self.ks.save_spectrum_csv(self.trap_spectra, dest / "trap-spectra.csv")

    def spectra(self, k: int):
        """Round k's noisy spectra: the clean ones with 1% relative noise."""
        rng = np.random.default_rng([self.seed, k])
        noisy = {a: v * (1.0 + SPECTRUM_NOISE * rng.standard_normal(v.size))
                 for a, v in self.clean.items()}
        return self.ks.SpectrumData(freq=FREQ, variances=noisy, clearance=self.clearance)

    def ops(self, k: int) -> list[Op]:
        spectra = self.spectra(k)
        return [
            Op(name="characterize", run=lambda: self._run(spectra),
               check=lambda out: self._check(spectra, out)),
            Op(name="characterize:sigma0-trap", known_failure=True,
               run=lambda: self.ks.joint_fit(self.trap_spectra, GAMMA),
               check=lambda fit: checks.check_trap_fit(self.trap_spectra, fit, TRAP_TRUTH)),
        ]

    def _run(self, spectra):
        ks = self.ks
        fit = ks.joint_fit(spectra, GAMMA)
        signal = ks.load_trace_dir(self.signal_dir)
        vacuum = ks.load_trace_dir(self.vacuum_dir)
        mode = ks.build_mode(GAMMA, KAPPA, TRACE_T0, TRACE_RATE, (0.0, TRACE_DURATION))
        scale, _ = ks.shot_noise_scale(vacuum[0], mode)
        quadratures = ks.extract_ensemble(signal[0], mode) / scale
        return {"fit": fit, "signal": signal, "vacuum": vacuum, "mode": mode,
                "variance": float(np.var(quadratures, ddof=1))}

    def _check(self, spectra, out) -> list[str]:
        failures = checks.check_fit(spectra, out["fit"], FIT_TRUTH)
        failures += checks.check_traces(out["signal"], self.signal, TRACE_RATE, TRIGGER_INDEX)
        failures += checks.check_traces(out["vacuum"], self.vacuum, TRACE_RATE, TRIGGER_INDEX)
        predicted = self.ks.mode_variance_from_spectrum(out["mode"], signal_spectrum)
        failures += checks.check_extracted_variance(out["variance"], predicted, N_SIGNAL, N_VACUUM)
        return failures


WORKLOADS = {cls.name: cls for cls in (Pipeline, Scan, Characterize)}
