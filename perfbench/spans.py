"""In-memory span tracer for the benchmark's traced runs.

`Tracer.install` replaces every public function of the traced kittensim
modules with a wrapper, at each module attribute that holds it, so calls made
inside the package are seen too (bootstrap_metric -> mle_reconstruct ->
build_povm_stack -> povm_element). A span is (name, start, end, parent);
spans stay in memory until `write_csv`. The tracer assumes one thread, which
the benchmark guarantees by pinning KITTEN_THREADS=1.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

TRACED_MODULES = ("fock", "quadrature", "tomography", "spectrum", "temporal", "pipeline", "util")

# Counts taken from the objects a call returns, where such counts exist.
RESULT_COUNTS = {
    "tomography.mle_reconstruct": lambda r: {"mle_iterations": r.iterations_used},
    "tomography.bootstrap_metric": lambda r: {
        "bootstrap_resamples": r.n_resamples,
        "bootstrap_failures": r.failures,
    },
    "tomography.build_povm_stack": lambda r: {"povm_stack_bytes": r.nbytes},
    "spectrum.joint_fit": lambda r: {"joint_fit_iterations": r.iterations},
    "quadrature.sample_quadratures": lambda r: {"samples_drawn": r.size},
    "quadrature.sample_with_phase_noise": lambda r: {"samples_drawn": r.size},
    "temporal.load_trace_dir": lambda r: {"traces_loaded": r[0].shape[0]},
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of TRACED_MODULES wherever they are bound."""
        if self._patched:
            return
        holders = [m for n, m in sys.modules.items() if n == "kittensim" or n.startswith("kittensim.")]
        wrappers = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"kittensim.{short}"]
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for holder in holders:
            for attr, obj in list(vars(holder).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(holder, attr, hit[1])
                    self._patched.append((holder, attr, obj))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        count_fn = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(0.0)
            self._stack.append(idx)
            self.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter()
                self._stack.pop()
            if count_fn is not None:
                for key, value in count_fn(result).items():
                    self.counts[key] += value
            return result

        return wrapper

    # -- analysis -----------------------------------------------------------

    def freeze(self) -> None:
        """Index the finished spans; call once tracing is over."""
        self._dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(self._dur)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self._dur[i]
        self._self = [d - c for d, c in zip(self._dur, child)]
        self._by_name = defaultdict(list)
        for i, name in enumerate(self.names):
            self._by_name[name].append(i)

    def _has_ancestor(self, idx: int, names: set[str]) -> bool:
        parent = self.parents[idx]
        while parent >= 0:
            if self.names[parent] in names:
                return True
            parent = self.parents[parent]
        return False

    def total(self, *names: str, within: str | None = None) -> float:
        """Time spent in the named functions, counting nested calls once.

        With `within`, only calls made (directly or not) from that function.
        """
        wanted = set(names)
        out = 0.0
        for name in names:
            for i in self._by_name.get(name, ()):
                if self._has_ancestor(i, wanted):
                    continue
                if within is not None and not self._has_ancestor(i, {within}):
                    continue
                out += self._dur[i]
        return out

    def self_total(self, name: str) -> float:
        """Self time of the named function: its spans minus their children."""
        return sum(self._self[i] for i in self._by_name.get(name, ()))

    def calls(self, name: str) -> int:
        return len(self._by_name.get(name, ()))

    def write_csv(self, path) -> None:
        selfs = self._self
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s,self_s\n")
            for i, name in enumerate(self.names):
                fh.write(
                    f"{i},{self.parents[i]},{name},{self.starts[i] - t0:.9f},"
                    f"{self.ends[i] - t0:.9f},{selfs[i]:.9f}\n"
                )


def layer_metrics(tracer: Tracer, import_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced workload round (plus its traced set-up)."""
    t = tracer
    t.freeze()
    povm_stack_s = t.total("tomography.build_povm_stack")
    mle_iterate_s = t.self_total("tomography.mle_reconstruct")
    mle_iterations = t.counts["mle_iterations"]
    bootstrap_s = t.total("tomography.bootstrap_metric")
    resamples = t.counts["bootstrap_resamples"]
    return {
        "tomography.povm_stack_s": povm_stack_s,
        "tomography.povm_stack_calls": t.calls("tomography.build_povm_stack"),
        "quadrature.povm_element_s": t.total("quadrature.povm_element"),
        "quadrature.povm_element_calls": t.calls("quadrature.povm_element"),
        "tomography.povm_stack_mb_computed": t.counts["povm_stack_bytes"] / 1e6,
        "tomography.mle_iterate_s": mle_iterate_s,
        "tomography.mle_iterations": mle_iterations,
        "tomography.mle_iteration_ms": 1e3 * mle_iterate_s / mle_iterations if mle_iterations else 0.0,
        "tomography.reconstructions": t.calls("tomography.mle_reconstruct"),
        "tomography.bin_s": t.total("tomography.bin_dataset"),
        "tomography.bootstrap_s": bootstrap_s,
        "tomography.bootstrap_resample_s": bootstrap_s / resamples if resamples else 0.0,
        "tomography.bootstrap_resamples": resamples,
        "tomography.bootstrap_failures": t.counts["bootstrap_failures"],
        "quadrature.sample_s": t.total(
            "quadrature.sample_quadratures", "quadrature.sample_with_phase_noise"
        ),
        "quadrature.samples_drawn": t.counts["samples_drawn"],
        "fock.prepare_s": t.total(
            "pipeline.simulate_source_state",
            "fock.gaussian_state",
            "fock.photon_subtract",
            "fock.cat_state",
        ),
        "fock.loss_channel_s": t.total("fock.loss_channel"),
        "fock.loss_channel_calls": t.calls("fock.loss_channel"),
        "fock.cat_fit_s": t.total("fock.best_cat_fidelity"),
        "fock.wigner_grid_s": t.total("fock.wigner"),
        "spectrum.joint_fit_s": t.total("spectrum.joint_fit"),
        "spectrum.joint_fit_iterations": t.counts["joint_fit_iterations"],
        "spectrum.model_spectrum_calls": t.calls("spectrum.model_spectrum"),
        "spectrum.model_spectrum_s": t.total("spectrum.model_spectrum"),
        "temporal.load_trace_dir_s": t.total("temporal.load_trace_dir"),
        "temporal.traces_loaded": t.counts["traces_loaded"],
        "temporal.extract_s": t.total(
            "temporal.build_mode",
            "temporal.shot_noise_scale",
            "temporal.extract_ensemble",
            "temporal.extract_quadrature",
        ),
        "temporal.synthesize_s": t.total("temporal.synthesize_gaussian_traces"),
        "temporal.save_trace_s": t.total("temporal.save_trace_csv"),
        "pipeline.import_s": import_s,
        "pipeline.write_artifacts_s": t.total(
            "fock.save_density_matrix",
            "quadrature.save_samples_csv",
            "util.atomic_write_text",
            "util.sha256_file",
            within="pipeline.run_pipeline",
        ),
        "pipeline.verify_s": t.total("pipeline.verify_run_dir"),
    }
