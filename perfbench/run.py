"""kittensim benchmark: times the `pipeline`, `scan` and `characterize` workloads.

Usage, from the root of a kittensim checkout:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Each run sets the workload up three times, runs its warm-up rounds, then
issues ops one at a time (a closed loop with one client) until --seconds of
op time have passed, and checks every op's output. With --trace 0 it prints
the end-to-end metrics; with --trace 1 it runs one round untraced and the
same round traced and prints the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object: {"correct",
"attempted", "failed", "metrics"}.
See perfbench/README.md.
"""

from __future__ import annotations

import os
import time

_START = time.perf_counter()

# Pin every thread pool before numpy is imported, here and in child processes:
# the program's artifacts depend on the BLAS thread count, and on a small
# shared box extra threads measure the scheduler rather than the program.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "KITTEN_THREADS": "1",
}
os.environ.update(PINNED_ENV)
# One CPU for this process and its children: the vCPUs of a shared VM change
# speed independently of each other, so an op and the calibration kernel
# that samples the speed around it (speed.py) must run on the same one.
BENCH_CPU = max(os.sched_getaffinity(0))
os.sched_setaffinity(0, {BENCH_CPU})

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import asdict, dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP_DIR = ROOT / ".perfbench_tmp"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("pipeline", "scan", "characterize")
SETUP_REPEATS = 3
WORKLOAD_TIMEOUT_S = 300.0

END_TO_END_UNITS = {
    "op_s_p50": "s",
    "cpu_s_p50": "s",
    "good_ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import kittensim; print(time.perf_counter() - t)"
)


def layer_unit(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_mb_computed", "MB"), ("_pct", "%")):
        if name.endswith(suffix):
            return unit
    return "count"


def cpu_seconds() -> float:
    """User + system time of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def environment(ks) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})"
    except (TypeError, KeyError, ValueError):
        blas_build = "unknown"
    return {
        "nproc": os.cpu_count(),
        "bench_cpu": BENCH_CPU,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_build,
        "threads": {k: os.environ.get(k) for k in PINNED_ENV},
        "kittensim": ks.__version__,
    }


def fresh_import_seconds() -> float:
    """Import time of kittensim in a new interpreter with the pinned settings."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def timed(fn):
    """fn()'s result or traceback, its wall and CPU seconds, and the speed scale.

    The scale turns seconds on the machine as it ran into seconds at the
    reference speed (see speed.py).
    """
    with speed.Probe() as probe:
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            out, error = fn(), None
        except Exception:  # an op that raises is a failed op; keep the run going
            out, error = None, traceback.format_exc(limit=3)
        wall = time.perf_counter() - t0 - probe.spent
        cpu = cpu_seconds() - cpu0 - probe.spent
    return out, error, wall, cpu, probe.scale


@dataclass
class OpRecord:
    name: str
    known_failure: bool
    wall: float      # as measured, less the speed samples taken during the op
    cpu: float       # the same for CPU time
    scale: float     # reference speed / the CPU's speed while the op ran
    failures: list[str]
    rss_mb: float | None

    @property
    def ref_wall(self) -> float:
        return self.wall * self.scale

    @property
    def ref_cpu(self) -> float:
        return self.cpu * self.scale


def run_op(op) -> OpRecord:
    """Time one op, then check its output outside the timed region."""
    out, error, wall, cpu, scale = timed(op.run)
    if error is not None:
        return OpRecord(op.name, op.known_failure, wall, cpu, scale, [f"raised: {error.strip()}"], None)
    try:
        failures = op.check(out)
    except Exception:
        failures = [f"check raised: {traceback.format_exc(limit=3).strip()}"]
    return OpRecord(op.name, op.known_failure, wall, cpu, scale, failures, op.rss_mb(out))


def summarize(records, warmup=()) -> tuple[bool, int, int]:
    """correct, attempted, failed; warm-up ops count toward correct only."""
    every = [*warmup, *records]
    for r in every:
        tag = "expected failure" if r.known_failure else "FAILED"
        for msg in r.failures:
            print(f"[{tag}] {r.name}: {msg}", file=sys.stderr)
    correct = not any(r.failures and not r.known_failure for r in every)
    return correct, len(records), sum(1 for r in records if r.failures)


def run_warmup(workload) -> list[OpRecord]:
    return [run_op(op) for k in range(workload.warmup_rounds) for op in workload.ops(k)]


def median_per_kind(records, attr: str) -> float:
    """Mean over op kinds of each kind's median, so a mix of kinds cannot flip it."""
    kinds: dict[str, list[float]] = {}
    for r in records:
        kinds.setdefault(r.name, []).append(getattr(r, attr))
    return statistics.fmean(statistics.median(v) for v in kinds.values())


def timed_run(workload, seconds: float, import_s: float, workdir: Path):
    setups, raw_setups = [], []
    dest = None
    for i in range(SETUP_REPEATS):
        if dest is not None:
            shutil.rmtree(dest)
        dest = workdir / f"inputs-{i}"
        dest.mkdir()
        imp = import_s if i == 0 else fresh_import_seconds()
        _, error, wall, _, scale = timed(lambda d=dest: workload.setup(d))
        if error is not None:
            raise RuntimeError(f"set-up failed: {error}")
        raw_setups.append(imp + wall)
        setups.append((imp + wall) * scale)

    warmup = run_warmup(workload)
    records: list[OpRecord] = []
    op_time = 0.0
    k = workload.warmup_rounds
    while op_time < seconds:
        for op in workload.ops(k):
            rec = run_op(op)
            records.append(rec)
            op_time += rec.wall
        k += 1

    counted = [r for r in records if not r.known_failure]
    good = sum(1 for r in records if not r.failures)
    rss = [r.rss_mb for r in records if r.rss_mb is not None]
    peak_rss = max(rss) if rss else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    metrics = {
        "op_s_p50": median_per_kind(counted, "ref_wall"),
        "cpu_s_p50": median_per_kind(counted, "ref_cpu"),
        "good_ops_per_s": good / sum(r.ref_wall for r in records),
        "peak_rss_mb": peak_rss,
        "setup_s": statistics.median(setups),
    }
    extra = {"setup_samples_s": setups, "setup_raw_s": raw_setups, "timed_rounds": k - workload.warmup_rounds}
    return {n: {"value": v, "unit": END_TO_END_UNITS[n]} for n, v in metrics.items()}, records, warmup, extra


def traced_run(workload, import_s: float, workdir: Path, span_path: Path):
    from spans import Tracer, layer_metrics

    tracer = Tracer()
    dest = workdir / "inputs-0"
    dest.mkdir()
    tracer.install()
    try:
        workload.setup(dest)
    finally:
        tracer.uninstall()

    warmup = run_warmup(workload)
    k = workload.warmup_rounds
    records = []
    untraced = 0.0
    for op in workload.ops(k):
        rec = run_op(op)
        records.append(rec)
        untraced += rec.ref_cpu
    traced = 0.0
    for op in workload.ops(k):
        # install/uninstall around the timed part only, so checks stay untraced
        run = op.run

        def traced_call(run=run):
            tracer.install()
            try:
                return run()
            finally:
                tracer.uninstall()

        op.run = traced_call
        rec = run_op(op)
        records.append(rec)
        traced += rec.ref_cpu

    layers = layer_metrics(tracer, import_s)
    # CPU time, not wall time: the host's steal time (up to a third of a
    # single op here) falls on wall time alone and would swamp the overhead.
    layers["trace.overhead_s"] = traced - untraced
    layers["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
    tracer.write_csv(span_path)
    metrics = {k: {"value": float(v), "unit": layer_unit(k)} for k, v in layers.items()}
    return metrics, records, warmup, {
        "untraced_round_cpu_s": untraced, "traced_round_cpu_s": traced,
        "spans": len(tracer.names), "span_file": str(span_path)}


def run_workload(args) -> int:
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import kittensim as ks
    import_s = time.perf_counter() - t0
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    TMP_DIR.mkdir(exist_ok=True)
    workdir = TMP_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        workload = workloads.WORKLOADS[args.workload](
            ks, ROOT, args.seed, workdir,
            store=OUT_DIR / "manifests", in_process=bool(args.trace),
        )
        if args.trace:
            metrics, records, warmup, extra = traced_run(
                workload, import_s, workdir, OUT_DIR / f"spans-{tag}.csv")
        else:
            metrics, records, warmup, extra = timed_run(workload, args.seconds, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct, attempted, failed = summarize(records, warmup)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    env = environment(ks)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "result": result,
              "ops": [asdict(r) for r in records], "warmup_ops": [asdict(r) for r in warmup], **extra,
              "elapsed_s": time.perf_counter() - _START}
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(record, indent=2))
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run every workload, each in its own process, and merge their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=WORKLOAD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        part = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and part["correct"]
        merged["attempted"] += part["attempted"]
        merged["failed"] += part["failed"]
        for metric, entry in part["metrics"].items():
            print(f"{name:>12}  {metric:<36} {entry['value']:>14.6g} {entry['unit']}")
            merged["metrics"][f"{name}.{metric}"] = entry
        print(f"{name:>12}  attempted {part['attempted']}, failed {part['failed']}, correct {part['correct']}")
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "kittensim" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"no kittensim sources under {ROOT}: expected src/kittensim and configs/", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
