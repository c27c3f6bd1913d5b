"""Write one workload's inputs for a seed to a directory, as the benchmark makes them.

    python3 perfbench/make_inputs.py --workload characterize --seed 1 --out inputs/

pipeline: the two shipped configs. scan: round 0's samples (tagged with the
nominal angles) and its nominal-to-true angle table. characterize: the signal
and vacuum trace directories, round 0's noisy spectra, the clearance curve and
the sigma = 0 trap spectra. Later rounds use the same generators with the
round number mixed into the seed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import run  # pins the thread settings before numpy is imported

sys.path.insert(0, str(run.SRC))
import kittensim as ks  # noqa: E402

import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=run.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=False)
    workload = workloads.WORKLOADS[args.workload](
        ks, run.ROOT, args.seed, args.out, store=args.out / "manifests")
    workload.export(args.out)
    print(f"wrote {args.workload} inputs for seed {args.seed} to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
