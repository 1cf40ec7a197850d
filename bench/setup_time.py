"""Print the seconds this fresh interpreter spends on `import donlat`
plus building one workload's inputs from the seed: scaled to the
reference speed (see speed.py), then as measured.

    python3 bench/setup_time.py --workload configs --seed 1 --workdir DIR
"""

import argparse
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import speed  # noqa: E402  (benchmark code, imported before the clock starts)
import workloads  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    workdir = Path(args.workdir)
    try:
        with speed.Sampler() as sampler:
            t0 = time.perf_counter()
            import donlat  # noqa: F401

            workloads.build(args.workload, args.seed, workdir)
            t1 = time.perf_counter()
        elapsed = t1 - t0 - sampler.paused
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(repr(elapsed * sampler.factor(t0, t1)), repr(elapsed))

if __name__ == "__main__":
    main()
