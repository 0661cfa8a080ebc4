"""Cost of one split-step solver step at the two validate configurations.

Usage, from anywhere:

    python3 tools/solver_step.py [--rounds 5]

For eps in {0.05, 0.025} at q = L = 1 the solver runs the configuration
every comparison with the asymptotics uses, the one `sqnls validate` and the
benchmark's validate workload run: validation_config with t_final = 0.2 and
snapshots at t = 0.15 and 0.2 (refine=2, dt = dx/32). A first, untimed
evolve counts the steps as calls of numpy.fft.fft, one per step, and warms
the caches; then each round times one whole evolve. One line per eps gives
N, the step count and the median over rounds of the evolve time per step in
µs, with the fastest and slowest round. sqnls is imported from the
checkout's src/.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import sqnls  # noqa: E402
from sqnls.nls_direct import validation_config  # noqa: E402

VALIDATE_EPS = (0.05, 0.025)
VALIDATE_T = (0.15, 0.2)


def count_steps(cfg) -> int:
    """Steps of one evolve(cfg), counted as its calls of numpy.fft.fft."""
    forward = np.fft.fft
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return forward(*args, **kwargs)

    np.fft.fft = counted
    try:
        sqnls.evolve(cfg)
    finally:
        np.fft.fft = forward
    return calls


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rounds", type=int, default=5, help="timed evolves per eps (at least 5)")
    args = ap.parse_args(argv)
    if args.rounds < 5:
        ap.error("--rounds must be at least 5")
    print("eps,N,steps,us_per_step_median,us_per_step_min,us_per_step_max")
    for eps in VALIDATE_EPS:
        cfg = validation_config(sqnls.BarrierParams(1.0, 1.0, eps), VALIDATE_T[-1], VALIDATE_T)
        steps = count_steps(cfg)
        per_step = []
        for _ in range(args.rounds):
            t0 = time.perf_counter()
            sqnls.evolve(cfg)
            per_step.append(1e6 * (time.perf_counter() - t0) / steps)
        print(f"{eps:g},{cfg.grid_points},{steps},{statistics.median(per_step):.1f},"
              f"{min(per_step):.1f},{max(per_step):.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
