#!/usr/bin/env python3
"""Dataset: effective entanglement temperature and squeezing rescale factor.

Closed-form T and kappa against the coupling ratio inside the normal phase;
T diverges and kappa vanishes at the critical point.
"""

import argparse
import sys

from dicke_qpt import SweepConfig, emit, run_sweep


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=int, default=49)
    ap.add_argument("--out", default="fig2.csv")
    args = ap.parse_args(argv)

    config = SweepConfig(
        lambda_min=0.02, lambda_max=0.98, lambda_steps=args.steps,
        backend="td", measures=("s_vn", "t_eff", "kappa"))
    table, failures = run_sweep(config)
    emit(table, path=args.out, failures=failures)
    print(f"wrote {len(table['lambda'])} rows to {args.out}")
    return 2 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
