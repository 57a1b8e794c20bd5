#!/usr/bin/env python3
"""Dataset: von Neumann entropy, linear entropy, and IPR across the transition.

Finite-size curves (N = 8 and 32 by default) against the closed-form
N -> infinity limit, over coupling ratios 0..3.  The finite-N entropy peaks
near the critical coupling; the closed form diverges there (the grid point
at lambda_c is skipped automatically for the closed-form rows).
"""

import argparse
import sys

from dicke_qpt import SweepConfig, emit, run_sweep


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-atoms", default="8,32")
    ap.add_argument("--steps", type=int, default=31)
    ap.add_argument("--out", default="fig1.csv")
    args = ap.parse_args(argv)

    config = SweepConfig(
        lambda_min=0.0, lambda_max=3.0, lambda_steps=args.steps,
        n_atoms=tuple(int(tok) for tok in args.n_atoms.split(",")) + ("inf",),
        measures=("s_vn", "l_lin", "ipr_inv"), backend="ed")
    table, failures = run_sweep(config)
    emit(table, path=args.out, failures=failures)
    print(f"wrote {len(table['lambda'])} rows to {args.out}"
          + (f" ({len(failures)} failures)" if failures else ""))
    return 2 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
