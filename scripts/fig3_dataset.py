#!/usr/bin/env python3
"""Dataset: subsystem-averaged linear entropy Q across the transition.

Finite-size curves (N = 8 and 16 by default) against the closed-form limit,
plus the closed-form derivative dQ/dlambda (nonzero only above the critical
coupling, where it starts at 4/lambda_c and decays as 4 lambda_c^4/lambda^5).
"""

import argparse
import sys

from dicke_qpt import SweepConfig, emit, make_params, q_td_derivative, run_sweep


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-atoms", default="8,16")
    ap.add_argument("--steps", type=int, default=31)
    ap.add_argument("--out", default="fig3.csv")
    ap.add_argument("--derivative-out", default="fig3_derivative.csv")
    args = ap.parse_args(argv)

    config = SweepConfig(
        lambda_min=0.0, lambda_max=3.0, lambda_steps=args.steps,
        n_atoms=tuple(int(tok) for tok in args.n_atoms.split(",")) + ("inf",),
        measures=("q_avg",), backend="ed")
    reports, failures = run_sweep(config)
    emit(reports, path=args.out, failures=failures)

    grid = config.td_lambda_grid()
    derivative = q_td_derivative(make_params(config.omega, config.omega0, grid, 2))
    lines = ["lambda,lambda_rel,dq_dlambda_td"]
    for lam, dq in zip(grid.tolist(), derivative.tolist()):
        lines.append(f"{lam!r},{lam / config.lambda_c!r},{dq!r}")
    with open(args.derivative_out, "w") as fh:
        fh.write("\n".join(lines) + "\n")

    print(f"wrote {len(reports)} rows to {args.out} and the closed-form "
          f"derivative to {args.derivative_out}")
    return 2 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
