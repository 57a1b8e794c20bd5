#!/usr/bin/env python3
"""Dataset: critical exponents and the finite-size entropy-scaling exponent.

Two fits:
  * closed-form slopes approaching the transition from below
    (gap +1/2, length scale -1/4, entropy -1/4 against log2 distance);
  * the peak-entropy growth exponent over N in {8, 16, 32, 64}
    (expected near 0.14; this part takes about 1 s on a 2-core Intel Xeon VM).
"""

import argparse
import sys

from dicke_qpt import (SweepConfig, emit, fit_critical_exponents,
                       fit_entropy_scaling, run_sweep)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="table1.json")
    ap.add_argument("--skip-ed", action="store_true",
                    help="only the closed-form exponent fits")
    args = ap.parse_args(argv)

    td_config = SweepConfig(lambda_scale="log", lambda_min=1e-6,
                            lambda_max=1e-3, lambda_steps=30, backend="td",
                            measures=("s_vn",))
    td_reports, _ = run_sweep(td_config)
    fits = fit_critical_exponents(td_reports, omega=td_config.omega,
                                  omega0=td_config.omega0)
    reports = list(td_reports)

    if not args.skip_ed:
        ed_config = SweepConfig(lambda_min=0.9, lambda_max=1.3,
                                lambda_steps=17, n_atoms=(8, 16, 32, 64),
                                backend="ed", measures=("s_vn",), tol=1e-8)
        ed_reports, _ = run_sweep(ed_config)
        fits["s_vn_peak"] = fit_entropy_scaling(ed_reports)
        reports += ed_reports

    emit(reports, fits=fits, path=args.out, fmt="json")
    for name, fit in sorted(fits.items()):
        print(f"{name}: exponent {fit.exponent:+.4f} +- {fit.stderr:.4f} "
              f"(rms residual {fit.residual:.2e})")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
