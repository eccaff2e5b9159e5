#!/usr/bin/env python3
"""Sweep population sizes and tabulate sup-deviation quantiles.

Shows the counts-over-M process tightening around the deterministic limit
as M grows; medians should drop by roughly 2x per 4x population step.
"""
import argparse

import numpy as np

from rpsim import (
    ModelSpec,
    counts_from_fractions,
    integrate,
    lln_test,
    run_ensemble,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fractions", default="0.5,0.3,0.2")
    ap.add_argument("--rate", type=float, default=1.0)
    ap.add_argument("--populations", default="100,400,1600,6400")
    ap.add_argument("--replicas", type=int, default=200)
    ap.add_argument("--t-end", type=float, default=2.0)
    ap.add_argument("--grid-points", type=int, default=201)
    ap.add_argument("--base-seed", type=int, default=1)
    args = ap.parse_args()

    fractions = np.array([float(v) for v in args.fractions.split(",")])
    populations = [int(v) for v in args.populations.split(",")]
    grid = np.linspace(0.0, args.t_end, args.grid_points)
    mf = integrate(fractions, args.rate, t_end=args.t_end, grid=grid)

    specs = [ModelSpec(n=len(fractions), lam=args.rate, total=m,
                       initial=counts_from_fractions(fractions, m))
             for m in populations]
    # population k on base seed + k
    ensembles = []
    for k, spec in enumerate(specs):
        ensembles.append(run_ensemble(spec, args.replicas, args.t_end, grid,
                                      args.base_seed + k, record_events=False))
        print(f"simulated M={spec.total}")

    report = lln_test(ensembles, mf, args.t_end, ratio_band=None)
    print(f"\n{'M':>8} {'median':>10} {'q95':>10} {'median*sqrt(M)':>16}")
    for r in report["records"]:
        print(f"{r['M']:>8} {r['median']:>10.5f} {r['q95']:>10.5f} "
              f"{r['median'] * np.sqrt(r['M']):>16.4f}")
    print(f"\nsuccessive median ratios: "
          f"{[round(x, 3) for x in report['ratios']]} "
          f"(sqrt scaling predicts about 2.0 per 4x step)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
