#!/usr/bin/env python3
"""Empirical fluctuation covariance against the propagated moment ODE.

Simulates an ensemble at one population size, rescales deviations from the
deterministic limit by sqrt(M), and prints the sample covariance next to
the second-moment prediction.
"""
import argparse

import numpy as np

from rpsim import (
    FluctuationModel,
    ModelSpec,
    clt_test,
    counts_from_fractions,
    integrate,
    propagate_covariance,
    run_ensemble,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fractions", default="0.334,0.333,0.333")
    ap.add_argument("--rate", type=float, default=1.0)
    ap.add_argument("--population", type=int, default=10_000)
    ap.add_argument("--replicas", type=int, default=2000)
    ap.add_argument("--t", type=float, default=1.0)
    ap.add_argument("--base-seed", type=int, default=2)
    args = ap.parse_args()

    fractions = np.array([float(v) for v in args.fractions.split(",")])
    m = args.population
    spec = ModelSpec(n=len(fractions), lam=args.rate, total=m,
                     initial=counts_from_fractions(fractions, m))
    u0 = spec.fractions
    grid = np.array([0.0, args.t])

    mf = integrate(u0, args.rate, t_end=args.t, grid=grid)
    model = FluctuationModel.from_path(mf, args.rate)
    sigma = propagate_covariance(model, np.zeros((spec.n, spec.n)))[-1]

    print(f"simulating {args.replicas} replicas at M={m} ...")
    ens = run_ensemble(spec, args.replicas, args.t, grid, args.base_seed,
                       record_events=False)
    report = clt_test(ens, mf, sigma)

    np.set_printoptions(precision=5, suppress=True)
    cov, ref, z = (np.array(report[key]) for key in
                   ("empirical_cov", "reference_cov", "z_scores"))
    print(f"\nempirical covariance at t={args.t}:\n{cov}")
    print(f"\npredicted covariance:\n{ref}")
    print(f"\nentrywise z-scores:\n{z}")
    print(f"\nFrobenius relative error (zero-sum subspace): "
          f"{report['frobenius_rel_err']:.4f}  "
          f"-> {'PASS' if report['pass'] else 'FAIL'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
