#!/usr/bin/env python3
"""Measure fixation: how long until the population stops changing.

Every finite population eventually hits an absorbing state, one in which no
two cyclically adjacent species both survive: a single species for n=3, but
possibly non-adjacent survivors such as (a, 0, b, 0) for n>=4.  This
script tabulates absorption time and event-count quantiles across population
sizes, with one ensemble per population (replica i on rng_stream(base_seed,
i)).  The event count grows like M^2 and the absorption time like M, so the
last column, the mean absorption time over M, changes slowly with M.
"""
import argparse

import numpy as np

from rpsim import ModelSpec, run_ensemble, symmetric_counts


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=3)
    ap.add_argument("--rate", type=float, default=1.0)
    ap.add_argument("--populations", default="30,100,300,1000")
    ap.add_argument("--replicas", type=int, default=50)
    ap.add_argument("--base-seed", type=int, default=3)
    ap.add_argument("--t-max", type=float, default=1e6,
                    help="give up past this horizon")
    args = ap.parse_args()

    populations = [int(v) for v in args.populations.split(",")]
    print(f"{'M':>6} {'median T':>12} {'q90 T':>12} {'median events':>14} "
          f"{'events/M^2':>11} {'mean T/M':>9}")
    for m in populations:
        spec = ModelSpec(n=args.n, lam=args.rate, total=m,
                         initial=symmetric_counts(args.n, m))
        ens = run_ensemble(spec, args.replicas, args.t_max, [0.0],
                           args.base_seed, record_events=True)
        done = ~np.isnan(ens.absorbed)
        for i in np.flatnonzero(~done).tolist():
            print(f"M={m}: replica {i} not absorbed by t={args.t_max:g}")
        if not done.any():
            continue
        times = ens.absorbed[done]
        med_ev = np.median(np.diff(ens.event_offsets)[done])
        print(f"{m:>6} {np.median(times):>12.2f} "
              f"{np.quantile(times, 0.9):>12.2f} {med_ev:>14.0f} "
              f"{med_ev / m**2:>11.4f} {times.mean() / m:>9.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
