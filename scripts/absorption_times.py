#!/usr/bin/env python3
"""Measure fixation: how long until the population stops changing.

Every finite population eventually hits an absorbing state, one in which no
two cyclically adjacent species both survive: a single species for n=3, but
possibly non-adjacent survivors such as (a, 0, b, 0) for n>=4.  This
script tabulates absorption time and event-count quantiles across population
sizes; the event count grows like M^2, so the per-capita time grows linearly
in M.
"""
import argparse

import numpy as np

from rpsim import ModelSpec, rng_stream, run_until, symmetric_counts


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
          f"{'events/M^2':>11}")
    for m in populations:
        spec = ModelSpec(n=args.n, lam=args.rate, total=m,
                         initial=symmetric_counts(args.n, m))
        times, events = [], []
        for i in range(args.replicas):
            traj = run_until(spec, args.t_max, np.array([0.0]),
                             rng_stream(args.base_seed, i), seed=i,
                             record_events=True)
            if traj.absorbed is None:
                print(f"M={m}: replica {i} not absorbed by t={args.t_max:g}")
                continue
            times.append(traj.absorbed)
            events.append(traj.n_events)
        med_ev = np.median(events)
        print(f"{m:>6} {np.median(times):>12.2f} "
              f"{np.quantile(times, 0.9):>12.2f} {med_ev:>14.0f} "
              f"{med_ev / m**2:>11.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
