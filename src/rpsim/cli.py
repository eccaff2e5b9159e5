"""Command-line front end.

Four subcommands mirror the library layers: ``simulate`` (event-driven
ensembles), ``meanfield`` (deterministic limit), ``fluctuation`` (second
moments and sample paths of the Gaussian correction), ``validate`` (the
statistical harness).  All output is deterministic for fixed arguments.
"""
from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import io
from .core import (DomainError, ModelSpec, RpsimError, check_seed,
                   counts_from_fractions, symmetric_counts)
from .fluctuation import FluctuationModel, propagate_covariance, run_sde_ensemble
from .meanfield import DEFAULT_STEP, integrate
from .simulate import DEFAULT_MAX_EVENTS, run_ensemble
from .validate import ValidationConfig, run_validation

__all__ = ["main"]


def _numbers(text: str, cast, flag: str) -> tuple:
    """Parse a comma- or space-separated list given to ``flag``."""
    values = []
    for token in text.replace(",", " ").split():
        try:
            values.append(cast(token))
        except ValueError:
            raise DomainError(f"{flag}: cannot parse {token!r} as "
                              f"{cast.__name__}") from None
    return tuple(values)


def _spec_from_args(args) -> ModelSpec:
    if args.initial is not None:
        counts = _numbers(args.initial, int, "--initial")
        return ModelSpec(n=len(counts), lam=args.rate, total=sum(counts),
                         initial=counts)
    if args.fractions is not None:
        fracs = _numbers(args.fractions, float, "--fractions")
        counts = counts_from_fractions(fracs, args.total)
        return ModelSpec(n=len(counts), lam=args.rate, total=args.total,
                         initial=counts)
    counts = symmetric_counts(args.n, args.total)
    return ModelSpec(n=args.n, lam=args.rate, total=args.total, initial=counts)


def _grid_from_args(args, t_end: float) -> np.ndarray:
    if getattr(args, "grid", None) is not None:
        return np.array(_numbers(args.grid, float, "--grid"))
    if not math.isfinite(t_end):
        raise DomainError(f"--t-end must be finite for the default grid, "
                          f"got {t_end}; give --grid")
    # a zero horizon has one sample time, as --grid 0 gives
    points = args.grid_points if t_end > 0 else min(args.grid_points, 1)
    return np.linspace(0.0, t_end, points)


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=3, help="number of species")
    p.add_argument("--rate", type=float, default=1.0,
                   help="pairwise collision rate")
    p.add_argument("--total", type=int, default=1000,
                   help="population size M")
    p.add_argument("--initial", help="comma-separated species counts "
                   "(overrides --n/--total/--fractions)")
    p.add_argument("--fractions", help="comma-separated initial fractions, "
                   "converted to counts by largest remainder")


def _cmd_simulate(args) -> int:
    spec = _spec_from_args(args)
    grid = _grid_from_args(args, args.t_end)
    ens = run_ensemble(spec, args.replicas, args.t_end, grid, args.base_seed,
                       workers=args.workers, record_events=args.events,
                       max_events=args.max_events)
    out = io.write_ensemble(ens, args.out)
    absorbed = np.count_nonzero(~np.isnan(ens.absorbed))
    print(f"wrote {ens.replicas} trajectories to {out} "
          f"({absorbed} absorbed by t={args.t_end:g})")
    return 0


def _cmd_meanfield(args) -> int:
    u0 = _numbers(args.u0, float, "--u0") if args.u0 is not None else \
        np.full(args.n, 1.0 / args.n)
    grid = _grid_from_args(args, args.t_end)
    path = integrate(u0, args.rate, t_end=args.t_end, step=args.step,
                     grid=grid)
    out = io.write_meanfield(path, args.out)
    audit = path.invariant_audit
    print(f"wrote {len(path.grid)} states to {out} "
          f"(max |sum-1|={np.max(np.abs(audit.sums - audit.sums[0])):.3e}, "
          f"max |prod drift|="
          f"{np.max(np.abs(audit.products - audit.products[0])):.3e})")
    return 0


def _cmd_fluctuation(args) -> int:
    u0 = _numbers(args.u0, float, "--u0") if args.u0 is not None else \
        np.full(args.n, 1.0 / args.n)
    n = len(u0)
    grid = _grid_from_args(args, args.t_end)
    if not len(grid):
        raise DomainError("no covariance states to write")
    path = integrate(u0, args.rate, t_end=args.t_end, step=args.step,
                     grid=grid)
    model = FluctuationModel.from_path(path, args.rate)
    if args.sigma0 is None:
        sigma0 = np.zeros((n, n))
    else:
        vals = _numbers(args.sigma0, float, "--sigma0")
        if len(vals) != n * n:
            raise DomainError(f"initial covariance needs n² = {n * n} values, "
                              f"got {len(vals)}")
        sigma0 = np.array(vals).reshape(n, n)
    # everything is computed before the first file is opened, so a failure
    # leaves no partial output behind
    states = propagate_covariance(model, sigma0)
    sde = run_sde_ensemble(model, None, args.step, grid, args.paths,
                           args.base_seed) if args.paths > 0 else None
    out = Path(args.out)
    io.write_meanfield(path, out / "meanfield.csv")
    io.write_covariances(states, out / "covariance.csv")
    wrote = ["meanfield.csv", "covariance.csv"]
    if sde is not None:
        io.write_gaussian_paths(sde, out / "paths.csv")
        wrote.append("paths.csv")
    print(f"wrote {', '.join(wrote)} to {out}")
    return 0


def _cmd_validate(args) -> int:
    config = ValidationConfig.from_ini(args.config) if args.config \
        else ValidationConfig()
    reports = run_validation(config, workers=args.workers, echo=print)
    io.write_validation_reports(reports, args.out)
    ok = all(r["pass"] for r in reports.values())
    print(f"summary: {'ALL PASS' if ok else 'FAILURES'} (reports in {args.out})")
    return 0 if ok else 1


_WORKERS_HELP = ("accepted for compatibility; changes neither results nor "
                 "speed, since every replica runs in the calling thread")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rpsim",
        description="cyclic prey-predator collision model: exact simulation, "
                    "deterministic limit, Gaussian fluctuations, validation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run an event-driven ensemble")
    _add_model_args(p)
    p.add_argument("--replicas", type=int, default=1)
    p.add_argument("--t-end", type=float, default=1.0)
    p.add_argument("--grid-points", type=int, default=11)
    p.add_argument("--grid", help="explicit comma-separated sample times")
    p.add_argument("--base-seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)
    p.add_argument("--max-events", type=int, default=DEFAULT_MAX_EVENTS)
    events = p.add_mutually_exclusive_group()
    events.add_argument("--events", dest="events", action="store_true",
                        default=None, help="force event-log retention")
    events.add_argument("--no-events", dest="events", action="store_false",
                        help="samples-only mode")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("meanfield", help="integrate the deterministic limit")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--u0", help="comma-separated initial fractions")
    p.add_argument("--rate", type=float, default=1.0)
    p.add_argument("--t-end", type=float, default=10.0)
    p.add_argument("--step", type=float, default=DEFAULT_STEP)
    p.add_argument("--grid-points", type=int, default=101)
    p.add_argument("--grid", help="explicit comma-separated report times")
    p.add_argument("--out", required=True, help="output CSV file")
    p.set_defaults(func=_cmd_meanfield)

    p = sub.add_parser("fluctuation",
                       help="propagate fluctuation covariance (and sample "
                            "linear-noise paths)")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--u0", help="comma-separated initial fractions")
    p.add_argument("--rate", type=float, default=1.0)
    p.add_argument("--t-end", type=float, default=1.0)
    p.add_argument("--step", type=float, default=DEFAULT_STEP)
    p.add_argument("--grid-points", type=int, default=11)
    p.add_argument("--grid", help="explicit comma-separated report times")
    p.add_argument("--sigma0", help="initial covariance, row-major "
                   "comma-separated (default zeros)")
    p.add_argument("--paths", type=int, default=0,
                   help="number of sample paths to draw (0 = none)")
    p.add_argument("--base-seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_fluctuation)

    p = sub.add_parser("validate", help="run the statistical harness")
    p.add_argument("--config", help="INI file; defaults are used when omitted")
    p.add_argument("--out", required=True, help="report directory")
    p.add_argument("--workers", type=int, default=None,
                   help=_WORKERS_HELP + " (default: [run] workers)")
    p.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for count in ("grid_points", "paths", "max_events"):
            if getattr(args, count, 0) < 0:
                raise DomainError(f"--{count.replace('_', '-')} must be "
                                  f"non-negative, got {getattr(args, count)}")
        if hasattr(args, "base_seed"):  # also where no stream is drawn
            check_seed(args.base_seed)
        return args.func(args)
    except RpsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
