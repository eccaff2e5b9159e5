"""Command-line front end.

Four subcommands mirror the library layers: ``simulate`` (event-driven
ensembles), ``meanfield`` (deterministic limit), ``fluctuation`` (second
moments and sample paths of the Gaussian correction), ``validate`` (the
statistical harness).  All output is deterministic for fixed arguments.
Bad input, or an ``--out`` that the filesystem refuses, prints ``error: …``
and exits 1.
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
from .meanfield import DEFAULT_STEP, MeanFieldPath, integrate
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


def _species(args) -> int:
    """``--n``, 3 when left out, checked here so that the message names
    the flag."""
    n = 3 if args.n is None else args.n
    if n < 3:
        raise DomainError(f"--n must be at least 3, got {n}")
    return n


def _per_species(text: str, cast, flag: str, n: int | None) -> tuple:
    """The list given to ``flag``, one value per species; ``n``, an
    explicit ``--n``, must agree with its length."""
    values = _numbers(text, cast, flag)
    if n is not None and n != len(values):
        raise DomainError(f"{flag} has {len(values)} values but --n is {n}")
    return values


def _spec_from_args(args) -> ModelSpec:
    # rounded counts sum to --total, whatever it is
    if args.initial is not None:
        counts = _per_species(args.initial, int, "--initial", args.n)
    elif args.fractions is not None:
        fractions = _per_species(args.fractions, float, "--fractions",
                                 args.n)
        counts = counts_from_fractions(fractions, args.total)
    else:
        counts = symmetric_counts(_species(args), args.total)
    return ModelSpec(n=len(counts), lam=args.rate, total=sum(counts),
                     initial=counts)


def _grid_from_args(args) -> np.ndarray:
    if args.grid is not None:
        return np.array(_numbers(args.grid, float, "--grid"))
    if not math.isfinite(args.t_end):
        raise DomainError(f"--t-end must be finite for the default grid, "
                          f"got {args.t_end}; give --grid")
    # a zero horizon has one sample time, as --grid 0 gives
    points = args.grid_points if args.t_end > 0 else min(args.grid_points, 1)
    return np.linspace(0.0, args.t_end, points)


_N_HELP = "number of species (default 3); when given with {}, it must " \
    "match their number"


def _add_path_args(p: argparse.ArgumentParser, t_end, grid_points) -> None:
    p.add_argument("--n", type=int, help=_N_HELP.format("--u0"))
    p.add_argument("--u0", help="comma-separated initial fractions")
    p.add_argument("--rate", type=float, default=1.0)
    p.add_argument("--t-end", type=float, default=t_end)
    p.add_argument("--step", type=float, default=DEFAULT_STEP)
    p.add_argument("--grid-points", type=int, default=grid_points)
    p.add_argument("--grid", help="explicit comma-separated report times")


def _path_from_args(args) -> MeanFieldPath:
    if args.u0 is not None:
        u0 = _per_species(args.u0, float, "--u0", args.n)
    else:
        n = _species(args)
        u0 = np.full(n, 1.0 / n)
    return integrate(u0, args.rate, t_end=args.t_end, step=args.step,
                     grid=_grid_from_args(args))


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int,
                   help=_N_HELP.format("--initial or --fractions"))
    p.add_argument("--rate", type=float, default=1.0,
                   help="pairwise collision rate")
    p.add_argument("--total", type=int, default=1000,
                   help="population size M")
    p.add_argument("--initial", help="comma-separated species counts "
                   "(overrides --total/--fractions; an explicit --n must "
                   "match their number)")
    p.add_argument("--fractions", help="comma-separated initial fractions, "
                   "converted to counts by largest remainder")


def _cmd_simulate(args) -> int:
    spec = _spec_from_args(args)
    grid = _grid_from_args(args)
    ens = run_ensemble(spec, args.replicas, args.t_end, grid, args.base_seed,
                       workers=args.workers, record_events=args.events,
                       max_events=args.max_events)
    out = io.write_ensemble(ens, args.out)
    absorbed = np.count_nonzero(~np.isnan(ens.absorbed))
    print(f"wrote {ens.replicas} trajectories to {out} "
          f"({absorbed} absorbed by t={args.t_end:g})")
    return 0


def _cmd_meanfield(args) -> int:
    path = _path_from_args(args)
    out = io.write_meanfield(path, args.out)
    audit = path.invariant_audit
    print(f"wrote {len(path.grid)} states to {out} "
          f"(max |sum-1|={np.max(np.abs(audit.sums - audit.sums[0])):.3e}, "
          f"max |prod drift|="
          f"{np.max(np.abs(audit.products - audit.products[0])):.3e})")
    return 0


def _cmd_fluctuation(args) -> int:
    path = _path_from_args(args)
    n = path.n
    if not len(path.grid):
        raise DomainError("no covariance states to write")
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
    sde = run_sde_ensemble(model, None, path.step, path.grid, args.paths,
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
    _add_path_args(p, t_end=10.0, grid_points=101)
    p.add_argument("--out", required=True, help="output CSV file")
    p.set_defaults(func=_cmd_meanfield)

    p = sub.add_parser("fluctuation",
                       help="propagate fluctuation covariance (and sample "
                            "linear-noise paths)")
    _add_path_args(p, t_end=1.0, grid_points=11)
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
    except (RpsimError, OSError) as exc:   # OSError: say, an --out clash
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
