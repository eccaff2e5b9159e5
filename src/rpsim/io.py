"""Deterministic CSV/JSON serialization.

Every writer produces byte-identical output for equal inputs: floats are
rendered with ``%.17g`` (lossless for IEEE doubles), JSON keys are sorted,
newlines are always ``\\n``.  Readers invert the writers exactly, so a
write/read round trip reproduces an ensemble bit for bit, and they check
each event log against the manifest's event count and final counts.

CSVs are written and read a block of rows at a time: one ``%`` on a repeated
row template formats up to ``_CHUNK`` rows, and one :func:`numpy.loadtxt`
call parses up to ``_CHUNK``.  An event log is read into arrays sized from
the manifest, so reading holds it once plus one block.  Malformed CSV input
raises :class:`DomainError` naming the file and, where it can, the row.
"""
from __future__ import annotations

import itertools
import json
import math
import os
import re
import warnings
from pathlib import Path

import numpy as np

from .core import DomainError, ModelSpec, RpsimError, check_grid, validate_spec
from .meanfield import MeanFieldPath, conserved_quantities
from .simulate import Ensemble

__all__ = [
    "fmt",
    "write_json",
    "write_ensemble",
    "read_ensemble",
    "write_meanfield",
    "write_covariances",
    "write_gaussian_paths",
    "write_validation_reports",
]

FORMAT_VERSION = 1


def fmt(x: float) -> str:
    """Shortest-guaranteed-lossless rendering of a double."""
    return "%.17g" % float(x)


# rows formatted by one ``%`` operation at most; bounds a writer's memory
_CHUNK = 65536


def _rows(f, template: str, *columns) -> None:
    """Write ``template % row`` for each row of the equal-length ``columns``.

    The cells go through ``.tolist()``, as Python floats and ints, so
    ``%.17g`` and ``%d`` render them exactly as ``fmt`` and ``str`` do.
    """
    for lo in range(0, len(columns[0]), _CHUNK):
        block = [np.asarray(c[lo:lo + _CHUNK]).tolist() for c in columns]
        cells = tuple(itertools.chain.from_iterable(zip(*block)))
        f.write((template * len(block[0])) % cells)


def _open_w(path: Path, header: list[str] | None = None):
    """Open ``path`` for writing (making its directory), a CSV header first."""
    path.parent.mkdir(parents=True, exist_ok=True)
    f = open(path, "w", encoding="utf-8", newline="\n")
    if header:
        f.write(",".join(header) + "\n")
    return f


def write_json(obj, path) -> None:
    with _open_w(Path(path)) as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def _count_header(n: int, prefix: str = "x") -> list[str]:
    return [f"{prefix}{i + 1}" for i in range(n)]


def write_ensemble(ens: Ensemble, out_dir) -> Path:
    """samples.csv and, when the ensemble keeps its event log, events.csv,
    both replica-major with each row led by its replica index; then
    manifest.json."""
    out = Path(out_dir)
    n, off = ens.spec.n, ens.event_offsets
    with _open_w(out / "samples.csv",
                 ["replica", "time"] + _count_header(n)) as f:
        for i in range(ens.replicas):
            _rows(f, f"{i},%.17g" + ",%d" * n + "\n", ens.grid,
                  *ens.samples[i].T)
    if off is not None:
        with _open_w(out / "events.csv", ["replica", "time", "reaction"]) as f:
            for i in range(ens.replicas):
                _rows(f, f"{i},%.17g,%d\n", ens.event_times[off[i]:off[i + 1]],
                      ens.event_reactions[off[i]:off[i + 1]])
    absorbed = [None if math.isnan(a) else a for a in ens.absorbed.tolist()]
    n_events = [None] * ens.replicas if off is None else np.diff(off).tolist()
    write_json({
        "format_version": FORMAT_VERSION,
        "model": ens.spec.to_dict(),
        "kind": "ensemble",
        "base_seed": ens.base_seed,
        "replicas": ens.replicas,
        "absorbed_fraction":
            sum(a is not None for a in absorbed) / ens.replicas,
        "trajectories": [
            {"seed": i, "absorbed": a, "final_time": final_time,
             "final_counts": final, "n_events": k,
             "has_event_log": off is not None}
            for i, (a, final_time, final, k) in enumerate(zip(
                absorbed, ens.final_time.tolist(), ens.final_counts.tolist(),
                n_events))],
    }, out / "manifest.json")
    return out


def _open_r(path: Path):
    """Open CSV ``path`` for reading, past its header row."""
    f = open(path, encoding="utf-8")
    if not f.readline():
        f.close()
        raise DomainError(f"{path}: empty file, expected a header row")
    return f


def _blocks(f, path: Path, fields: list):
    """The rows of CSV file ``f`` (``path``) after its header, up to
    ``_CHUNK`` at a time: ``(lo, rows)`` per block, ``rows`` being the
    file's rows ``lo..`` parsed as a leading replica column and then one
    field per column."""
    dtype = [("replica", np.int64)] + fields
    lo = 0
    while True:
        # loadtxt warns on a block with no rows, and skips empty lines
        line = f.readline()
        while line == "\n":
            line = f.readline()
        if not line:
            return
        try:
            with warnings.catch_warnings():
                # an empty line inside a block is skipped, as in a whole
                # file, though with max_rows numpy warns about it
                warnings.filterwarnings("ignore", "Input line .* no data",
                                        UserWarning)
                rows = np.loadtxt(itertools.chain((line,), f), dtype=dtype,
                                  delimiter=",", comments=None, ndmin=1,
                                  max_rows=_CHUNK)
        except ValueError as exc:
            # its message ends by naming the row it can, counted within the
            # block; name the row of the file instead
            message = re.sub(r"(.*at row )(\d+)",
                             lambda m: f"{m[1]}{int(m[2]) + lo}", str(exc),
                             count=1, flags=re.DOTALL)
            raise DomainError(f"{path}: {message}") from exc
        yield lo, rows
        lo += len(rows)


def _ungrouped(path: Path, replicas: int) -> DomainError:
    return DomainError(
        f"{path}: rows are not grouped by replica 0..{replicas - 1}")


def _load_samples(path: Path, spec: ModelSpec, replicas: int):
    """The shared grid and the ``(replicas, G, n)`` samples of CSV
    ``path``, which must give every replica the same ascending grid and
    conserve the population in every sample."""
    fields = [("time", np.float64), ("counts", np.int64, (spec.n,))]
    with _open_r(path) as f:
        parts = [rows for _, rows in _blocks(f, path, fields)]
    rows = (np.concatenate(parts) if parts
            else np.empty(0, [("replica", np.int64)] + fields))
    rep = rows["replica"]
    bounds = np.searchsorted(rep, np.arange(replicas + 1))
    if bounds[0] or bounds[-1] != len(rep) or np.any(rep[1:] < rep[:-1]):
        raise _ungrouped(path, replicas)
    size = bounds[1]
    if np.any(np.diff(bounds) != size):
        raise DomainError(f"{path}: replicas do not share one grid")
    times = rows["time"].reshape(replicas, size)
    try:
        grid = check_grid(times[0])
    except DomainError as exc:
        raise DomainError(f"{path}: {exc}") from exc
    if np.any(times != grid):
        raise DomainError(f"{path}: replicas do not share one grid")
    samples = np.ascontiguousarray(rows["counts"]).reshape(replicas, size,
                                                           spec.n)
    if np.any(samples.sum(axis=2) != spec.total):
        raise DomainError(f"{path}: a sample breaks population conservation")
    return grid, samples


def _load_events(path: Path, spec: ModelSpec, n_events: list,
                 final_counts: list):
    """The flat event times, reactions and replica offsets of CSV ``path``,
    checked against the manifest's ``n_events`` and ``final_counts``.

    The log is parsed a block of rows at a time into arrays sized from the
    manifest; rows past its total are counted, not kept.
    """
    if not all(type(k) is int and k >= 0 for k in n_events):
        raise DomainError(f"{path}: the manifest's n_events must be "
                          "non-negative integers")
    replicas, total = len(n_events), sum(n_events)
    with _open_r(path) as f:
        # the shortest row, "0,0,0\n", has 6 bytes
        if total > os.fstat(f.fileno()).st_size // 6:
            raise DomainError(f"{path}: the manifest counts {total} events, "
                              "more than the file can hold")
        times = np.empty(total)
        reactions = np.empty(total, dtype=np.int16)
        counts = np.zeros(replicas, dtype=np.int64)
        last = 0
        for lo, rows in _blocks(f, path, [("time", np.float64),
                                          ("reaction", np.int16)]):
            rep = rows["replica"]
            if (rep[0] < last or rep[-1] >= replicas
                    or np.any(rep[1:] < rep[:-1])):
                raise _ungrouped(path, replicas)
            last = rep[-1]
            counts += np.bincount(rep, minlength=replicas)
            kept = rows[:max(0, total - lo)]
            times[lo:lo + len(kept)] = kept["time"]
            reactions[lo:lo + len(kept)] = kept["reaction"]
    offsets = np.concatenate(([0], np.cumsum(counts)))
    for i in range(replicas):
        # every replica before the first miscounted one is where the
        # manifest puts it
        if counts[i] != n_events[i]:
            raise DomainError(f"{path}: replica {i} has {counts[i]} events, "
                              f"the manifest says {n_events[i]}")
        lo, hi = offsets[i], offsets[i + 1]
        _check_log(path, i, spec, final_counts[i], times[lo:hi],
                   reactions[lo:hi])
    return times, reactions, offsets


def _check_log(path: Path, i: int, spec: ModelSpec, final_counts: list,
               times: np.ndarray, reactions: np.ndarray) -> None:
    """Raise DomainError unless replica ``i``'s event log is in time order
    and replaying it gives ``final_counts`` (reaction j moves one unit from
    species j+1 to species j)."""
    n = spec.n
    if not np.all(np.diff(times) >= 0):
        raise DomainError(f"{path}: replica {i} has event times out of order")
    # one pass per reaction over the int16 log, with no full-size int copy
    fired = [int(np.count_nonzero(reactions == j)) for j in range(n)]
    if sum(fired) != len(reactions):
        raise DomainError(f"{path}: replica {i} has a reaction outside "
                          f"0..{n - 1}")
    final = [spec.initial[j] + fired[j] - fired[j - 1] for j in range(n)]
    if final != list(final_counts):
        raise DomainError(f"{path}: replica {i} replays to final counts "
                          f"{tuple(final)}, the manifest says "
                          f"{tuple(final_counts)}")


def read_ensemble(out_dir) -> Ensemble:
    """The ensemble that :func:`write_ensemble` wrote, bit for bit.

    Raises :class:`DomainError` for a manifest of another kind, one that
    lacks a key, whose model fails :func:`~rpsim.core.validate_spec`, or
    whose replicas are not seeds ``0..R-1`` or mix logged and unlogged
    runs; for replicas that do not share one ascending grid, or a sample
    that breaks conservation; and for an event log that is out of order or
    does not replay to its manifest entry, or whose manifest event counts
    are not non-negative integers or add up to more rows than
    ``events.csv`` can hold (checked before anything is sized from them).
    """
    out = Path(out_dir)
    path = out / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    if manifest.get("kind") != "ensemble":
        raise DomainError(f"{path}: kind is {manifest.get('kind')!r}, "
                          "expected 'ensemble'")
    try:
        spec = ModelSpec.from_dict(manifest["model"])
        base_seed = manifest["base_seed"]
        metas = manifest["trajectories"]
        seeds, logged, n_events, final_counts, absorbed, final_time = (
            [meta[key] for meta in metas]
            for key in ("seed", "has_event_log", "n_events", "final_counts",
                        "absorbed", "final_time"))
    except KeyError as exc:
        raise DomainError(f"{path}: missing key {exc}") from None
    try:
        validate_spec(spec)
    except RpsimError as exc:
        raise DomainError(f"{path}: model: {exc}") from exc
    replicas = len(metas)
    if not replicas or seeds != list(range(replicas)):
        raise DomainError(f"{path}: replica seeds are not 0..R-1, R >= 1")
    if len(set(logged)) > 1:
        raise DomainError(f"{path}: replicas mix kept and dropped event logs")

    grid, samples = _load_samples(out / "samples.csv", spec, replicas)
    event_times = event_reactions = offsets = None
    if logged[0]:
        event_times, event_reactions, offsets = _load_events(
            out / "events.csv", spec, n_events, final_counts)
    return Ensemble(
        spec=spec,
        grid=grid,
        base_seed=base_seed,
        samples=samples,
        final_counts=np.array(final_counts, dtype=np.int64),
        absorbed=np.array(absorbed, dtype=float),
        final_time=np.array(final_time, dtype=float),
        event_times=event_times,
        event_reactions=event_reactions,
        event_offsets=offsets,
    )


def write_meanfield(path: MeanFieldPath, out_path) -> Path:
    """time,u1..un,sum,product — one row per reported grid label."""
    out, n, m = Path(out_path), path.n, len(path.states)
    header = ["time"] + _count_header(n, "u") + ["sum", "product"]
    with _open_w(out, header) as f:
        u = np.reshape([st.u for st in path.states], (m, n))
        conserved = np.reshape(
            [conserved_quantities(st.u) for st in path.states], (m, 2))
        _rows(f, "%.17g" + ",%.17g" * (n + 2) + "\n",
              [st.time for st in path.states], *u.T, *conserved.T)
    return out


def write_covariances(states, out_path) -> Path:
    """time,s11,s12,...,snn — covariance entries in row-major order."""
    out, states = Path(out_path), list(states)
    if not states:
        raise DomainError("no covariance states to write")
    n = states[0].sigma.shape[0]
    header = ["time"] + [f"s{j + 1}{k + 1}" for j in range(n) for k in range(n)]
    with _open_w(out, header) as f:
        sigma = np.reshape([st.sigma for st in states], (len(states), n * n))
        _rows(f, "%.17g" + ",%.17g" * (n * n) + "\n",
              [st.time for st in states], *sigma.T)
    return out


def write_gaussian_paths(paths, out_path) -> Path:
    """replica,time,v1..vn for a collection of fluctuation paths."""
    out, paths = Path(out_path), list(paths)
    if not paths:
        raise DomainError("no paths to write")
    n = paths[0].values.shape[1]
    with _open_w(out, ["replica", "time"] + _count_header(n, "v")) as f:
        for i, p in enumerate(paths):
            _rows(f, f"{i},%.17g" + ",%.17g" * n + "\n", p.grid, *p.values.T)
    return out


def write_validation_reports(reports: dict, out_dir) -> Path:
    """One JSON per check plus summary.json with the pass booleans."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = {}
    for name, report in reports.items():
        write_json(report.to_dict(), out / f"{name}.json")
        summary[name] = bool(report.passed)
    summary["all"] = all(summary.values())
    write_json(summary, out / "summary.json")
    return out
