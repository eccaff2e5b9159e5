"""Deterministic CSV/JSON serialization.

Every writer produces byte-identical output for equal inputs: floats are
rendered with ``%.17g`` (lossless for IEEE doubles), JSON keys are sorted,
newlines are always ``\\n``.  Readers invert the writers exactly, so a
write/read round trip reproduces an ensemble bit for bit, and they check
each event log against the manifest's event count and final counts.

CSVs are written and read a block of rows at a time: one ``%`` on a repeated
row template formats up to ``_CHUNK`` rows, and :func:`numpy.loadtxt` parses
a file.  Malformed CSV input raises :class:`DomainError` naming the file.
"""
from __future__ import annotations

import itertools
import json
import math
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


def _load(path: Path, fields: list, replicas: int):
    """The rows of CSV ``path`` below its header, one field per column after
    the leading replica column, and the bounds of each replica's rows: those
    of replica ``i`` are ``rows[bounds[i]:bounds[i + 1]]``."""
    rows = np.empty(0, [("replica", np.int64)] + fields)
    with open(path, encoding="utf-8") as f:
        if not f.readline():
            raise DomainError(f"{path}: empty file, expected a header row")
        start = f.tell()
        if f.read(1):  # a header alone is an empty table, not a loadtxt warning
            f.seek(start)
            try:
                rows = np.loadtxt(f, dtype=rows.dtype, delimiter=",",
                                  comments=None, ndmin=1)
            except ValueError as exc:  # its message names the row it can
                raise DomainError(f"{path}: {exc}") from exc
    rep = rows["replica"]
    bounds = np.searchsorted(rep, np.arange(replicas + 1))
    if bounds[0] or bounds[-1] != len(rep) or np.any(rep[1:] < rep[:-1]):
        raise DomainError(
            f"{path}: rows are not grouped by replica 0..{replicas - 1}")
    return rows, bounds


def _check_log(path: Path, i: int, spec: ModelSpec, n_events: int,
               final_counts: list, times: np.ndarray,
               reactions: np.ndarray) -> None:
    """Raise DomainError unless replica ``i``'s event log is in time order
    and matches its manifest entry: ``n_events`` events, and replaying them
    gives ``final_counts`` (reaction j moves one unit from species j+1 to
    species j)."""
    n = spec.n
    if len(reactions) != n_events:
        raise DomainError(f"{path}: replica {i} has {len(reactions)} events, "
                          f"the manifest says {n_events}")
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
    does not replay to its manifest entry.
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

    path = out / "samples.csv"
    rows, bounds = _load(path, [("time", np.float64),
                                ("counts", np.int64, (spec.n,))], replicas)
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

    event_times = event_reactions = offsets = None
    if logged[0]:
        path = out / "events.csv"
        rows, offsets = _load(path, [("time", np.float64),
                                     ("reaction", np.int16)], replicas)
        event_times = rows["time"].copy()
        event_reactions = rows["reaction"].copy()
        for i in range(replicas):
            lo, hi = offsets[i], offsets[i + 1]
            _check_log(path, i, spec, n_events[i], final_counts[i],
                       event_times[lo:hi], event_reactions[lo:hi])
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
