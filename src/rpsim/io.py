"""Deterministic CSV/JSON serialization.

Every writer produces byte-identical output for equal inputs: floats are
rendered with ``%.17g`` (lossless for IEEE doubles), JSON keys are sorted,
newlines are always ``\\n``.  Readers invert the writers exactly, so a
write/read round trip reproduces trajectories bit for bit, and they check
each event log against the manifest's event count and final counts.

CSVs are written and read a block of rows at a time: one ``%`` on a repeated
row template formats up to ``_CHUNK`` rows, and :func:`numpy.loadtxt` parses
a file.  Malformed CSV input raises :class:`DomainError` naming the file.
"""
from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np

from .core import DomainError, ModelSpec, Trajectory
from .meanfield import MeanFieldPath, conserved_quantities
from .simulate import Ensemble

__all__ = [
    "fmt",
    "write_json",
    "write_trajectory",
    "read_trajectory",
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


def _spec_dict(spec: ModelSpec) -> dict:
    return {
        "n": spec.n,
        "lambda": spec.lam,
        "total": spec.total,
        "initial": list(spec.initial),
    }


def _spec_from_dict(d: dict) -> ModelSpec:
    return ModelSpec(n=d["n"], lam=d["lambda"], total=d["total"],
                     initial=tuple(d["initial"]))


def _count_header(n: int, prefix: str = "x") -> list[str]:
    return [f"{prefix}{i + 1}" for i in range(n)]


def _traj_manifest(traj: Trajectory) -> dict:
    return {
        "seed": traj.seed,
        "absorbed": traj.absorbed,
        "final_time": traj.final_time,
        "final_counts": list(traj.final_counts),
        "n_events": traj.n_events if traj.has_event_log else None,
        "has_event_log": traj.has_event_log,
    }


def _write(out_dir, trajs, replica: bool, manifest: dict) -> Path:
    """samples.csv, events.csv when every trajectory keeps its log, and
    manifest.json; with ``replica``, each CSV row leads with its index."""
    out = Path(out_dir)
    head = ["replica"] if replica else []
    n = trajs[0].spec.n
    with _open_w(out / "samples.csv", head + ["time"] + _count_header(n)) as f:
        for i, traj in enumerate(trajs):
            _rows(f, (f"{i}," if replica else "") + "%.17g" + ",%d" * n + "\n",
                  traj.grid, *traj.samples.T)
    if all(traj.has_event_log for traj in trajs):
        with _open_w(out / "events.csv", head + ["time", "reaction"]) as f:
            for i, traj in enumerate(trajs):
                _rows(f, (f"{i}," if replica else "") + "%.17g,%d\n",
                      traj.event_times, traj.event_reactions)
    write_json({"format_version": FORMAT_VERSION,
                "model": _spec_dict(trajs[0].spec), **manifest},
               out / "manifest.json")
    return out


def write_trajectory(traj: Trajectory, out_dir) -> Path:
    """samples.csv + manifest.json (+ events.csv when the log is retained)."""
    return _write(out_dir, [traj], False,
                  {"kind": "trajectory", "trajectory": _traj_manifest(traj)})


def write_ensemble(ens: Ensemble, out_dir) -> Path:
    """samples.csv (replica-major) + manifest.json (+ events.csv)."""
    absorbed = [t.absorbed for t in ens.trajectories]
    return _write(out_dir, ens.trajectories, True, {
        "kind": "ensemble",
        "base_seed": ens.base_seed,
        "replicas": ens.replicas,
        "absorbed_fraction":
            sum(a is not None for a in absorbed) / ens.replicas,
        "trajectories": [_traj_manifest(t) for t in ens.trajectories],
    })


def _load(path: Path, fields: list, replicas: int | None) -> list:
    """The rows of CSV ``path`` below its header, one field per column, cut
    into one block per replica ``0..replicas - 1`` of the leading replica
    column; with no ``replicas``, one block and no replica column."""
    if replicas is not None:
        fields = [("replica", np.int64)] + fields
    rows = np.empty(0, fields)
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
    if replicas is None:
        return [rows]
    rep = rows["replica"]
    bounds = np.searchsorted(rep, np.arange(replicas + 1))
    if bounds[0] or bounds[-1] != len(rep) or np.any(rep[1:] < rep[:-1]):
        raise DomainError(
            f"{path}: rows are not grouped by replica 0..{replicas - 1}")
    return [rows[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


def _check_log(path: Path, i: int, spec: ModelSpec, meta: dict,
               reactions: np.ndarray) -> None:
    """Raise DomainError unless replica ``i``'s event log matches its
    manifest entry: as many events, and replaying them gives its final
    counts (reaction j moves one unit from species j+1 to species j)."""
    n = spec.n
    if len(reactions) != meta["n_events"]:
        raise DomainError(f"{path}: replica {i} has {len(reactions)} events, "
                          f"the manifest says {meta['n_events']}")
    # one pass per reaction over the int16 log, with no full-size int copy
    fired = [int(np.count_nonzero(reactions == j)) for j in range(n)]
    if sum(fired) != len(reactions):
        raise DomainError(f"{path}: replica {i} has a reaction outside "
                          f"0..{n - 1}")
    final = [spec.initial[j] + fired[j] - fired[j - 1] for j in range(n)]
    if final != list(meta["final_counts"]):
        raise DomainError(f"{path}: replica {i} replays to final counts "
                          f"{tuple(final)}, the manifest says "
                          f"{tuple(meta['final_counts'])}")


def _read(out_dir, replica: bool) -> tuple[dict, list[Trajectory]]:
    """The manifest and the trajectories that ``_write`` wrote."""
    out = Path(out_dir)
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    spec = _spec_from_dict(manifest["model"])
    metas = manifest["trajectories"] if replica else [manifest["trajectory"]]
    replicas = len(metas) if replica else None
    samples = _load(out / "samples.csv",
                    [("time", np.float64), ("counts", np.int64, (spec.n,))],
                    replicas)
    events = [None] * len(metas)
    if any(meta["has_event_log"] for meta in metas):
        events = _load(out / "events.csv",
                       [("time", np.float64), ("reaction", np.int16)], replicas)
        for i, (meta, ev) in enumerate(zip(metas, events)):
            if meta["has_event_log"]:
                _check_log(out / "events.csv", i, spec, meta, ev["reaction"])
    return manifest, [
        Trajectory(
            spec=spec,
            seed=meta["seed"],
            grid=rows["time"].copy(),
            samples=rows["counts"].copy(),
            event_times=ev["time"].copy() if meta["has_event_log"] else None,
            event_reactions=(
                ev["reaction"].copy() if meta["has_event_log"] else None),
            absorbed=meta["absorbed"],
            final_counts=tuple(meta["final_counts"]),
            final_time=meta["final_time"],
        )
        for meta, rows, ev in zip(metas, samples, events)
    ]


def read_trajectory(out_dir) -> Trajectory:
    return _read(out_dir, replica=False)[1][0]


def read_ensemble(out_dir) -> Ensemble:
    manifest, trajectories = _read(out_dir, replica=True)
    return Ensemble(spec=trajectories[0].spec,
                    trajectories=tuple(trajectories),
                    grid=trajectories[0].grid,
                    base_seed=manifest["base_seed"])


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
