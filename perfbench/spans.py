"""Span tracing of calls into rpsim's public functions, from outside ``src/``.

rpsim's modules call each other through module globals looked up at call
time (``run_validation`` calls ``run_ensemble`` from ``rpsim.validate``'s
namespace, ``run_ensemble`` calls ``rng_stream`` from ``rpsim.simulate``'s).
The tracer therefore wraps a function by replacing every ``rpsim.*`` module
attribute bound to it, and restores the originals when tracing stops.  A
function that no longer exists is skipped, so its metrics read zero calls.

Each span records its name, start, end, process CPU time, parent and a few
counts taken from the call's arguments and result after the clock stopped.
It also records its overhead: the time its wrapper spent outside the wrapped
call, bookkeeping and counting included.  Spans stay in memory until
:meth:`Tracer.dump`.  Worker threads of an ensemble start with an empty
stack; their spans take as parent the span the main thread has open, which
is the ``run_ensemble`` that started the pool.
"""
from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from pathlib import Path


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _size(path) -> int:
    path = Path(path)
    if path.is_dir():
        return sum(f.stat().st_size for f in path.iterdir() if f.is_file())
    return path.stat().st_size


def _ensemble_rows(ens) -> int:
    trajs = ens.trajectories
    rows = sum(len(t.grid) for t in trajs)
    if all(t.has_event_log for t in trajs):
        rows += sum(len(t.event_times) for t in trajs)
    return rows


def _count_ensemble(result, args, kwargs):
    trajs = result.trajectories
    counts = {
        "replicas": len(trajs),
        "absorbed": sum(t.absorbed is not None for t in trajs),
    }
    if all(t.has_event_log for t in trajs):
        counts["events"] = sum(len(t.event_times) for t in trajs)
    return counts


def _count_integrate(result, args, kwargs):
    return {"rk4_steps": len(result.step_states) - 1}


def _n_steps(horizon: float, step: float) -> int:
    return int(round(horizon / step))


def _count_covariance(result, args, kwargs):
    model = _arg(args, kwargs, 0, "model")
    step = kwargs.get("step", args[2] if len(args) > 2 else None)
    if step is None:
        step = model.path.step
    return {"cov_steps": _n_steps(float(model.path.grid[-1]), step)}


def _count_sde(result, args, kwargs):
    step = _arg(args, kwargs, 2, "step")
    grid = _arg(args, kwargs, 3, "grid")
    return {"path_steps": len(result) * _n_steps(float(grid[-1]), step)}


def _count_read_ensemble(result, args, kwargs):
    return {"rows_read": _ensemble_rows(result)}


def _count_write_rows(rows_of):
    """Counter for a writer whose first argument holds the rows written."""
    def count(result, args, kwargs):
        return {"rows_written": rows_of(args[0]), "bytes_written": _size(result)}
    return count


# (span name, home module, attribute, counter run on (result, args, kwargs))
TARGETS = (
    ("core.rng_stream", "rpsim.core", "rng_stream", None),
    ("simulate.run_ensemble", "rpsim.simulate", "run_ensemble", _count_ensemble),
    ("simulate.run_until", "rpsim.simulate", "run_until", None),
    ("meanfield.integrate", "rpsim.meanfield", "integrate", _count_integrate),
    ("fluctuation.propagate_covariance", "rpsim.fluctuation",
     "propagate_covariance", _count_covariance),
    ("fluctuation.run_sde_ensemble", "rpsim.fluctuation", "run_sde_ensemble",
     _count_sde),
    ("fluctuation.psd_sqrt", "rpsim.fluctuation", "psd_sqrt", None),
    ("validate.run_validation", "rpsim.validate", "run_validation", None),
    ("validate.gillespie_equivalence_test", "rpsim.validate",
     "gillespie_equivalence_test", None),
    ("validate.lln_test", "rpsim.validate", "lln_test", None),
    ("validate.clt_test", "rpsim.validate", "clt_test", None),
    ("validate.martingale_test", "rpsim.validate", "martingale_test", None),
    ("io.write_ensemble", "rpsim.io", "write_ensemble",
     _count_write_rows(_ensemble_rows)),
    ("io.read_ensemble", "rpsim.io", "read_ensemble", _count_read_ensemble),
    ("io.write_meanfield", "rpsim.io", "write_meanfield",
     _count_write_rows(lambda path: len(path.states))),
    ("io.write_covariances", "rpsim.io", "write_covariances",
     _count_write_rows(len)),
    ("io.write_gaussian_paths", "rpsim.io", "write_gaussian_paths",
     _count_write_rows(lambda paths: sum(len(p.grid) for p in paths))),
    ("io.write_validation_reports", "rpsim.io", "write_validation_reports",
     _count_write_rows(lambda reports: 0)),
    ("cli.main", "rpsim.cli", "main", None),
)

# A counter reads attributes of rpsim's return types; if a later version
# changes them, the span keeps its times and loses only its counts.
_COUNT_ERRORS = (AttributeError, IndexError, KeyError, OSError, TypeError,
                 ValueError)


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "cpu", "overhead",
                 "counts")

    def __init__(self, id_, name, parent):
        self.id = id_
        self.name = name
        self.parent = parent
        self.start = self.end = self.cpu = self.overhead = 0.0
        self.counts = {}

    @property
    def wall(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps the :data:`TARGETS` while active; use as a context manager."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._ids = itertools.count(1)

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, counter):
        tracer = self

        def traced(*args, **kwargs):
            entered = time.perf_counter()
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main else None
            span = Span(next(tracer._ids), name, parent)
            stack.append(span.id)
            cpu0 = time.process_time()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.cpu = time.process_time() - cpu0
                stack.pop()
                tracer.spans.append(span)
            if counter is not None:
                try:
                    span.counts = counter(result, args, kwargs)
                except _COUNT_ERRORS:
                    pass
            span.overhead = (span.start - entered
                             + time.perf_counter() - span.end)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "rpsim" or k.startswith("rpsim."))]
        for name, home, attr, counter in TARGETS:
            original = getattr(sys.modules.get(home), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original, counter)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()
        return False

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as f:
            for s in sorted(self.spans, key=lambda s: s.start):
                f.write(json.dumps({
                    "id": s.id, "name": s.name, "parent": s.parent,
                    "start": s.start, "end": s.end, "cpu": s.cpu,
                    "overhead": s.overhead, "counts": s.counts,
                }) + "\n")


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> its wall time minus the part its children cover.

    Children running on several threads overlap, so their union is
    subtracted, not their sum.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    return {
        s.id: s.wall - _covered(
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(s.id, ()) if c.end > s.start and c.start < s.end
        )
        for s in spans
    }


# Check functions of run_validation; a phase runs from the end of the
# previous check to the end of its own, so it includes the ensembles and
# limit computations that feed the check.
_PHASES = {
    "validate.gillespie_equivalence_test": "gillespie",
    "validate.lln_test": "lln",
    "validate.clt_test": "clt",
    "validate.martingale_test": "martingale",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced job whose wall time was ``wall_s``."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    selfs = self_times(spans)

    def calls(name):
        return len(by_name.get(name, ()))

    def wall(name):
        return sum(s.wall for s in by_name.get(name, ()))

    def cpu(name):
        return sum(s.cpu for s in by_name.get(name, ()))

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in by_name.get(name, ()))

    def self_s(name):
        return sum(selfs[s.id] for s in by_name.get(name, ()))

    m: dict[str, float] = {}
    m["core.rng_stream.calls"] = calls("core.rng_stream")
    m["core.rng_stream.wall_s"] = wall("core.rng_stream")

    ens = "simulate.run_ensemble"
    m[f"{ens}.calls"] = calls(ens)
    m[f"{ens}.wall_s"] = wall(ens)
    m[f"{ens}.cpu_s"] = cpu(ens)
    m[f"{ens}.share"] = _ratio(wall(ens), wall_s)
    m["simulate.cpu_util"] = _ratio(cpu(ens), wall(ens))
    m["simulate.run_until.calls"] = calls("simulate.run_until")
    m["simulate.run_until.wall_s"] = wall("simulate.run_until")
    m["simulate.replicas"] = count(ens, "replicas")
    m["simulate.absorbed"] = count(ens, "absorbed")
    logged = [s for s in by_name.get(ens, ()) if "events" in s.counts]
    m["simulate.events"] = sum(s.counts["events"] for s in logged)
    m["simulate.events_per_s"] = _ratio(m["simulate.events"],
                                        sum(s.wall for s in logged))

    m["meanfield.integrate.calls"] = calls("meanfield.integrate")
    m["meanfield.integrate.wall_s"] = wall("meanfield.integrate")
    m["meanfield.rk4_steps"] = count("meanfield.integrate", "rk4_steps")
    m["meanfield.steps_per_s"] = _ratio(m["meanfield.rk4_steps"],
                                        m["meanfield.integrate.wall_s"])

    cov, sde = "fluctuation.propagate_covariance", "fluctuation.run_sde_ensemble"
    m[f"{cov}.wall_s"] = wall(cov)
    m["fluctuation.cov_steps_per_s"] = _ratio(count(cov, "cov_steps"), wall(cov))
    m[f"{sde}.wall_s"] = wall(sde)
    m["fluctuation.path_steps"] = count(sde, "path_steps")
    m["fluctuation.path_steps_per_s"] = _ratio(m["fluctuation.path_steps"],
                                               wall(sde))
    m["fluctuation.psd_sqrt.calls"] = calls("fluctuation.psd_sqrt")
    m["fluctuation.psd_sqrt.wall_s"] = wall("fluctuation.psd_sqrt")

    phase_wall = dict.fromkeys(_PHASES.values(), 0.0)
    for run in by_name.get("validate.run_validation", ()):
        prev_end = run.start
        checks = sorted((s for s in spans if s.parent == run.id),
                        key=lambda s: s.start)
        for s in checks:
            phase = _PHASES.get(s.name)
            if phase is not None:
                phase_wall[phase] += s.end - prev_end
                prev_end = s.end
    for phase, value in phase_wall.items():
        m[f"validate.{phase}.wall_s"] = value
    m["validate.run_validation.self_s"] = self_s("validate.run_validation")

    io_names = [t[0] for t in TARGETS if t[0].startswith("io.")]
    for name in ("io.write_ensemble", "io.read_ensemble", "io.write_gaussian_paths"):
        m[f"{name}.wall_s"] = wall(name)
    m["io.rows_written"] = sum(count(n, "rows_written") for n in io_names)
    m["io.rows_read"] = sum(count(n, "rows_read") for n in io_names)
    m["io.bytes_written"] = sum(count(n, "bytes_written") for n in io_names)
    write_wall = sum(wall(n) for n in io_names if n != "io.read_ensemble")
    m["io.write_rows_per_s"] = _ratio(m["io.rows_written"], write_wall)
    m["io.read_rows_per_s"] = _ratio(m["io.rows_read"], wall("io.read_ensemble"))
    m["io.engine_ratio"] = _ratio(
        wall("io.write_ensemble") + wall("io.read_ensemble"), wall(ens))

    m["cli.main.wall_s"] = wall("cli.main")
    m["cli.self_s"] = self_s("cli.main")
    # summed over threads, so with workers > 1 an upper bound on the wall
    # time the tracer added
    m["tracing_overhead_s"] = sum(s.overhead for s in spans)
    return m
