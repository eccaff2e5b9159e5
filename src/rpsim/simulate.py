"""Exact event-driven simulation of the cyclic collision process.

Each reaction owns a unit-rate clock: an accumulated intensity integral
(``internal_time``) racing toward its next arrival (``next_threshold``).
The next event is the reaction whose clock reaches its threshold first in
wall time, which for reaction ``j`` happens after
``(threshold - internal) / rate_j`` with ``rate_j = lam/M * X_j * X_{j+1}``.
Reactions with a zero rate never fire; when every rate is zero the state is
absorbing and the replica stops.

The construction is exact (no time discretization): inter-event times and
reaction choices have exactly the competing-exponentials law, which the
statistical harness verifies.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import (
    BudgetExceeded,
    DomainError,
    JumpEvent,
    ModelSpec,
    NumericError,
    RpsimError,
    SimState,
    Trajectory,
    rng_stream,
    validate_spec,
)

__all__ = [
    "Absorbed",
    "Ensemble",
    "ReplicaError",
    "next_event",
    "run_until",
    "run_ensemble",
    "DEFAULT_MAX_EVENTS",
]

DEFAULT_MAX_EVENTS = 10**9
# retain the event log by default when the expected event count stays below this
RETENTION_LIMIT = 10**7
# relative tolerance for the clock-overshoot guard
_OVERSHOOT_RTOL = 1e-9
_EXP_BLOCK = 4096


@dataclass(frozen=True)
class Absorbed:
    """Returned by :func:`next_event` when no reaction can ever fire again."""

    time: float


class ReplicaError(RpsimError):
    """Wraps a failure inside one ensemble replica with its index."""

    def __init__(self, index: int, cause: BaseException):
        super().__init__(f"replica {index}: {cause}")
        self.index = index


@dataclass(frozen=True, eq=False)
class Ensemble:
    """A batch of replicas sharing one model spec and one sample grid."""

    spec: ModelSpec
    trajectories: tuple[Trajectory, ...]
    grid: np.ndarray
    base_seed: int

    def __post_init__(self):
        if len(self.trajectories) < 1:
            raise DomainError("an ensemble needs at least one replica")
        for traj in self.trajectories:
            if traj.spec != self.spec:
                raise DomainError("all trajectories must share the ensemble spec")
            if not np.array_equal(traj.grid, self.grid):
                raise DomainError("all trajectories must share the ensemble grid")

    @property
    def replicas(self) -> int:
        return len(self.trajectories)

    def sample_stack(self) -> np.ndarray:
        """All grid samples as one (replicas, grid, n) integer array."""
        return np.stack([t.samples for t in self.trajectories])


class _ExpStream:
    """Buffered Exp(1) draws.

    Block draws from a numpy Generator consume the bit stream exactly like
    repeated scalar draws, so values coming out of this buffer are identical
    to calling ``rng.standard_exponential()`` one value at a time (a property
    the single-step/batched equivalence tests pin down).
    """

    __slots__ = ("_rng", "_buf", "_i")

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._buf = rng.standard_exponential(_EXP_BLOCK)
        self._i = 0

    def __call__(self) -> float:
        i = self._i
        if i == _EXP_BLOCK:
            self._buf = self._rng.standard_exponential(_EXP_BLOCK)
            i = 0
        self._i = i + 1
        return self._buf[i]


def _advance_clock(internal: float, threshold: float, rate: float, dt: float,
                   reaction: int) -> float:
    """Advance one non-fired clock, guarding against threshold overshoot."""
    advanced = internal + rate * dt
    if advanced > threshold:
        if advanced - threshold > _OVERSHOOT_RTOL * max(1.0, threshold):
            raise NumericError(
                f"clock {reaction} overshot its threshold by "
                f"{advanced - threshold:.3e} (internal-time drift)"
            )
        advanced = threshold
    return advanced


def next_event(state: SimState, spec: ModelSpec,
               rng: np.random.Generator) -> JumpEvent | Absorbed:
    """Advance the state by exactly one event (or detect absorption).

    For each reaction the candidate waiting time is the clock gap divided by
    the current rate; zero-rate reactions never fire.  The minimal candidate
    wins (ties break to the lowest index).  All clocks advance over the
    waiting interval using the pre-event counts; the fired clock lands
    exactly on its threshold and draws a fresh exponential for the next one.
    """
    n = spec.n
    lam_over_m = spec.lam / spec.total
    counts = state.counts
    clocks = state.clocks

    best = -1
    best_dt = math.inf
    for j in range(n):
        nx = j + 1 if j + 1 < n else 0
        rate = lam_over_m * counts[j] * counts[nx]
        if rate > 0.0:
            dt = (clocks[j].next_threshold - clocks[j].internal_time) / rate
            if dt < best_dt:
                best_dt = dt
                best = j
    if best < 0:
        return Absorbed(state.time)

    for j in range(n):
        if j == best:
            continue
        nx = j + 1 if j + 1 < n else 0
        rate = lam_over_m * counts[j] * counts[nx]
        if rate > 0.0:
            clocks[j].internal_time = _advance_clock(
                clocks[j].internal_time, clocks[j].next_threshold, rate, best_dt, j
            )
    fired = clocks[best]
    fired.internal_time = fired.next_threshold
    fired.next_threshold = fired.internal_time + rng.standard_exponential()

    nx = best + 1 if best + 1 < n else 0
    counts[best] += 1
    counts[nx] -= 1
    state.event_count[best] += 1
    state.time = state.time + best_dt
    if sum(counts) != spec.total:
        raise AssertionError("population conservation violated")  # unreachable
    return JumpEvent(state.time, best, tuple(counts))


def _expected_events(spec: ModelSpec, t_end: float) -> float:
    """Crude horizon-scale event-count estimate used by the retention default."""
    rate = spec.initial_total_rate()
    if rate == 0.0:
        return 0.0
    return rate * t_end


def _check_run(spec: ModelSpec, t_end: float, grid) -> np.ndarray:
    """Validate a run's spec, horizon and sample grid; return the grid."""
    validate_spec(spec)
    if not (t_end >= 0.0):
        raise DomainError(f"t_end must be non-negative, got {t_end}")
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1:
        raise DomainError("grid must be one-dimensional")
    if len(grid) and (np.any(np.diff(grid) < 0) or grid[0] < 0 or grid[-1] > t_end):
        raise DomainError("grid must be ascending and within [0, t_end]")
    return grid


def run_until(spec: ModelSpec, t_end: float, grid, rng: np.random.Generator,
              *, seed: int = 0, record_events: bool | None = None,
              max_events: int = DEFAULT_MAX_EVENTS) -> Trajectory:
    """Simulate one replica until ``t_end`` (or absorption), sampling on ``grid``.

    Parameters
    ----------
    spec : ModelSpec
        Validated model definition.
    t_end : float
        Time horizon; ``math.inf`` is allowed (absorption studies) and is
        then guarded only by ``max_events``.
    grid : sequence of float
        Ascending sample times within ``[0, t_end]``.  May be empty.
    rng : numpy Generator
        Source of exponentials (see :func:`rpsim.core.rng_stream`).
    seed : int
        Replica label stored on the trajectory (metadata only).
    record_events : bool, optional
        Keep the full event log.  Default: keep it when the expected event
        count (initial total rate times horizon) is below ``10**7``.
    max_events : int
        Hard event budget; exceeding it raises :class:`BudgetExceeded`.

    Grid samples are right-continuous: a grid time equal to an event time
    records the post-event state.  After absorption all remaining grid times
    repeat the absorbing state.
    """
    grid = _check_run(spec, t_end, grid)
    if record_events is None:
        record_events = _expected_events(spec, t_end) < RETENTION_LIMIT

    n = spec.n
    lam_over_m = spec.lam / spec.total
    total = spec.total
    nxt = [(j + 1) % n for j in range(n)]
    draw = _ExpStream(rng)

    counts = list(spec.initial)
    internal = [0.0] * n
    threshold = [draw() for _ in range(n)]
    t = 0.0
    inf = math.inf

    glen = len(grid)
    gi = 0
    samples: list[tuple[int, ...]] = []
    ev_times: list[float] = []
    ev_reactions: list[int] = []
    absorbed: float | None = None
    n_events = 0

    while True:
        best = -1
        best_dt = inf
        for j in range(n):
            rate = lam_over_m * counts[j] * counts[nxt[j]]
            if rate > 0.0:
                dt = (threshold[j] - internal[j]) / rate
                if dt < best_dt:
                    best_dt = dt
                    best = j
        if best < 0:
            absorbed = t
            break
        new_time = t + best_dt
        if new_time > t_end:
            break
        while gi < glen and grid[gi] < new_time:
            samples.append(tuple(counts))
            gi += 1
        for j in range(n):
            if j != best:
                rate = lam_over_m * counts[j] * counts[nxt[j]]
                if rate > 0.0:
                    internal[j] = _advance_clock(
                        internal[j], threshold[j], rate, best_dt, j
                    )
        internal[best] = threshold[best]
        threshold[best] = internal[best] + draw()
        counts[best] += 1
        counts[nxt[best]] -= 1
        t = new_time
        n_events += 1
        if n_events > max_events:
            raise BudgetExceeded(
                f"exceeded {max_events} events at t={t:.6g} (horizon {t_end})"
            )
        if sum(counts) != total:
            raise AssertionError("population conservation violated")  # unreachable
        if record_events:
            ev_times.append(t)
            ev_reactions.append(best)

    while gi < glen:  # horizon reached or absorbed: state no longer changes
        samples.append(tuple(counts))
        gi += 1

    return Trajectory(
        spec=spec,
        seed=seed,
        grid=grid.copy(),
        samples=np.asarray(samples, dtype=np.int64).reshape(glen, n),
        event_times=np.asarray(ev_times, dtype=float) if record_events else None,
        event_reactions=(
            np.asarray(ev_reactions, dtype=np.int16) if record_events else None
        ),
        absorbed=absorbed,
        final_counts=tuple(counts),
        final_time=absorbed if absorbed is not None else t_end,
    )


def run_ensemble(spec: ModelSpec, replicas: int, t_end: float, grid,
                 base_seed: int, *, workers: int = 1,
                 record_events: bool | None = None,
                 max_events: int = DEFAULT_MAX_EVENTS) -> Ensemble:
    """Run ``replicas`` independent trajectories.

    Replica ``i`` always consumes the stream ``rng_stream(base_seed, i)``, so
    the result is identical no matter the execution order or the number of
    workers.  Failures are re-raised as :class:`ReplicaError` carrying the
    replica index.
    """
    if replicas < 1:
        raise DomainError(f"need at least one replica, got {replicas}")
    # checked once here so a bad input is not reported as a replica failure
    grid = _check_run(spec, t_end, grid)

    def one(i: int) -> Trajectory:
        try:
            return run_until(
                spec, t_end, grid, rng_stream(base_seed, i), seed=i,
                record_events=record_events, max_events=max_events,
            )
        except RpsimError as exc:
            raise ReplicaError(i, exc) from exc

    if workers <= 1:
        trajectories = [one(i) for i in range(replicas)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            trajectories = list(pool.map(one, range(replicas)))
    return Ensemble(
        spec=spec,
        trajectories=tuple(trajectories),
        grid=grid,
        base_seed=base_seed,
    )
