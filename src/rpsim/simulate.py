"""Exact event-driven simulation of the cyclic collision process.

The process is a random time change of unit Poisson processes, one per
reaction, and :func:`run_until` simulates it by the modified next reaction
method (Anderson 2007).  Reaction ``j`` fires at rate
``lam/M * X_j * X_{j+1}``; its clock carries an accumulated intensity
(``internal``) racing toward its next unit-Poisson arrival (``threshold``).
The next event is the reaction whose clock reaches its threshold first in
wall time, after ``(threshold - internal) / rate`` (ties go to the lowest
index); zero-rate reactions never fire, and when every rate is zero the state
is absorbing and the replica stops.  All other clocks then advance by
``rate * dt``, and the fired one draws a fresh Exp(1) gap.

Replica ``i`` of an ensemble reads ``rng_stream(base_seed, i)`` in a fixed
order: ``n`` initial thresholds in clock order, then one draw per event.
The construction is exact (no time discretization); the statistical harness
checks the first-event law of this loop against competing exponentials.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import (
    BudgetExceeded,
    DomainError,
    ModelSpec,
    NumericError,
    RpsimError,
    Trajectory,
    rng_stream,
    validate_spec,
)

__all__ = [
    "Ensemble",
    "ReplicaError",
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
    the one-event reference stepper in the tests pins down).
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
                    advanced = internal[j] + rate * best_dt
                    if advanced > threshold[j]:
                        # rounding may carry a clock a hair past its threshold
                        over = advanced - threshold[j]
                        if over > _OVERSHOOT_RTOL * max(1.0, threshold[j]):
                            raise NumericError(
                                f"clock {j} overshot its threshold by "
                                f"{over:.3e} (internal-time drift)"
                            )
                        advanced = threshold[j]
                    internal[j] = advanced
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
