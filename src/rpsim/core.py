"""Shared domain types, validation, and the deterministic RNG contract.

Everything downstream (the event engine, the deterministic limit, the
fluctuation machinery, the statistical harness) builds on the types in this
module.  The model itself: ``n`` species arranged on a cycle, population size
``total``; a collision between a member of species ``j`` and one of species
``j+1`` (indices mod n) turns the latter into the former, at rate
``lam/total * counts[j] * counts[j+1]`` per unit time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "RpsimError",
    "DomainError",
    "NormalizationError",
    "NumericError",
    "BudgetExceeded",
    "StepError",
    "NotPSD",
    "GridMismatch",
    "InsufficientReplicas",
    "MissingEventLog",
    "ModelSpec",
    "PoissonClock",
    "SimState",
    "JumpEvent",
    "Trajectory",
    "validate_spec",
    "check_rate",
    "check_fractions",
    "rng_stream",
    "counts_from_fractions",
    "symmetric_counts",
    "trajectories_identical",
]


# --------------------------------------------------------------------------
# error taxonomy
# --------------------------------------------------------------------------

class RpsimError(Exception):
    """Base class for every error raised by this package."""


class DomainError(RpsimError):
    """A parameter lies outside its admissible domain."""


class NormalizationError(RpsimError):
    """Counts or fractions do not sum to the required total."""


class NumericError(RpsimError):
    """Floating-point drift exceeded a guard tolerance (indicates a bug)."""


class BudgetExceeded(RpsimError):
    """The event budget was exhausted before the time horizon."""


class StepError(RpsimError):
    """A deterministic integration step left the admissible region."""


class NotPSD(RpsimError):
    """A matrix required to be positive semi-definite is not."""


class GridMismatch(RpsimError):
    """Sample grids that must align do not."""


class InsufficientReplicas(RpsimError):
    """Too few replicas to form the requested statistic."""


class MissingEventLog(RpsimError):
    """The trajectory was run in samples-only mode; no event log retained."""


# --------------------------------------------------------------------------
# model definition
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelSpec:
    """Immutable problem definition.

    Attributes
    ----------
    n : int
        Number of species on the cycle (at least 3).
    lam : float
        Collision rate per unit time (positive).
    total : int
        Conserved population size.
    initial : tuple[int, ...]
        Initial counts per species, summing to ``total``.
    """

    n: int
    lam: float
    total: int
    initial: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "initial", tuple(int(c) for c in self.initial))

    @property
    def fractions(self) -> np.ndarray:
        """Initial counts divided by the total population."""
        return np.asarray(self.initial, dtype=float) / self.total

    def initial_total_rate(self) -> float:
        """Sum of all reaction rates in the initial state."""
        x = self.initial
        return self.lam / self.total * sum(
            x[j] * x[(j + 1) % self.n] for j in range(self.n)
        )


def validate_spec(spec: ModelSpec) -> ModelSpec:
    """Check every ModelSpec invariant; return the spec unchanged if valid.

    Raises
    ------
    DomainError
        For a species count below 3, a non-positive or non-finite rate,
        a non-positive total, a length mismatch, or negative counts.
    NormalizationError
        When the initial counts do not sum to the total.
    """
    if spec.n < 3:
        raise DomainError(f"need at least 3 species, got n={spec.n}")
    check_rate(spec.lam)
    if spec.total < 1:
        raise DomainError(f"population total must be at least 1, got {spec.total}")
    if len(spec.initial) != spec.n:
        raise DomainError(
            f"initial counts have length {len(spec.initial)}, expected n={spec.n}"
        )
    if any(c < 0 for c in spec.initial):
        raise DomainError(f"negative initial count in {spec.initial}")
    if sum(spec.initial) != spec.total:
        raise NormalizationError(
            f"initial counts sum to {sum(spec.initial)}, expected total={spec.total}"
        )
    return spec


def check_rate(lam) -> float:
    """Return the collision rate as a float; it must be positive and finite."""
    if lam is None or not (math.isfinite(lam) and lam > 0):
        raise DomainError(f"collision rate must be positive and finite, got {lam}")
    return float(lam)


def check_fractions(fractions) -> np.ndarray:
    """Return at least 3 finite, non-negative fractions summing to 1 (within
    1e-9) as a fresh float array."""
    f = np.array(fractions, dtype=float)
    if f.ndim != 1 or len(f) < 3:
        raise DomainError("need at least 3 fractions")
    if np.any(f < 0) or not np.all(np.isfinite(f)):
        raise DomainError(f"fractions must be finite and non-negative, got {f}")
    if abs(f.sum() - 1.0) > 1e-9:
        raise NormalizationError(f"fractions sum to {float(f.sum())!r}, expected 1")
    return f


def counts_from_fractions(fractions, total: int) -> tuple[int, ...]:
    """Round non-negative fractions summing to 1 into integer counts summing
    to ``total`` (largest-remainder method; ties go to the lowest index)."""
    f = check_fractions(fractions)
    scaled = f * total
    counts = np.floor(scaled).astype(int)
    short = total - int(counts.sum())
    # hand leftover units to the largest fractional parts, lowest index first
    order = sorted(range(len(f)), key=lambda i: (-(scaled[i] - counts[i]), i))
    for i in order[:short]:
        counts[i] += 1
    return tuple(int(c) for c in counts)


def symmetric_counts(n: int, total: int) -> tuple[int, ...]:
    """Equal-as-possible split of ``total`` over ``n`` species."""
    return counts_from_fractions(np.full(n, 1.0 / n), total)


# --------------------------------------------------------------------------
# random streams
# --------------------------------------------------------------------------

def rng_stream(base_seed: int, replica_index: int) -> np.random.Generator:
    """Deterministic, replica-indexed random stream.

    The same ``(base_seed, replica_index)`` pair always yields an identical
    stream, and distinct indices yield streams with no shared state, so
    ensembles are reproducible regardless of execution order or parallelism.
    """
    return np.random.default_rng(
        np.random.SeedSequence(base_seed, spawn_key=(replica_index,))
    )


# --------------------------------------------------------------------------
# simulator state
# --------------------------------------------------------------------------

@dataclass(slots=True)
class PoissonClock:
    """One reaction's unit-rate clock.

    ``internal_time`` is the accumulated intensity integral for the reaction;
    ``next_threshold`` is the next unit-Poisson arrival beyond it.  The gap
    ``next_threshold - internal_time`` is always positive between events.
    """

    internal_time: float = 0.0
    next_threshold: float = 0.0

    @property
    def gap(self) -> float:
        return self.next_threshold - self.internal_time


@dataclass(slots=True)
class SimState:
    """Mutable per-replica simulator state."""

    counts: list[int]
    time: float
    clocks: list[PoissonClock]
    event_count: list[int]

    @classmethod
    def initial(cls, spec: ModelSpec, rng: np.random.Generator) -> "SimState":
        """Fresh state at time 0 with one exponential threshold per clock.

        Thresholds are drawn in clock order (0, 1, ..., n-1), which fixes the
        stream layout every consumer of ``rng`` relies on.
        """
        clocks = [
            PoissonClock(0.0, float(rng.standard_exponential()))
            for _ in range(spec.n)
        ]
        return cls(
            counts=list(spec.initial),
            time=0.0,
            clocks=clocks,
            event_count=[0] * spec.n,
        )


@dataclass(frozen=True)
class JumpEvent:
    """A single state change: species ``reaction`` converts one individual of
    its cyclic successor."""

    time: float
    reaction: int
    counts_after: tuple[int, ...]


# --------------------------------------------------------------------------
# trajectory
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Trajectory:
    """Event log plus grid-sampled path of one replica.

    Grid samples are right-continuous: the value at grid time ``t`` is the
    state after all events with time <= t.  When the run was made in
    samples-only mode the event arrays are ``None`` and event-dependent
    accessors raise :class:`MissingEventLog`.
    """

    spec: ModelSpec
    seed: int
    grid: np.ndarray                      # sample times, ascending
    samples: np.ndarray                   # (len(grid), n) int64 counts
    event_times: np.ndarray | None        # float64, ascending
    event_reactions: np.ndarray | None    # int16 reaction indices
    absorbed: float | None                # absorption time, if any
    final_counts: tuple[int, ...] = field(default=())
    final_time: float = 0.0

    def __post_init__(self):
        if self.samples.shape != (len(self.grid), self.spec.n):
            raise DomainError("samples shape does not match grid/species count")
        if len(self.grid) and np.any(np.diff(self.grid) < 0):
            raise DomainError("grid must be ascending")
        if len(self.samples) and np.any(self.samples.sum(axis=1) != self.spec.total):
            raise NumericError("a grid sample violates population conservation")
        if self.event_times is not None and len(self.event_times) > 1:
            if np.any(np.diff(self.event_times) < 0):
                raise NumericError("event times must be non-decreasing")

    # -- event-log accessors ------------------------------------------------

    @property
    def has_event_log(self) -> bool:
        return self.event_times is not None

    @property
    def n_events(self) -> int:
        if not self.has_event_log:
            raise MissingEventLog("run was made in samples-only mode")
        return len(self.event_times)

    @property
    def events(self) -> list[JumpEvent]:
        """Materialize the event log as JumpEvent objects (replayed counts)."""
        if not self.has_event_log:
            raise MissingEventLog("run was made in samples-only mode")
        n = self.spec.n
        counts = list(self.spec.initial)
        out = []
        for t, r in zip(self.event_times, self.event_reactions):
            r = int(r)
            counts[r] += 1
            counts[(r + 1) % n] -= 1
            out.append(JumpEvent(float(t), r, tuple(counts)))
        return out

    def _counts_after_each_event(self, k: int) -> np.ndarray:
        """Counts after each of the first ``k`` events, plus the initial row."""
        n = self.spec.n
        counts = np.empty((k + 1, n), dtype=np.int64)
        counts[0] = self.spec.initial
        if k:
            r = self.event_reactions[:k].astype(np.int64)
            delta = np.zeros((k, n), dtype=np.int64)
            delta[np.arange(k), r] = 1
            delta[np.arange(k), (r + 1) % n] -= 1
            counts[1:] = np.asarray(self.spec.initial) + np.cumsum(delta, axis=0)
        return counts

    def jump_counts(self, t: float) -> np.ndarray:
        """Number of firings per reaction up to and including time ``t``."""
        if not self.has_event_log:
            raise MissingEventLog("run was made in samples-only mode")
        k = int(np.searchsorted(self.event_times, t, side="right"))
        return np.bincount(
            self.event_reactions[:k].astype(np.int64), minlength=self.spec.n
        )

    def internal_times(self, t: float) -> np.ndarray:
        """Accumulated intensity integral per reaction at time ``t``.

        Reconstructed from the event log: the integrand is piecewise constant
        between events, equal to ``lam/total * counts[j] * counts[j+1]`` with
        the counts in force on each inter-event interval.  Valid for any
        ``t`` within the simulated horizon.
        """
        if not self.has_event_log:
            raise MissingEventLog("run was made in samples-only mode")
        k = int(np.searchsorted(self.event_times, t, side="right"))
        counts = self._counts_after_each_event(k).astype(float)
        bounds = np.concatenate(([0.0], self.event_times[:k], [t]))
        durations = np.diff(bounds)
        products = counts * np.roll(counts, -1, axis=1)
        return (self.spec.lam / self.spec.total) * (
            durations[:, None] * products
        ).sum(axis=0)

    def counts_at(self, t: float) -> np.ndarray:
        """State after all events with time <= ``t`` (needs the event log)."""
        if not self.has_event_log:
            raise MissingEventLog("run was made in samples-only mode")
        k = int(np.searchsorted(self.event_times, t, side="right"))
        return self._counts_after_each_event(k)[-1]


def trajectories_identical(a: Trajectory, b: Trajectory) -> bool:
    """Exact (bitwise on floats) equality of two trajectories."""
    if a.spec != b.spec or a.seed != b.seed or a.absorbed != b.absorbed:
        return False
    if a.final_counts != b.final_counts or a.final_time != b.final_time:
        return False
    if not (np.array_equal(a.grid, b.grid) and np.array_equal(a.samples, b.samples)):
        return False
    if a.has_event_log != b.has_event_log:
        return False
    if a.has_event_log:
        return np.array_equal(a.event_times, b.event_times) and np.array_equal(
            a.event_reactions, b.event_reactions
        )
    return True
