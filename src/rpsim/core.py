"""Shared domain types, validation, and the deterministic RNG contract.

Everything downstream (the event engine, the deterministic limit, the
fluctuation machinery, the statistical harness) builds on the types in this
module.  The model itself: ``n`` species arranged on a cycle, population size
``total``; a collision between a member of species ``j`` and one of species
``j+1`` (indices mod n) turns the latter into the former, at rate
``lam/total * counts[j] * counts[j+1]`` per unit time.
"""
from __future__ import annotations

import functools
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
    "Trajectory",
    "validate_spec",
    "check_rate",
    "check_fractions",
    "check_grid",
    "check_seed",
    "rng_stream",
    "rng_streams",
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

# event logs store reaction indices as int16
MAX_SPECIES = 2**15 - 1


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

    def to_dict(self) -> dict:
        """The JSON form that manifests and reports record."""
        return {"n": self.n, "lambda": self.lam, "total": self.total,
                "initial": list(self.initial)}

    @classmethod
    def from_dict(cls, d: dict) -> ModelSpec:
        """Inverse of :meth:`to_dict`; a missing key raises ``KeyError``."""
        return cls(n=d["n"], lam=d["lambda"], total=d["total"],
                   initial=tuple(d["initial"]))

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
        For a species count below 3 or above ``MAX_SPECIES``, a
        non-positive or non-finite rate, a non-positive total, a length
        mismatch, or negative counts.
    NormalizationError
        When the initial counts do not sum to the total.
    """
    if spec.n < 3:
        raise DomainError(f"need at least 3 species, got n={spec.n}")
    if spec.n > MAX_SPECIES:
        raise DomainError(f"at most {MAX_SPECIES} species fit the int16 "
                          f"reaction log, got n={spec.n}")
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


def check_grid(grid) -> np.ndarray:
    """Return sample times as a fresh 1-D float array; they must be finite
    and non-decreasing.  Each layer adds its own rules on top."""
    g = np.array(grid, dtype=float)
    if g.ndim != 1:
        raise DomainError("grid must be one-dimensional")
    if not np.all(np.isfinite(g)):
        raise DomainError(
            f"grid times must be finite, got {g[~np.isfinite(g)][0]}")
    if np.any(np.diff(g) < 0):
        raise DomainError("grid must be ascending")
    return g


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

def check_seed(value, name: str = "base seed") -> int:
    """Return a seed or stream index as an int; it must be a non-negative
    Python or numpy integer (not a bool)."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) \
            and value >= 0:
        return int(value)
    raise DomainError(f"{name} must be a non-negative integer, got {value!r}")


# numpy's SeedSequence (numpy/random/bit_generator.pyx): its pool size and
# hash constants, which do not depend on the data
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M32 = 0xFFFFFFFF


def _words(x):
    """The 32-bit words, low first, that SeedSequence splits the
    non-negative integer ``x`` into (one for 0)."""
    return [x >> 32 * m & _M32
            for m in range(max(1, -(-x.bit_length() // 32)))]


# The helpers below take a word as a Python int or as an integer array of
# words, one per stream; the masks keep both at 32 bits.
def _hasher(const: int, mult: int):
    """SeedSequence's ``hashmix``, each call advancing its running constant."""
    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16
    return hashmix


def _mix(x, y):
    """SeedSequence's ``mix`` of two words."""
    r = ((_MIX_L * x & _M32) - (_MIX_R * y & _M32)) & _M32
    return r ^ r >> 16


@functools.lru_cache(maxsize=16)
def _base_pool(base_seed: int) -> tuple:
    """SeedSequence's pool once ``mix_entropy`` has mixed in the words of
    ``base_seed``, zero-padded to the pool size, and ``hashmix``'s running
    constant by then: the part of every stream's hashing that the base
    seed alone decides."""
    entropy = _words(base_seed)
    entropy += [0] * (_POOL - len(entropy))
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # hashmix has run 4 times per entropy word
    return tuple(pool), _INIT_A * pow(_MULT_A, 4 * len(entropy), 1 << 32) & _M32


def _state_words(base_seed: int, words: list) -> list:
    """SeedSequence's ``mix_entropy`` then ``generate_state(8, uint32)``
    for an entropy of ``base_seed``'s words, zero-padded to the pool size,
    then ``words``."""
    pool, const = _base_pool(base_seed)
    pool = list(pool)
    hashmix = _hasher(const, _MULT_A)
    for word in words:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hasher(_INIT_B, _MULT_B)
    return [hashmix(pool[k % _POOL]) for k in range(8)]


class _StateWords:
    """The four words a PCG64 is seeded with, computed in advance: a
    ``numpy.random.bit_generator.ISeedSequence``, registered as one on first
    use so that importing rpsim does not import ``numpy.random``."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if (n_words, dtype) != (4, np.uint64):
            raise DomainError("a precomputed stream seed holds only "
                              "generate_state(4, numpy.uint64)")
        return self.words


def rng_streams(base_seed: int, first: int,
                count: int) -> list[np.random.Generator]:
    """Streams ``first`` to ``first + count - 1`` of ``base_seed``.

    Stream ``i`` equals, state for state,
    ``default_rng(SeedSequence(base_seed, spawn_key=(i,)))``: this runs
    SeedSequence's steps for every stream at once, on arrays of words.  The
    assembled entropy is the base seed's words, zero-padded to the pool
    size, then those of ``i``, so the hashing up to the first word of ``i``
    runs on Python ints, once per base seed: the last few base seeds' pools
    are cached.  Each generator's
    ``bit_generator.seed_seq`` is a minimal seed sequence holding the four
    words its PCG64 was seeded with.  A seed, index or count that is not a
    non-negative integer raises :class:`DomainError`.
    """
    base_seed = check_seed(base_seed)
    # a no-op after the first call
    np.random.bit_generator.ISeedSequence.register(_StateWords)
    first = check_seed(first, "stream index")
    end = first + check_seed(count, "stream count")
    words = np.empty((end - first, 4), dtype=np.uint64)
    lo = first
    while lo < end:     # the indices with as many words as lo
        k = len(_words(lo))
        hi = min(end, 1 << 32 * k)
        # a single stream hashes faster on Python ints
        index = lo if hi - lo == 1 else np.arange(
            lo, hi, dtype=np.uint64 if hi <= 2**64 else object)
        state = _state_words(base_seed,
                             [index >> 32 * m & _M32 for m in range(k)])
        rows = words[lo - first:hi - first]
        for m in range(4):  # little-endian pairs, as SeedSequence reads them
            rows[:, m] = state[2 * m] | state[2 * m + 1] << 32
        lo = hi
    return [np.random.Generator(np.random.PCG64(_StateWords(w)))
            for w in words]


def rng_stream(base_seed: int, replica_index: int) -> np.random.Generator:
    """Deterministic, replica-indexed random stream: stream
    ``replica_index`` of :func:`rng_streams`.

    The same ``(base_seed, replica_index)`` pair always yields an identical
    stream, and distinct indices yield streams with no shared state, so
    ensembles are reproducible regardless of execution order or parallelism.
    """
    return rng_streams(base_seed, replica_index, 1)[0]


# --------------------------------------------------------------------------
# trajectory
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Trajectory:
    """Event log plus grid-sampled path of one replica.

    Grid samples are right-continuous: the value at grid time ``t`` is the
    state after all events with time <= t.  When the run was made in
    samples-only mode the event arrays are ``None`` and ``n_events`` raises
    :class:`MissingEventLog`.  Replays of the event log are ensemble
    methods (:meth:`rpsim.simulate.Ensemble.jump_counts`).
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
