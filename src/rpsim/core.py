"""Shared domain types, validation, the deterministic RNG contract, and the
builder of the loops compiled per species count.

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
from dataclasses import dataclass

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
    "check_rate",
    "check_real",
    "check_fractions",
    "check_grid",
    "check_seed",
    "check_species",
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

# the loops compiled per species count build in about 0.15 s at this size;
# every reaction index fits the int16 event log
MAX_SPECIES = 1024
# both engines hold counts in float64, exact up to here
MAX_TOTAL = 2**53
# random streams held at once at most: a lockstep chunk, a block of SDE paths
STREAM_BLOCK = 2048


@dataclass(frozen=True)
class ModelSpec:
    """Immutable problem definition, valid once it exists: the constructor
    raises :class:`DomainError` for a field that breaks a rule below
    (:class:`NormalizationError` for the sum).  ``n``, ``total`` and the
    counts are Python or numpy integers, not bools, stored as Python ints.

    Attributes
    ----------
    n : int
        Number of species on the cycle, 3 to ``MAX_SPECIES``.
    lam : float
        Collision rate per unit time (see :func:`check_rate`), with
        ``lam/total`` above 0 and the largest reachable reaction rate,
        ``lam/total * floor(total/2) * ceil(total/2)``, finite.
    total : int
        Conserved population size, 1 to ``MAX_TOTAL`` (2**53).
    initial : tuple[int, ...]
        ``n`` non-negative counts per species, summing to ``total``.
    """

    n: int
    lam: float
    total: int
    initial: tuple[int, ...]

    def __post_init__(self):
        n, total = check_species(self.n), _check_total(self.total)
        lam = check_rate(self.lam)
        if total > MAX_TOTAL:
            raise _above_max_total(total)
        _check_rates(lam, total)
        counts = tuple(self.initial) if np.iterable(self.initial) else (None,)
        if not all(map(_is_integer, counts)):
            raise DomainError(
                f"initial counts must be integers, got {self.initial!r}")
        initial = tuple(map(int, counts))
        if len(initial) != n:
            raise DomainError(
                f"initial counts have length {len(initial)}, expected n={n}")
        if any(c < 0 for c in initial):
            raise DomainError(f"negative initial count in {initial}")
        if sum(initial) != total:
            raise NormalizationError(
                f"initial counts sum to {sum(initial)}, expected total={total}")
        for name, value in zip(("n", "lam", "total", "initial"),
                               (n, lam, total, initial)):
            object.__setattr__(self, name, value)

    def to_dict(self) -> dict:
        """The JSON form that manifests and reports record."""
        return {"n": self.n, "lambda": self.lam, "total": self.total,
                "initial": list(self.initial)}

    @classmethod
    def from_dict(cls, d: dict) -> ModelSpec:
        """Inverse of :meth:`to_dict`; a missing key raises ``KeyError``, a
        ``d`` that is not a dict :class:`DomainError`."""
        if not isinstance(d, dict):
            raise DomainError(f"expected an object, got {d!r}")
        return cls(n=d["n"], lam=d["lambda"], total=d["total"],
                   initial=d["initial"])

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


def _above_max_total(total) -> DomainError:
    return DomainError(f"population total must be at most 2**53 = "
                       f"{MAX_TOTAL}, where float64 counts stop being exact, "
                       f"got {total}")


def _check_rates(lam: float, total: int) -> None:
    """Refuse a rate whose reaction rates leave the double range: ``lam/M``
    underflowing to 0, or the largest reachable one, ``lam/M * floor(M/2) *
    ceil(M/2)``, computed in either order as the engines compute it, not
    finite."""
    lom, half = lam / total, total // 2
    if lom == 0.0:
        raise DomainError(f"collision rate {lam} over a total of {total} "
                          "underflows lambda/M to 0")
    if not math.isfinite(max(lom * half * (total - half),
                             lom * (total - half) * half)):
        raise DomainError(f"collision rate {lam} over a total of {total} "
                          "takes the largest reaction rate, lambda/M * "
                          "floor(M/2) * ceil(M/2), past the double range")


def _is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer (not a bool)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_total(total) -> int:
    """Return a population total, an integer (not a bool) of at least 1, as
    a Python int; only :class:`ModelSpec` caps it at ``MAX_TOTAL``."""
    if not _is_integer(total):
        raise DomainError(
            f"population total must be an integer, got {total!r}")
    if total < 1:
        raise DomainError(f"population total must be at least 1, got {total}")
    return int(total)


def _named(key: str, check, *args, **kw):
    """``check(*args, **kw)``, whose error, if it raises one, names the
    setting ``key`` (an INI key or a flag) first and keeps its type."""
    try:
        return check(*args, **kw)
    except RpsimError as exc:
        raise type(exc)(f"{key}: {exc}") from None


def check_species(n) -> int:
    """Return the species count as a Python int; it must be a Python or
    numpy integer (not a bool) from 3 to ``MAX_SPECIES``.  Callers check
    it before they build anything of size ``n``."""
    if not _is_integer(n):
        raise DomainError(f"species count must be an integer, got {n!r}")
    if n < 3:
        raise DomainError(f"need at least 3 species, got n={n}")
    if n > MAX_SPECIES:
        raise DomainError(f"at most {MAX_SPECIES} species, got n={n}")
    return int(n)


def check_real(value, what: str) -> float:
    """Return ``value`` as a Python float; it must be a Python or numpy
    integer or float (not a bool), or :class:`DomainError` names ``what``."""
    if not (_is_integer(value) or isinstance(value, (float, np.floating))):
        raise DomainError(f"{what} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:       # an integer past the largest double
        return math.inf


def check_rate(lam) -> float:
    """Return the collision rate as a Python float; it must be a real
    number (see :func:`check_real`), positive and finite."""
    rate = check_real(lam, "collision rate")
    if not (math.isfinite(rate) and rate > 0):
        raise DomainError(f"collision rate must be positive and finite, got {lam}")
    return rate


def float_array(value, what: str) -> np.ndarray:
    """A fresh float array of ``value``; one that is not numeric raises
    :class:`DomainError` naming ``what``, not numpy's bare ``ValueError``."""
    try:
        return np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{what} must be numeric: {exc}") from None


def check_fractions(fractions) -> np.ndarray:
    """Return at least 3 finite, non-negative fractions summing to 1 (within
    1e-9) as a fresh float array."""
    f = float_array(fractions, "fractions")
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
    g = float_array(grid, "grid")
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
    to ``total`` (largest-remainder method; ties go to the lowest index).

    The floors of the float products may fall short of ``total`` by more
    than ``n`` units, or overshoot it (products rounded up, or fractions
    summing a little above 1).  Leftover units then go round the
    largest-remainder order, and a surplus comes back from the largest
    count (the lowest-indexed one), which holds at least ``1/n`` of the
    floors and so more than any surplus.  A ``total`` past the double
    range, which the products overflow, raises the :class:`DomainError`
    that :class:`ModelSpec` raises for it, as does one below 1 or not an
    integer, once the fractions pass.
    """
    f = check_fractions(fractions)
    total = _check_total(total)
    try:
        scaled = f * total
        counts = [math.floor(s) for s in scaled.tolist()]
    except OverflowError:
        raise _above_max_total(total) from None
    short = total - sum(counts)
    if short < 0:
        counts[counts.index(max(counts))] += short
        return tuple(counts)
    # hand leftover units to the largest fractional parts, lowest index first
    order = sorted(range(len(f)), key=lambda i: (-(scaled[i] - counts[i]), i))
    every, rest = divmod(short, len(f))
    for rank, i in enumerate(order):
        counts[i] += every + (rank < rest)
    return tuple(counts)


def symmetric_counts(n: int, total: int) -> tuple[int, ...]:
    """Equal-as-possible split of ``total`` over ``n`` species."""
    return counts_from_fractions(np.full(n, 1.0 / n), total)


# --------------------------------------------------------------------------
# random streams
# --------------------------------------------------------------------------

def check_seed(value, name: str = "base seed") -> int:
    """Return a seed, stream index or count as a Python int; it must be a
    non-negative Python or numpy integer (not a bool)."""
    if _is_integer(value) and value >= 0:
        return int(value)
    raise DomainError(f"{name} must be a non-negative integer, got {value!r}")


# --------------------------------------------------------------------------
# loops generated per species count
# --------------------------------------------------------------------------

def per_species(template: str, n: int, sep: str = "\n") -> str:
    """``template`` once per species of ``n``, joined by ``sep``: ``{j}`` is
    the species, ``{k}`` the next one and ``{m}`` the previous one on the
    cycle."""
    return sep.join(template.format(j=j, k=(j + 1) % n, m=(j - 1) % n)
                    for j in range(n))


def compile_loop(source: str, label: str, **names):
    """Compile ``source``, which defines a function ``loop``, with ``names``
    as its globals, and return that function.  Callers cache the result per
    species count, so each count is compiled on first use only."""
    namespace = dict(names)
    exec(compile(source, label, "exec"), namespace)
    return namespace["loop"]


# numpy's SeedSequence (numpy/random/bit_generator.pyx): its pool size and
# hash constants, which do not depend on the data
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M32 = 0xFFFFFFFF


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
    """``SeedSequence(base_seed)``'s pool, as Python ints, and ``hashmix``'s
    running constant once it has mixed in the base seed: the part of every
    stream's hashing that the base seed alone decides.  With a spawn key
    the base seed's words are zero-padded to the pool size, which mixes
    them as the unspawned sequence does, and ``hashmix`` has run 4 times
    per padded word."""
    words = max(_POOL, -(-base_seed.bit_length() // 32))
    pool = tuple(np.random.SeedSequence(base_seed).pool.tolist())
    return pool, _INIT_A * pow(_MULT_A, 4 * words, 1 << 32) & _M32


class _StateWords:
    """The four words a PCG64 is seeded with, computed in advance by
    :func:`rng_streams`: a ``numpy.random.bit_generator.ISeedSequence``,
    registered as one on first use so that importing rpsim does not import
    ``numpy.random``.  It holds only what PCG64 asks of it."""

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
    """Streams ``first`` to ``first + count - 1`` of ``base_seed``: each
    equals :func:`rng_stream` for its index, state for state.

    numpy's SeedSequence defines every stream; this only batches its
    per-index hashing.  The base seed's pool comes from SeedSequence itself,
    once per base seed (the last few are cached), and the index words are
    mixed in and the state generated for every stream at once, on arrays,
    one pass per range of indices with the same number of 32-bit words.
    Each generator's ``bit_generator.seed_seq`` is a minimal seed sequence
    holding the four words its PCG64 was seeded with.  A seed, index or
    count that is not a non-negative integer raises :class:`DomainError`.
    """
    base_seed = check_seed(base_seed)
    # a no-op after the first call
    np.random.bit_generator.ISeedSequence.register(_StateWords)
    first = check_seed(first, "stream index")
    end = first + check_seed(count, "stream count")
    base_pool, base_const = _base_pool(base_seed)
    words = np.empty((end - first, 4), dtype=np.uint64)
    lo = first
    while lo < end:     # the indices with as many words as lo
        k = max(1, -(-lo.bit_length() // 32))
        hi = min(end, 1 << 32 * k)
        index = np.arange(lo, hi, dtype=np.uint64 if hi <= 2**64 else object)
        # SeedSequence's mix_entropy from the base seed's pool on, then
        # its generate_state(8, uint32)
        pool = list(base_pool)
        hashmix = _hasher(base_const, _MULT_A)
        for m in range(k):
            word = index >> 32 * m & _M32
            for dst in range(_POOL):
                pool[dst] = _mix(pool[dst], hashmix(word))
        hashmix = _hasher(_INIT_B, _MULT_B)
        state = [hashmix(pool[m % _POOL]) for m in range(8)]
        rows = words[lo - first:hi - first]
        for m in range(4):  # little-endian pairs, as SeedSequence reads them
            rows[:, m] = state[2 * m] | state[2 * m + 1] << 32
        lo = hi
    return [np.random.Generator(np.random.PCG64(_StateWords(w)))
            for w in words]


def rng_stream(base_seed: int, replica_index: int) -> np.random.Generator:
    """Deterministic, replica-indexed random stream:
    ``default_rng(SeedSequence(base_seed, spawn_key=(replica_index,)))``.

    The same ``(base_seed, replica_index)`` pair always yields an identical
    stream, and distinct indices yield streams with no shared state, so
    ensembles are reproducible regardless of execution order or parallelism.
    A seed or index that is not a non-negative integer raises
    :class:`DomainError`.
    """
    base_seed = check_seed(base_seed)
    index = check_seed(replica_index, "stream index")
    return np.random.default_rng(
        np.random.SeedSequence(base_seed, spawn_key=(index,)))


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
    methods (:meth:`rpsim.simulate.Ensemble.replay`).  Only
    :func:`rpsim.simulate.run_until` and
    :attr:`rpsim.simulate.Ensemble.trajectories` build one, from arrays
    that are already checked, so it checks nothing again.
    """

    spec: ModelSpec
    seed: int
    grid: np.ndarray                      # sample times, ascending
    samples: np.ndarray                   # (len(grid), n) int64 counts
    event_times: np.ndarray | None        # float64, ascending
    event_reactions: np.ndarray | None    # int16 reaction indices
    absorbed: float | None                # absorption time, if any
    final_counts: tuple[int, ...]         # counts at the end of the run
    final_time: float                     # absorption time, else t_end

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
