"""Exact event-driven simulation of the cyclic collision process.

The process is a random time change of unit Poisson processes, one per
reaction, simulated by the modified next reaction method (Anderson 2007).
Reaction ``j`` fires at rate ``lam/M * X_j * X_{j+1}``; its clock carries an
accumulated intensity (``internal``) racing toward its next unit-Poisson
arrival (``threshold``).  The next event is the reaction whose clock reaches
its threshold first in wall time, after ``(threshold - internal) / rate``
(ties go to the lowest index); zero-rate reactions never fire, and when
every rate is zero the state is absorbing and the replica stops.  All other
clocks then advance by ``rate * dt``, and the fired one draws a fresh Exp(1)
gap.  A next event time that overflows a double lies past any finite
horizon: the replica ends at ``t_end``, unabsorbed (at an infinite one,
:class:`NumericError`).

Two engines run this loop with the same arithmetic in the same order:

* :func:`run_until` runs one replica, one event at a time, in a loop
  generated and compiled once per species count, unrolled so that every
  count, clock and threshold is a local variable.  Its counts are floats,
  as the lockstep engine's are, exact since ``ModelSpec`` caps the total at
  2**53.  An event is one pass of a ``for`` over a block of draws; the
  budget is counted, and the next block drawn, once per block.  A logged
  run appends each event to two lists and hands them to the flat log once
  per block.  Ensembles of fewer than 32 replicas (``_LOCKSTEP_MIN``) run
  it once per replica.
* ``_run_lockstep`` steps up to 2048 replicas (``STREAM_BLOCK``) together,
  one event per replica per step, and takes larger ensembles in chunks;
  below 32 replicas it measured slower than one at a time.  Its state is
  species-major, ``(n, replicas)`` arrays with one column per replica, so
  a step finds every replica's ``dt`` as a column minimum, and where a
  column ties, the first (lowest-indexed) minimum fires.  Its draws sit in
  a buffer indexed by replica, up to 256 columns (``_LOCKSTEP_DRAWS``) of
  each replica's stream, 4 MiB per chunk; a refill calls only the live
  replicas' generators.  :func:`run_ensembles` runs several specs'
  ensembles as one set of columns, so a chunk may hold replicas of more
  than one spec, each column with its own spec's rate, total and initial
  counts.

Both write their replicas' rows of the ensemble's arrays in place and append
their events, in replica order, to the ensemble's one flat event log.  The
lockstep engine logs a chunk's events step by step and, at the chunk's end,
places them in replica order, a fixed-size block of steps at a time.

Draw order, the contract both engines keep: replica ``i`` of an ensemble
reads ``rng_stream(base_seed, i)``, ``n`` initial thresholds in clock order,
then one draw per event.  The draws are taken in blocks, which a numpy
Generator fills with the same values as one draw at a time (as Python floats
they take the same IEEE arithmetic).  So every replica is the same
trajectory, bit for bit, whichever engine ran it (no output depends on
where a generator ends).  The construction is exact (no time
discretization); the statistical harness checks the first-event law of the
ensemble engine against competing exponentials.
"""
from __future__ import annotations

import array
import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    STREAM_BLOCK,
    BudgetExceeded,
    DomainError,
    MissingEventLog,
    ModelSpec,
    NumericError,
    RpsimError,
    Trajectory,
    check_grid,
    check_seed,
    compile_loop,
    per_species,
    rng_stream,
    rng_streams,
)

__all__ = [
    "Ensemble",
    "ReplicaError",
    "run_until",
    "run_ensemble",
    "run_ensembles",
    "DEFAULT_MAX_EVENTS",
]

DEFAULT_MAX_EVENTS = 10**9
# retain the event log by default when the expected event count stays below this
RETENTION_LIMIT = 10**7
# relative tolerance for the clock-overshoot guard
_OVERSHOOT_RTOL = 1e-9
_EXP_BLOCK = 4096
# ensembles of at least this many replicas take the lockstep engine
_LOCKSTEP_MIN = 32
# columns of each replica's draw block in the lockstep engine, at most: 4 MiB
# of draws for a chunk of STREAM_BLOCK replicas
_LOCKSTEP_DRAWS = 256
# events per block of an event-log replay; bounds its temporaries
_REPLAY_EVENTS = 4096
# (step, replica) pairs per block of the lockstep's log placement; bounds its
# temporaries
_PLACE_CELLS = 1 << 14


class ReplicaError(RpsimError):
    """Wraps a failure inside one ensemble replica with its index, and, from
    :func:`run_ensembles`, the index of its spec (else ``spec`` is None)."""

    def __init__(self, index: int, cause: BaseException,
                 spec: int | None = None):
        where = "" if spec is None else f"spec {spec}, "
        super().__init__(f"{where}replica {index}: {cause}")
        self.index, self.spec = index, spec


@dataclass(frozen=True, eq=False)
class Ensemble:
    """A batch of replicas sharing one model spec and one sample grid.

    Each per-replica field is one array over the replicas, replica-major;
    replica ``i`` ran on ``rng_stream(base_seed, i)``.  A kept event log is
    flat: replica ``i``'s events are entries ``event_offsets[i]`` up to
    ``event_offsets[i + 1]`` of ``event_times`` and ``event_reactions``.
    Without the log all three are ``None``.
    """

    spec: ModelSpec
    grid: np.ndarray                    # (G,) sample times
    base_seed: int
    samples: np.ndarray                 # (R, G, n) int64 counts
    final_counts: np.ndarray            # (R, n) int64
    absorbed: np.ndarray                # (R,) absorption time, NaN if none
    final_time: np.ndarray              # (R,)
    event_times: np.ndarray | None = None       # (E,) float64
    event_reactions: np.ndarray | None = None   # (E,) int16
    event_offsets: np.ndarray | None = None     # (R + 1,)

    def __post_init__(self):
        if len(self.samples) < 1:
            raise DomainError("an ensemble needs at least one replica")

    @property
    def replicas(self) -> int:
        return len(self.samples)

    @functools.cached_property
    def trajectories(self) -> tuple[Trajectory, ...]:
        """One :class:`Trajectory` per replica, built on first use; its
        arrays are views into the ensemble's, so a write shows in both."""
        off = self.event_offsets
        logs = ([(self.event_times[lo:hi], self.event_reactions[lo:hi])
                 for lo, hi in zip(off[:-1], off[1:])] if off is not None
                else [(None, None)] * self.replicas)
        return tuple(
            Trajectory(spec=self.spec, seed=i, grid=self.grid,
                       samples=self.samples[i], event_times=times,
                       event_reactions=reactions,
                       absorbed=None if math.isnan(absorbed) else absorbed,
                       final_counts=tuple(final), final_time=final_time)
            for i, ((times, reactions), absorbed, final, final_time)
            in enumerate(zip(logs, self.absorbed.tolist(),
                             self.final_counts.tolist(),
                             self.final_time.tolist())))

    def check_replay(self, t: float) -> None:
        """Raise what :meth:`replay` raises for a missing log or ``t``."""
        if self.event_offsets is None:
            raise MissingEventLog("the ensemble was run in samples-only mode")
        if not t >= 0:
            raise DomainError(f"replay time t={t:g} must be non-negative")
        running = self.final_time[np.isnan(self.absorbed)]
        if t > (horizon := running.min(initial=math.inf)):
            raise DomainError(f"replay time t={t:g} lies past the simulated "
                              f"time t={horizon:g} of an unabsorbed replica")

    def replay(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """``(N, T)`` at ``t``, each (replicas, n): reaction ``j``'s firings
        up to and including ``t``, and the integral of its intensity
        ``lam/total * X_j * X_{j+1}`` over ``[0, t]``.  One pass over the
        log, ``_REPLAY_EVENTS`` events at a time: each replica carries its
        firings and last event time across blocks, and ``np.add.at`` adds
        its intervals in time order, so ``T`` is bit-identical to a loop
        over them.  A negative or NaN ``t``, or one past an unabsorbed
        replica's final time, where its log ends, raises
        :class:`DomainError`; an absorbed replica's intensities end at its
        final time, so it replays at any ``t``, ``inf`` included."""
        self.check_replay(t)
        off = self.event_offsets
        n, t, x0 = self.spec.n, float(t), np.array(self.spec.initial)[:, None]
        cols = np.arange(n)[:, None]    # species-major: a row per species

        def products(firings):      # X_j * X_{j+1} after these firings
            x = (x0 + firings - np.roll(firings, 1, axis=0)).astype(float)
            return x * np.roll(x, -1, axis=0)

        fired = np.zeros((n, self.replicas), dtype=np.int64)
        last = np.zeros(self.replicas)          # each replica's last event
        acc = np.zeros((n, self.replicas))
        for lo in range(0, off[-1], _REPLAY_EVENTS):
            times = self.event_times[lo:lo + _REPLAY_EVENTS]
            at = lo + np.flatnonzero(times <= t)    # each replica's prefix
            times = self.event_times[at]
            rep = np.searchsorted(off, at, side="right") - 1
            hot = (self.event_reactions[at] == cols).astype(np.int64)
            # the block's replicas, and each one's first and last event
            opens = np.flatnonzero(np.diff(rep, prepend=-1))
            ends = np.flatnonzero(np.diff(rep, append=self.replicas))
            reps = rep[opens]
            # the firings before each event: carried, plus earlier in block
            before = np.cumsum(hot, axis=1) - hot
            before += np.repeat(fired[:, reps] - before[:, opens],
                                ends - opens + 1, axis=1)
            prev = np.r_[0.0, times[:-1]]       # the replica's previous event
            prev[opens] = last[reps]
            np.add.at(acc.reshape(-1), (cols * self.replicas + rep).ravel(),
                      ((times - prev) * products(before)).ravel())
            fired[:, reps] = before[:, ends] + hot[:, ends]     # carried on
            last[reps] = times[ends]
        # last event to t, or to the absorption, past which all are 0
        acc += (np.minimum(t, self.final_time) - last) * products(fired)
        return fired.T.copy(), (self.spec.lam / self.spec.total) * acc.T.copy()


# run_until's loop, unrolled: species j's count, clock (accumulated intensity),
# threshold and rate are c{j}, i{j}, h{j} and r{j}; an event is one pass of the
# for over block, a list of at most blk >= n draws (the first n thresholds
# first), cut to the draws of events up to max_events + 1, so its else: counts
# the budget and refills once per block.  The float counts are exact since
# ModelSpec caps the total at 2**53; the loop returns them as ints.  A logged
# event goes to two lists, whose list.append CPython specialises, and the lists
# go to log's arrays once per block and at the end, so they hold one block.
_LOOP = """\
def loop(counts, draw, blk, rtol, t_end, stop, grid_next, samples, log,
         max_events, lom, total):
    {c}, = map(float, counts)
    {i}, = (0.0,) * {n}
    block = draw(blk).tolist()
    {h}, = block[:{n}]
    del block[:{n}]
    inf = float("inf")
    times, reactions = [], []
    t, gi, g_next, n_events, absorbed = 0.0, 0, grid_next[0], 0, None
    while True:
        del block[max_events - n_events + 1:]
        for e in block:
            best, dt = -1, inf
{select}
            if best < 0:
                absorbed = t
                break
            new_time = t + dt
            if new_time > stop:
                break
            while g_next < new_time:
                samples.append(({c},))
                gi += 1
                g_next = grid_next[gi]
{advance}
            t = new_time
            if {c_sum} != total:
                raise AssertionError("population conservation violated")
            if log is not None:
                times.append(t)
                reactions.append(best)
        else:
            n_events += len(block)
            if n_events > max_events:
                raise BudgetExceeded(f"exceeded {{max_events}} events at "
                                     f"t={{t:.6g}} (horizon {{t_end}})")
            if log is not None:
                log[0].fromlist(times)
                log[1].fromlist(reactions)
                times.clear()
                reactions.clear()
            block = draw(blk).tolist()
            continue
        if log is not None:
            log[0].fromlist(times)
            log[1].fromlist(reactions)
        return tuple(map(int, ({c},))), absorbed, gi
"""
_SELECT = """\
            r{j} = lom * c{j} * c{k}
            if r{j} > 0.0:
                d = (h{j} - i{j}) / r{j}
                if d < dt:
                    dt = d
                    best = {j}"""
# one pass: the fired clock takes its threshold and a fresh gap, and every
# other clock advances by rate * dt (a dead one by 0.0, which changes nothing)
_ADVANCE = """\
            if best == {j}:
                i{j} = h{j}
                h{j} += e
                c{j} += 1.0
                c{k} -= 1.0
            else:
                i{j} += r{j} * dt
                if i{j} > h{j}:
                    i{j} = _clamp({j}, i{j}, h{j}, rtol)"""


def _clamp(j: int, advanced: float, threshold: float, rtol: float) -> float:
    """Clamp clock ``j``, carried past its threshold by rounding."""
    over = advanced - threshold
    if over > rtol * max(1.0, threshold):
        raise NumericError(f"clock {j} overshot its threshold by {over:.3e} "
                           "(internal-time drift)")
    return threshold


@functools.lru_cache(maxsize=16)
def _event_loop(n: int):
    """run_until's event loop for ``n`` species, compiled on first use."""
    c = [f"c{j}" for j in range(n)]
    source = _LOOP.format(
        n=n, c=", ".join(c), i=per_species("i{j}", n, ", "),
        h=per_species("h{j}", n, ", "),
        c_sum=" + ".join(c),
        select=per_species(_SELECT, n), advance=per_species(_ADVANCE, n))
    return compile_loop(source, f"<run_until loop, n={n}>",
                        BudgetExceeded=BudgetExceeded, _clamp=_clamp)


def _stop(t_end: float) -> float:
    """The event time past which a run ends: ``t_end``, or the largest
    double at an infinite horizon, where only absorption ends a run."""
    return t_end if t_end < math.inf else np.finfo(float).max.item()


def _expected_events(spec: ModelSpec, t_end: float) -> float:
    """Crude horizon-scale event-count estimate used by the retention default
    (0 from an absorbing start, also at an infinite horizon)."""
    rate = spec.initial_total_rate()
    return rate * t_end if rate else 0.0


def _check_run(t_end: float, grid) -> np.ndarray:
    """Check a run's horizon and sample grid; return a fresh copy of the
    grid."""
    if not (t_end >= 0.0):
        raise DomainError(f"t_end must be non-negative, got {t_end}")
    grid = check_grid(grid)
    if len(grid) and (grid[0] < 0 or grid[-1] > t_end):
        raise DomainError(f"grid must lie within [0, t_end] = [0, {t_end}]")
    return grid


def run_until(spec: ModelSpec, t_end: float, grid, rng: np.random.Generator,
              *, seed: int = 0, record_events: bool | None = None,
              max_events: int = DEFAULT_MAX_EVENTS, _log=None) -> Trajectory:
    """Simulate one replica until ``t_end`` (or absorption), sampling on ``grid``.

    Parameters
    ----------
    spec : ModelSpec
        Model definition, checked when it was made.
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
        Hard event budget; event ``max_events + 1`` raises
        :class:`BudgetExceeded` with its time.  Anything but a non-negative
        integer raises :class:`DomainError`.
    _log : pair of ``array.array``, private
        With ``record_events`` false, the events are appended to these
        buffers of doubles and shorts instead: :func:`run_ensemble` passes
        every replica its one flat log, which it views without a copy.

    Grid samples are right-continuous: a grid time equal to an event time
    records the post-event state.  After absorption all remaining grid times
    repeat the absorbing state.

    The loop holds the counts as floats, exact up to the total's cap of
    2**53, so each rate, update and conservation sum is the IEEE result
    of the integer arithmetic; ``final_counts`` come back as Python ints
    and ``samples`` as int64.  Each event is one pass of a ``for`` over a
    block of draws, which fires the chosen clock and advances the others;
    the budget is counted, and the generator may be drawn, a block ahead.
    A logged run appends each event's time and reaction to two lists,
    which the loop hands to the log's arrays once per block and once at
    the end.
    Only a state with every rate 0 is absorbed: an event time that
    overflows a double ends the run at ``t_end``, or raises
    :class:`NumericError` at ``t_end = inf``.

    The first call for each species count compiles its event loop
    (the last 16 counts stay cached), at a cost in time and transient
    memory (peak under ``tracemalloc``) that grows linearly with ``n``,
    about 0.1 ms and 40 kB per species: 1 ms at n = 3, and 0.12-0.19 s and
    40 MB at ``MAX_SPECIES`` (1 024).
    """
    grid = _check_run(t_end, grid)
    max_events = check_seed(max_events, "max_events")
    if record_events is None:
        record_events = _expected_events(spec, t_end) < RETENTION_LIMIT

    samples: list[tuple] = []      # float counts; the tail, int ones
    # raw doubles and shorts, which np.asarray views without a copy
    log = (array.array("d"), array.array("h")) if record_events else _log
    counts, absorbed, gi = _event_loop(spec.n)(
        spec.initial, rng.standard_exponential, max(_EXP_BLOCK, spec.n),
        _OVERSHOOT_RTOL, t_end, _stop(t_end), grid.tolist() + [math.inf],
        samples, log, max_events, spec.lam / spec.total, float(spec.total))
    if absorbed is not None and any(map(min, counts, counts[1:] + counts)):
        absorbed = None     # a rate is positive: its gap overflowed
    if absorbed is None and t_end == math.inf:
        raise NumericError("the next event time overflows a double, so the "
                           "run cannot reach its infinite horizon")
    # horizon reached or absorbed: the state no longer changes
    samples += [counts] * (len(grid) - gi)

    return Trajectory(
        spec=spec, seed=seed, grid=grid,
        samples=np.asarray(samples, dtype=np.int64).reshape(len(grid), spec.n),
        event_times=np.asarray(log[0]) if record_events else None,
        event_reactions=np.asarray(log[1]) if record_events else None,
        absorbed=absorbed, final_counts=counts,
        final_time=absorbed if absorbed is not None else t_end)


def _replica(run: tuple, i: int, t_end: float, grid: np.ndarray,
             max_events: int, log=None) -> Trajectory:
    """Replica ``i`` of ``run``, a ``(spec, base seed, label)`` triple,
    through :func:`run_until`, its events appended to ``log`` if given, a
    failure tagged with ``i`` and the label."""
    spec, base_seed, label = run
    try:
        return run_until(spec, t_end, grid, rng_stream(base_seed, i), seed=i,
                         record_events=False, max_events=max_events, _log=log)
    except RpsimError as exc:
        raise ReplicaError(i, exc, spec=label) from exc


def _run_lockstep(runs: list, replicas: int, first: int, t_end: float,
                  grid: np.ndarray, max_events: int, samples: np.ndarray,
                  final: np.ndarray, absorbed_at: np.ndarray, ends: np.ndarray,
                  log) -> None:
    """Columns ``first, first + 1, ...`` all at once, one event each per step.

    Column ``c`` is replica ``c % replicas`` of ``runs[c // replicas]``, a
    ``(spec, base seed, label)`` triple, so a chunk may span runs; every
    column carries its own spec's ``lam/M``, total and initial counts.
    The loop of :func:`run_until`, with the same operations in the same
    order, on species-major ``(n, live columns)`` arrays: row ``j`` is
    clock (and species) ``j``.  A step's ``dt`` is each column's minimum
    gap, and the clock that fires is the first in its column to attain
    it, as :func:`run_until`'s strict ``<`` picks it.  Every live column
    fires its event ``k`` at step ``k`` and so takes draw ``n + k`` of its
    stream, from column ``(n + k) % width`` of a ``(columns, width)``
    buffer that each column's generator refills by rows (a contiguous row
    each, so a step reads its column strided).  ``width`` is
    ``_LOCKSTEP_DRAWS`` (256, 4 MiB for a chunk of ``STREAM_BLOCK``), or
    fewer when every run of the chunk is expected to be short; it moves
    only the refills.  A column that absorbs or passes the horizon is
    compacted out of the state, not out of the buffer: row ``i`` stays
    column ``first + i``'s, as in ``samples``, ``final`` and
    ``absorbed_at`` (NaN on entry), and a refill calls only the live
    columns' generators.  With ``log``, each step appends its live
    columns' event times and reactions to a flat step log, in column
    order.  At the end, each log is placed in column order, a block of
    steps at a time with block-sized temporaries, and appended to ``log``,
    and ``ends[i]`` is set to the log's length after column ``first + i``.
    """
    n = runs[0][0].n
    columns = len(final)
    run_of, index_of = np.divmod(np.arange(first, first + columns), replicas)
    mine = range(run_of[0], run_of[-1] + 1)     # the chunk's runs
    lams = np.array([spec.lam / spec.total for spec, *_ in runs])
    totals = np.array([float(spec.total) for spec, *_ in runs])

    def per_column(values):
        # each live column's run's value, the same IEEE lam / M as one
        # spec's; a scalar while they share one run, which steps faster
        live = run_of[ids]
        return values[live[0]] if live[0] == live[-1] else values[live]

    nxt = np.array([(j + 1) % n for j in range(n)])
    prv = np.array([(j - 1) % n for j in range(n)])
    reaction = np.arange(n, dtype=np.int16)
    # a chunk whose runs expect fewer events (twice the initial rate times
    # the horizon) takes a narrower block: filling draws it never reads
    # costs more than refilling the few columns that overrun
    width = max(n, int(min(_LOCKSTEP_DRAWS, n + 2 * max(
        _expected_events(runs[k][0], t_end) for k in mine))))
    # each column's refill, bound once; row i of draws is column first + i's
    fills = []
    for k in mine:
        at = index_of[run_of == k]
        fills += [gen.standard_exponential
                  for gen in rng_streams(runs[k][1], int(at[0]), len(at))]
    draws = np.empty((columns, width))
    for fill, row in zip(fills, draws):
        fill(out=row)

    glen = len(grid)
    grid_next = np.append(grid, math.inf)   # next grid time after index gi
    n_events = np.empty(columns, dtype=np.intp)
    # each step's event times and reactions, raw, so an append makes no object
    steps = [array.array("d"), array.array("h")]

    # state of the live columns; counts are exact in float64, since
    # ModelSpec caps the total at 2**53
    ids = np.arange(columns)        # column index - first
    lam_over_m, total = per_column(lams), per_column(totals)
    counts = np.array([spec.initial for spec, *_ in runs], dtype=float)
    counts = np.ascontiguousarray(counts[run_of].T)
    internal = np.zeros((n, columns))
    threshold = draws[:, :n].T.copy()
    col = n
    t = np.zeros(columns)
    gi = np.zeros(columns, dtype=np.intp)
    g_next = np.full(columns, grid_next[0])
    stop = _stop(t_end)             # new_time > stop ends a column
    k = 0                           # events fired so far by every live column

    def serial_error(last: int):
        # rerun serially up to the first failing column: the serial error
        for c in range(last + 1):
            _replica(runs[run_of[c]], int(index_of[c]), t_end, grid, max_events)
        raise AssertionError("lockstep and serial engines disagree")

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while len(ids):
            rate = lam_over_m * counts * counts.take(nxt, axis=0)
            gap = (threshold - internal) / rate
            if np.count_nonzero(rate) != rate.size:
                gap[rate == 0.0] = math.inf
            dt = gap.min(axis=0)
            new_time = t + dt

            done = new_time > stop
            if np.count_nonzero(done):
                out = ids[done]
                final[out] = ended = counts.compress(done, axis=1).T
                n_events[out] = k
                hit = dt[done] == math.inf
                if np.count_nonzero(hit):
                    # absorbed only where every rate is 0, not where a gap
                    # overflowed
                    hit &= ~rate.compress(done, axis=1).any(axis=0)
                # an unabsorbed column's event time overflowed a double
                if t_end == math.inf and not hit.all():
                    serial_error(int(out[~hit][0]))
                absorbed_at[out[hit]] = t[done][hit]
                if glen:  # the state no longer changes
                    for i, row, start in zip(out, ended, gi[done]):
                        samples[i, start:] = row
                keep = np.flatnonzero(~done)
                (ids, counts, internal, threshold, t, gi, g_next, rate, gap,
                 dt, new_time) = (a.take(keep, axis=-1) for a in (
                    ids, counts, internal, threshold, t, gi, g_next, rate, gap,
                    dt, new_time))
                if not len(ids):
                    break
                lam_over_m, total = per_column(lams), per_column(totals)
            fire = gap == dt        # the first minimum of each column fires
            if np.count_nonzero(fire) != len(ids):
                fire &= fire.cumsum(axis=0) == 1
            fired = fire.astype(float)

            cross = g_next < new_time
            if np.count_nonzero(cross):
                # grid times before the event record the pre-event state:
                # the first one of each column, then any further ones
                rows = cross.nonzero()[0]
                lo = gi[rows]
                samples[ids[rows], lo] = counts.take(rows, axis=1).T
                lo += 1
                g = grid_next[lo]
                gi[rows] = lo
                g_next[rows] = g
                far = g < new_time[rows]
                if np.count_nonzero(far):
                    rows, lo = rows[far], lo[far]
                    hi = np.searchsorted(grid, new_time[rows], side="left")
                    span = hi - lo
                    rep = np.repeat(rows, span)
                    start = np.cumsum(span) - span   # each row's first slot
                    cols = np.arange(len(rep)) + np.repeat(lo - start, span)
                    samples[ids[rep], cols] = counts.take(rep, axis=1).T
                    gi[rows] = hi
                    g_next[rows] = grid_next[hi]

            if col == width:
                for i in ids.tolist():
                    fills[i](out=draws[i])
                col = 0
            # the same IEEE sum as internal + rate * dt, without a temporary
            advanced = rate * dt
            advanced += internal
            advanced = np.where(fire, threshold, advanced)
            if np.count_nonzero(advanced > threshold):
                # rounding may carry a clock a hair past its threshold
                over = advanced - threshold
                bad = over > _OVERSHOOT_RTOL * np.maximum(1.0, threshold)
                if bad.any():     # internal-time drift
                    serial_error(int(ids[bad.any(axis=0)][0]))
                np.minimum(advanced, threshold, out=advanced)
            internal = advanced
            # + 0.0 leaves an unfired clock's threshold as it was; the draw
            # column is gathered once, not once per row of the product
            threshold += fired * draws[ids, col]
            col += 1
            counts += fired
            counts -= fired.take(prv, axis=0)
            t = new_time
            k += 1
            if k > max_events:
                # every live column exceeds it now; the lowest-indexed one
                # is the first a serial run would meet
                c = int(ids[0])
                exc = BudgetExceeded(f"exceeded {max_events} events at "
                                     f"t={t[0]:.6g} (horizon {t_end})")
                raise ReplicaError(int(index_of[c]), exc,
                                   spec=runs[run_of[c]][2]) from exc
            # exact: the column sums are integers of at most 2**53
            if np.count_nonzero(counts.sum(axis=0) != total):
                raise AssertionError("population conservation violated")  # unreachable
            if log is not None:
                steps[0].frombytes(t.view(np.uint8))
                # the fired clock's index: one mark in each column
                steps[1].frombytes(np.einsum("j,jr->r", reaction, fire)
                                   .view(np.uint8))

    if log is not None:
        del draws   # not held while the log is placed
        np.cumsum(n_events, out=ends)
        start = ends - n_events
        ends += len(log[0])
        for out in log:
            step = np.frombuffer(steps.pop(0), dtype=out.typecode)
            chunk = np.empty_like(step)
            # column first + i's event k goes to start[i] + k; step k
            # logged its live columns in column order, so a block of
            # about _PLACE_CELLS (step, live column) pairs, as a mask read
            # row by row, lists the next entries of the step log
            lo = k = 0
            while lo < len(step):
                live = np.flatnonzero(n_events > k)
                ks = np.arange(k, k + max(1, _PLACE_CELLS // len(live)))
                ks = ks[:, None]    # a row per step, across the live columns
                at = (start[live] + ks)[n_events[live] > ks]
                chunk[at] = step[lo:lo + len(at)]
                lo, k = lo + len(at), k + len(ks)
            del step    # freed before the log grows
            out.frombytes(chunk.view(np.uint8))
            del chunk   # nor held while the next one is made


def _run(specs: list, replicas: int, t_end: float, grid, base_seeds: list,
         record_events: bool, max_events: int, labels) -> list[Ensemble]:
    """The engine behind :func:`run_ensemble` and :func:`run_ensembles`:
    ``replicas`` replicas of each spec, as spec-major columns; a failure
    names the replica and the spec's label (``None`` names none).  Events
    are logged only for one spec, as :func:`run_ensemble` asks."""
    replicas = check_seed(replicas, "replica count")
    if replicas < 1:
        raise DomainError(f"need at least one replica, got {replicas}")
    # checked once here so a bad input is not reported as a replica failure
    grid = _check_run(t_end, grid)
    base_seeds = [check_seed(seed) for seed in base_seeds]
    max_events = check_seed(max_events, "max_events")
    runs = list(zip(specs, base_seeds, labels))
    columns = len(runs) * replicas
    # the columns' arrays, each engine writing its columns' rows, and one
    # log of raw doubles and shorts, which np.asarray views without a copy
    try:
        samples = np.empty((columns, len(grid), specs[0].n), dtype=np.int64)
        final = np.empty((columns, specs[0].n), dtype=np.int64)
        absorbed = np.full(columns, math.nan)
        offsets = np.zeros(columns + 1, dtype=np.int64)
    except (MemoryError, ValueError):   # ValueError: past numpy's size limit
        asked = (f"{replicas} replicas" if len(runs) == 1 else
                 f"{columns} replicas ({len(runs)} specs × {replicas})")
        raise DomainError(f"{asked} of {len(grid)} sample times, too many "
                          "to hold in memory") from None
    ends = offsets[1:]              # the log's length after each column
    log = (array.array("d"), array.array("h")) if record_events else None
    if columns < _LOCKSTEP_MIN:
        for c in range(columns):
            traj = _replica(runs[c // replicas], c % replicas, t_end, grid,
                            max_events, log)
            samples[c], final[c] = traj.samples, traj.final_counts
            absorbed[c] = math.nan if traj.absorbed is None else traj.absorbed
            ends[c] = len(log[0]) if log else 0
    else:
        # in near-equal chunks of at most STREAM_BLOCK, to bound memory
        size = -(-columns // -(-columns // STREAM_BLOCK))
        for first in range(0, columns, size):
            rows = slice(first, first + size)
            _run_lockstep(runs, replicas, first, t_end, grid, max_events,
                          samples[rows], final[rows], absorbed[rows],
                          ends[rows], log)
    times, reactions = map(np.asarray, log) if log else (None, None)
    ensembles = []
    for k, (spec, base_seed, _) in enumerate(runs):
        rows = slice(k * replicas, (k + 1) * replicas)
        ensembles.append(Ensemble(
            spec=spec, grid=grid, base_seed=base_seed, samples=samples[rows],
            final_counts=final[rows], absorbed=absorbed[rows],
            final_time=np.where(np.isnan(absorbed[rows]), t_end,
                                absorbed[rows]),
            event_times=times, event_reactions=reactions,
            event_offsets=offsets if log else None))
    return ensembles


def run_ensemble(spec: ModelSpec, replicas: int, t_end: float, grid,
                 base_seed: int, *, workers: int = 1,
                 record_events: bool | None = None,
                 max_events: int = DEFAULT_MAX_EVENTS) -> Ensemble:
    """Run ``replicas`` independent trajectories.

    Replica ``i`` always consumes the stream ``rng_stream(base_seed, i)``, so
    every replica equals ``run_until`` on its own stream, bit for bit.  From
    ``_LOCKSTEP_MIN`` replicas up they are stepped together on arrays;
    smaller ensembles run one replica at a time.  ``workers`` is accepted
    for compatibility and changes neither the results nor the speed: all
    replicas run in the calling thread.  Failures are re-raised as
    :class:`ReplicaError` carrying the index of the lowest-indexed failing
    replica, as a serial run would report it.  Replicas whose samples do
    not fit in memory, and a ``max_events`` that is not a non-negative
    integer, raise :class:`DomainError`.  The one-spec case of
    :func:`run_ensembles`.
    """
    if record_events is None:
        record_events = _expected_events(spec, t_end) < RETENTION_LIMIT
    return _run([spec], replicas, t_end, grid, [base_seed], record_events,
                max_events, [None])[0]


def run_ensembles(specs, replicas: int, t_end: float, grid,
                  base_seeds) -> list[Ensemble]:
    """One ensemble per spec, all stepped together.

    Ensemble ``k`` equals ``run_ensemble(specs[k], replicas, t_end, grid,
    base_seeds[k], record_events=False)`` bit for bit in every field; its
    arrays are views into arrays shared by all the ensembles.  The specs'
    replicas run as spec-major columns, in near-equal lockstep chunks of at
    most ``STREAM_BLOCK`` columns that may span specs, or one replica at a
    time below ``_LOCKSTEP_MIN`` columns in all, so a batch of small
    ensembles takes fewer, wider steps than one call each.  A failure,
    under the default ``max_events``, raises the
    :class:`ReplicaError` that running the specs one after another would
    raise first, naming the spec's index and the replica.  Specs that do
    not share ``n``, no specs, a ``base_seeds`` whose length is not the
    specs', and the inputs :func:`run_ensemble` refuses raise
    :class:`DomainError` before any replica runs.
    """
    specs, base_seeds = list(specs), list(base_seeds)
    if not specs:
        raise DomainError("need at least one spec")
    if any(spec.n != specs[0].n for spec in specs):
        raise DomainError("the specs must share the species count n, got "
                          f"{[spec.n for spec in specs]}")
    if len(base_seeds) != len(specs):
        raise DomainError(f"{len(base_seeds)} base seeds for {len(specs)} "
                          "specs")
    return _run(specs, replicas, t_end, grid, base_seeds, False,
                DEFAULT_MAX_EVENTS, range(len(specs)))
