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
gap.

Two engines run this loop with the same arithmetic in the same order:

* :func:`run_until` runs one replica, one event at a time, in a loop
  generated and compiled once per species count, unrolled so that every
  count, clock and threshold is a local variable.  Ensembles of fewer than
  32 replicas (``_LOCKSTEP_MIN``) run it once per replica.
* ``_run_lockstep`` steps up to 2048 replicas (``_LOCKSTEP_MAX``) together,
  one event per replica per step, and takes larger ensembles in chunks;
  below 32 replicas it measured slower than one at a time.  Its state is
  species-major, ``(n, replicas)`` arrays with one column per replica, so
  a step finds every replica's ``dt`` as a column minimum, and where a
  column ties, the first (lowest-indexed) minimum fires.  Its draws sit in
  a buffer indexed by replica, up to 256 columns (``_LOCKSTEP_DRAWS``) of
  each replica's stream, 4 MiB per chunk; a refill calls only the live
  replicas' generators.

Both write their replicas' rows of the ensemble's arrays in place and append
their events, in replica order, to the ensemble's one flat event log.

Draw order, the contract both engines keep: replica ``i`` of an ensemble
reads ``rng_stream(base_seed, i)``, ``n`` initial thresholds in clock order,
then one draw per event.  The draws are taken in blocks, which a numpy
Generator fills with the same values as one draw at a time (as Python floats
they take the same IEEE arithmetic).  So every replica is the same
trajectory, bit for bit, whichever engine ran it.  The construction is exact
(no time discretization); the statistical harness checks the first-event law
of the ensemble engine against competing exponentials.
"""
from __future__ import annotations

import array
import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
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
# replicas stepped together at most; larger ensembles run in chunks
_LOCKSTEP_MAX = 2048
# columns of each replica's draw block in the lockstep engine, at most: 4 MiB
# of draws for a chunk of _LOCKSTEP_MAX replicas
_LOCKSTEP_DRAWS = 256
# replicas per block of an event-log replay; bounds its temporaries
_REPLAY_BLOCK = 128


class ReplicaError(RpsimError):
    """Wraps a failure inside one ensemble replica with its index."""

    def __init__(self, index: int, cause: BaseException):
        super().__init__(f"replica {index}: {cause}")
        self.index = index


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

    def _logged_blocks(self, t: float):
        """Per block of up to ``_REPLAY_BLOCK`` replicas ``lo..hi - 1``:
        ``(lo, hi, rep, reactions, times)`` of its events at times <= ``t``
        in log order (a prefix of each replica's ascending log), ``rep``
        being each event's replica less ``lo``.

        A replica that was not absorbed has no log past its final time, so
        a ``t`` beyond it raises :class:`DomainError`.
        """
        off = self.event_offsets
        if off is None:
            raise MissingEventLog("the ensemble was run in samples-only mode")
        running = self.final_time[np.isnan(self.absorbed)]
        if len(running) and t > running.min():
            raise DomainError(f"replay time t={t:g} lies past the simulated "
                              f"time t={running.min():g} of an unabsorbed "
                              "replica")
        for lo in range(0, self.replicas, _REPLAY_BLOCK):
            hi = min(lo + _REPLAY_BLOCK, self.replicas)
            times = self.event_times[off[lo]:off[hi]]
            keep = times <= t
            rep = np.repeat(np.arange(hi - lo), np.diff(off[lo:hi + 1]))[keep]
            yield (lo, hi, rep, self.event_reactions[off[lo]:off[hi]][keep],
                   times[keep])

    def jump_counts(self, t: float) -> np.ndarray:
        """(replicas, n) firings of each reaction up to and including ``t``."""
        n = self.spec.n
        out = np.empty((self.replicas, n), dtype=np.int64)
        for lo, hi, rep, reactions, _ in self._logged_blocks(t):
            out[lo:hi] = np.bincount(rep * n + reactions,
                                     minlength=(hi - lo) * n).reshape(-1, n)
        return out

    def internal_times(self, t: float) -> np.ndarray:
        """(replicas, n) accumulated intensity of each reaction at ``t``,
        within the simulated horizon.

        The integrand is ``lam/total * counts[j] * counts[j+1]`` with the
        counts in force on each interval between events.  ``np.add.at``
        adds a replica's intervals one by one in time order, so the sums
        are bit-identical to a loop over each replica's intervals.
        """
        n = self.spec.n
        nxt = np.roll(np.arange(n), -1)         # species j + 1
        out = np.empty((self.replicas, n))
        for lo, hi, rep, reactions, times in self._logged_blocks(t):
            jump = np.zeros((len(rep), n), dtype=np.int64)
            jump[np.arange(len(rep)), reactions] = 1
            jump[np.arange(len(rep)), nxt[reactions]] -= 1
            # a row at time 0, with no jump, opens each replica's intervals
            opens = np.searchsorted(rep, np.arange(hi - lo))
            rep = np.insert(rep, opens, np.arange(hi - lo))
            times = np.insert(times, opens, 0.0)
            jumps = np.cumsum(np.insert(jump, opens, 0, axis=0), axis=0)
            opens += np.arange(hi - lo)
            x = (self.spec.initial + jumps - jumps[opens][rep]).astype(float)
            end = np.full(len(rep), float(t))   # the replica's next event, or t
            same = rep[1:] == rep[:-1]
            end[:-1][same] = times[1:][same]
            acc = np.zeros((hi - lo, n))
            np.add.at(acc, rep, (end - times)[:, None] * (x * x[:, nxt]))
            out[lo:hi] = (self.spec.lam / self.spec.total) * acc
        return out


# run_until's loop, unrolled: species j's count, clock (accumulated intensity),
# threshold and rate are c{j}, i{j}, h{j} and r{j}; the draws are buf[k], in
# blocks of blk >= n
_LOOP = """\
def loop(counts, draw, blk, rtol, t_end, grid_next, samples, log,
         max_events, lom, total):
    {c}, = counts
    {i}, = (0.0,) * {n}
    buf = draw(blk).tolist()
    {h}, = buf[:{n}]
    k = {n}
    inf = float("inf")
    if log is not None:
        log_time, log_reaction = log[0].append, log[1].append
    t, gi, n_events, absorbed = 0.0, 0, 0, None
    while True:
        best, dt = -1, inf
{select}
        if best < 0:
            absorbed = t
            break
        new_time = t + dt
        if new_time > t_end:
            break
        while grid_next[gi] < new_time:
            samples.append(({c},))
            gi += 1
{advance}
        if k == blk:
            buf, k = draw(blk).tolist(), 0
        e = buf[k]
        k += 1
{fire}
        t = new_time
        n_events += 1
        if n_events > max_events:
            raise BudgetExceeded(f"exceeded {{max_events}} events at "
                                 f"t={{t:.6g}} (horizon {{t_end}})")
        if {c_sum} != total:
            raise AssertionError("population conservation violated")
        if log is not None:
            log_time(t)
            log_reaction(best)
    return ({c},), absorbed, gi
"""
_SELECT = """\
        r{j} = lom * c{j} * c{k}
        if r{j} > 0.0:
            d = (h{j} - i{j}) / r{j}
            if d < dt:
                dt = d
                best = {j}"""
# every live clock but the fired one advances by rate * dt
_ADVANCE = """\
        if r{j} > 0.0 and best != {j}:
            i{j} += r{j} * dt
            if i{j} > h{j}:
                i{j} = _clamp({j}, i{j}, h{j}, rtol)"""
_FIRE = """\
        if best == {j}:
            i{j} = h{j}
            h{j} += e
            c{j} += 1
            c{k} -= 1"""


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
        # summed in groups: one long sum nests too deep for the compiler
        c_sum=" + ".join(f"({' + '.join(c[lo:lo + 64])})"
                         for lo in range(0, n, 64)),
        select=per_species(_SELECT, n), advance=per_species(_ADVANCE, n),
        fire=per_species(_FIRE, n))
    return compile_loop(source, f"<run_until loop, n={n}>",
                        BudgetExceeded=BudgetExceeded, _clamp=_clamp)


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
        raise DomainError("grid must lie within [0, t_end]")
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
        Hard event budget; exceeding it raises :class:`BudgetExceeded`.
    _log : pair of ``array.array``, private
        With ``record_events`` false, the events are appended to these
        buffers of doubles and shorts instead: :func:`run_ensemble` passes
        every replica its one flat log, which it views without a copy.

    Grid samples are right-continuous: a grid time equal to an event time
    records the post-event state.  After absorption all remaining grid times
    repeat the absorbing state.

    The first call for each species count compiles its event loop (the
    last 16 counts stay cached), at a cost in time and transient memory
    that grows linearly with ``n``, about 0.2 ms and 43 kB per species: 1 ms
    at n = 3, 0.2 s and 43 MB at n = 1 000, 0.7 s and 170 MB at n = 4 000,
    so, extrapolated, about 6 s and 1.4 GB at ``MAX_SPECIES`` = 32 767.
    """
    grid = _check_run(t_end, grid)
    if record_events is None:
        record_events = _expected_events(spec, t_end) < RETENTION_LIMIT

    samples: list[tuple[int, ...]] = []
    # raw doubles and shorts, which np.asarray views without a copy
    log = (array.array("d"), array.array("h")) if record_events else _log
    counts, absorbed, gi = _event_loop(spec.n)(
        spec.initial, rng.standard_exponential, max(_EXP_BLOCK, spec.n),
        _OVERSHOOT_RTOL, t_end, grid.tolist() + [math.inf], samples, log,
        max_events, spec.lam / spec.total, spec.total)
    # horizon reached or absorbed: the state no longer changes
    samples += [counts] * (len(grid) - gi)

    return Trajectory(
        spec=spec, seed=seed, grid=grid,
        samples=np.asarray(samples, dtype=np.int64).reshape(len(grid), spec.n),
        event_times=np.asarray(log[0]) if record_events else None,
        event_reactions=np.asarray(log[1]) if record_events else None,
        absorbed=absorbed, final_counts=counts,
        final_time=absorbed if absorbed is not None else t_end)


def _replica(spec: ModelSpec, t_end: float, grid: np.ndarray, base_seed: int,
             i: int, max_events: int, log=None) -> Trajectory:
    """Replica ``i`` through :func:`run_until`, its events appended to
    ``log`` if given, a failure tagged with ``i``."""
    try:
        return run_until(spec, t_end, grid, rng_stream(base_seed, i), seed=i,
                         record_events=False, max_events=max_events, _log=log)
    except RpsimError as exc:
        raise ReplicaError(i, exc) from exc


def _run_lockstep(spec: ModelSpec, first: int, t_end: float, grid: np.ndarray,
                  base_seed: int, max_events: int, samples: np.ndarray,
                  final: np.ndarray, absorbed_at: np.ndarray, ends: np.ndarray,
                  log) -> None:
    """Replicas ``first, first + 1, ...`` all at once, one event each per step.

    The loop of :func:`run_until`, with the same operations in the same
    order, on species-major ``(n, live replicas)`` arrays: row ``j`` is
    clock (and species) ``j``, one column per replica.  A step's ``dt`` is
    each column's minimum gap, and the clock that fires is the first in its
    column to attain it, as :func:`run_until`'s strict ``<`` picks it.
    Every live replica fires its event ``k`` at step ``k`` and so takes
    draw ``n + k`` of its stream, from column ``(n + k) % width`` of a
    ``(replicas, width)`` buffer that each replica's generator refills by
    rows (a contiguous row each, so a step reads its column strided).
    ``width`` is ``_LOCKSTEP_DRAWS`` (256, 4 MiB for a chunk of
    ``_LOCKSTEP_MAX``), or fewer when the run is expected to be short.  A
    replica that absorbs or passes the horizon is compacted out of the
    state, not out of the buffer: row ``i`` stays replica ``first + i``'s,
    as in ``samples``, ``final`` and ``absorbed_at`` (NaN on entry), and a
    refill calls only the live replicas' generators.  With ``log``, each
    step appends its live replicas' event times and reactions to a flat
    step log; at the end they are put in replica order and appended to
    ``log``, and ``ends[i]`` is set to the log's length after replica
    ``first + i``.
    """
    n = spec.n
    replicas = len(final)
    lam_over_m = spec.lam / spec.total
    total = spec.total
    nxt = np.array([(j + 1) % n for j in range(n)])
    prv = np.array([(j - 1) % n for j in range(n)])
    reaction = np.arange(n, dtype=np.int16)
    # a replica that expects fewer events (twice its initial rate times the
    # horizon) takes a narrower block: filling draws it never reads costs
    # more than refilling the few replicas that overrun
    width = max(n, int(min(_LOCKSTEP_DRAWS,
                           n + 2 * _expected_events(spec, t_end))))
    # each replica's refill, bound once; row i of draws is replica first + i's
    fills = [gen.standard_exponential
             for gen in rng_streams(base_seed, first, replicas)]
    draws = np.empty((replicas, width))
    for fill, row in zip(fills, draws):
        fill(out=row)

    glen = len(grid)
    grid_next = np.append(grid, math.inf)   # next grid time after index gi
    n_events = np.empty(replicas, dtype=np.intp)
    # each step's event times and reactions, raw, so an append makes no object
    steps = [array.array("d"), array.array("h")]

    # state of the live replicas, one column each; counts are exact in float64
    ids = np.arange(replicas)       # replica index - first
    counts = np.outer(spec.initial, np.ones(replicas))
    internal = np.zeros((n, replicas))
    threshold = draws[:, :n].T.copy()
    col = n
    t = np.zeros(replicas)
    gi = np.zeros(replicas, dtype=np.intp)
    g_next = np.full(replicas, grid_next[0])
    # new_time > stop ends a replica; with an infinite horizon only absorption
    stop = t_end if t_end < math.inf else np.finfo(float).max
    k = 0                           # events fired so far by every live replica

    with np.errstate(divide="ignore", invalid="ignore"):
        while len(ids):
            rate = lam_over_m * counts * counts.take(nxt, axis=0)
            gap = (threshold - internal) / rate
            if not rate.all():
                gap[rate == 0.0] = math.inf
            dt = gap.min(axis=0)
            new_time = t + dt

            done = new_time > stop
            if np.count_nonzero(done):
                out = ids[done]
                final[out] = ended = counts.compress(done, axis=1).T
                n_events[out] = k
                hit = dt[done] == math.inf
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
            fire = gap == dt        # the first minimum of each column fires
            if np.count_nonzero(fire) != len(ids):
                fire &= fire.cumsum(axis=0) == 1
            fired = fire.astype(float)

            cross = g_next < new_time
            if np.count_nonzero(cross):
                # grid times before the event record the pre-event state:
                # the first one of each replica, then any further ones
                rows = np.flatnonzero(cross)
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
                if bad.any():
                    # internal-time drift: rerun serially up to the first
                    # failing replica, so the error is the serial path's
                    last = first + int(ids[bad.any(axis=0)][0])
                    for i in range(first, last + 1):
                        _replica(spec, t_end, grid, base_seed, i, max_events)
                    raise AssertionError("lockstep and serial engines disagree")
                np.minimum(advanced, threshold, out=advanced)
            internal = advanced
            # + 0.0 leaves an unfired clock's threshold as it was; the draw
            # column is read strided once, not once per row of the product
            threshold += fired * (draws[:, col].copy() if len(ids) == replicas
                                  else draws[ids, col])
            col += 1
            counts += fired
            counts -= fired.take(prv, axis=0)
            t = new_time
            k += 1
            if k > max_events:
                # every live replica exceeds it now; the lowest-indexed one
                # is the first a serial run would meet
                exc = BudgetExceeded(f"exceeded {max_events} events at "
                                     f"t={t[0]:.6g} (horizon {t_end})")
                raise ReplicaError(first + int(ids[0]), exc) from exc
            # exact: the column sums are integers far below 2**53
            if np.count_nonzero(counts.sum(axis=0) != total):
                raise AssertionError("population conservation violated")  # unreachable
            if log is not None:
                steps[0].frombytes(t.view(np.uint8))
                # the fired clock's index: one mark in each column
                steps[1].frombytes(np.einsum("j,jr->r", reaction, fire)
                                   .view(np.uint8))

    if log is not None:
        # replica first + i's event k is entry start[i] + k of the chunk's
        # events; each step log is freed before the log grows
        np.cumsum(n_events, out=ends)
        start = ends - n_events
        ends += len(log[0])
        for out in log:
            step = np.frombuffer(steps.pop(0), dtype=out.typecode)
            chunk, live, lo = np.empty_like(step), np.arange(replicas), 0
            for k in range(n_events.max()):
                live = live[n_events[live] > k]     # the live rows at step k
                chunk[start[live] + k] = step[lo:lo + len(live)]
                lo += len(live)
            del step
            out.frombytes(chunk.view(np.uint8))


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
    replica, as a serial run would report it.
    """
    replicas = check_seed(replicas, "replica count")
    if replicas < 1:
        raise DomainError(f"need at least one replica, got {replicas}")
    # checked once here so a bad input is not reported as a replica failure
    grid = _check_run(t_end, grid)
    base_seed = check_seed(base_seed)
    if record_events is None:
        record_events = _expected_events(spec, t_end) < RETENTION_LIMIT
    # the ensemble's arrays, each engine writing its replicas' rows, and one
    # log of raw doubles and shorts, which np.asarray views without a copy
    samples = np.empty((replicas, len(grid), spec.n), dtype=np.int64)
    final = np.empty((replicas, spec.n), dtype=np.int64)
    absorbed = np.full(replicas, math.nan)
    offsets = np.zeros(replicas + 1, dtype=np.int64)
    ends = offsets[1:]              # the log's length after each replica
    log = (array.array("d"), array.array("h")) if record_events else None
    if replicas < _LOCKSTEP_MIN:
        for i in range(replicas):
            traj = _replica(spec, t_end, grid, base_seed, i, max_events, log)
            samples[i], final[i] = traj.samples, traj.final_counts
            absorbed[i] = math.nan if traj.absorbed is None else traj.absorbed
            ends[i] = len(log[0]) if log else 0
    else:
        # in near-equal chunks of at most _LOCKSTEP_MAX, to bound memory
        size = -(-replicas // -(-replicas // _LOCKSTEP_MAX))
        for first in range(0, replicas, size):
            rows = slice(first, first + size)
            _run_lockstep(spec, first, t_end, grid, base_seed, max_events,
                          samples[rows], final[rows], absorbed[rows],
                          ends[rows], log)
    times, reactions = map(np.asarray, log) if log else (None, None)
    return Ensemble(
        spec=spec, grid=grid, base_seed=base_seed, samples=samples,
        final_counts=final, absorbed=absorbed,
        final_time=np.where(np.isnan(absorbed), t_end, absorbed),
        event_times=times, event_reactions=reactions,
        event_offsets=offsets if log else None)
