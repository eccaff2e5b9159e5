import dataclasses
import functools
import itertools
import math
import re
import tracemalloc
import unittest.mock

import numpy as np
import pytest
import rpsim.simulate
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rpsim import (
    BudgetExceeded,
    DomainError,
    Ensemble,
    MissingEventLog,
    ModelSpec,
    NumericError,
    ReplicaError,
    ValidationConfig,
    counts_from_fractions,
    integrate,
    rng_stream,
    run_ensemble,
    run_until,
    symmetric_counts,
    trajectories_identical,
)
from rpsim.core import MAX_SPECIES, STREAM_BLOCK
from rpsim.simulate import DEFAULT_MAX_EVENTS, _LOCKSTEP_DRAWS, _run


class FixedDraws:
    """Stands in for a numpy Generator: the engine's first block of Exp(1)
    draws is ``values`` (the initial clock thresholds, then the draws of the
    first events), padded with a gap too large to matter."""

    def __init__(self, *values, pad=1e9):
        self.values = values
        self.pad = pad

    def standard_exponential(self, size=None, out=None):
        if out is None:
            out = np.empty(size)
        out[:] = self.pad
        out[:len(self.values)] = self.values
        self.values = ()
        return out


def one_replica(traj) -> Ensemble:
    """``traj``, a trajectory with its event log, as a one-replica
    ensemble on its arrays."""
    absorbed = math.nan if traj.absorbed is None else traj.absorbed
    return Ensemble(spec=traj.spec, grid=traj.grid, base_seed=0,
                    samples=traj.samples[None],
                    final_counts=np.array([traj.final_counts]),
                    absorbed=np.array([absorbed]),
                    final_time=np.array([traj.final_time]),
                    event_times=traj.event_times,
                    event_reactions=traj.event_reactions,
                    event_offsets=np.array([0, traj.n_events]))


def counts_at(traj, t):
    """The state of ``traj`` after its events at times <= ``t``, from the
    jump counts of a one-replica ensemble (reaction j moves one unit from
    species j+1 to species j)."""
    jumps = one_replica(traj).replay(t)[0][0]
    return np.asarray(traj.spec.initial) + jumps - np.roll(jumps, 1)


def run_fixed(counts, thresholds, t_end=1.0, lam=3.0):
    spec = ModelSpec(n=len(counts), lam=lam, total=sum(counts),
                     initial=counts)
    return run_until(spec, t_end, np.array([0.0, t_end]),
                     FixedDraws(*thresholds), seed=0, record_events=True)


class TestNextEvent:
    # run_until's waiting times are fully determined by injected clock
    # thresholds, so these are exact hand-computed checks of the
    # time-change construction

    def test_single_active_reaction(self):
        # rate of reaction 0 is (3/3)*2*1 = 2, gap 0.5 -> fires at dt = 0.25
        traj = run_fixed((2, 1, 0), (0.5, 0.5, 0.5))
        assert traj.event_times.tolist() == [0.25]
        assert traj.event_reactions.tolist() == [0]
        assert traj.final_counts == (3, 0, 0)
        assert one_replica(traj).replay(1.0)[0].tolist() == [[1, 0, 0]]

    def test_absorbing_state_returns_absorbed(self):
        # (3,0,0) has no active pair: absorbed at once, and after the single
        # event from (2,1,0) at t=0.25
        traj = run_fixed((3, 0, 0), (0.5, 0.5, 0.5))
        assert (traj.absorbed, traj.n_events) == (0.0, 0)
        assert traj.samples.tolist() == [[3, 0, 0], [3, 0, 0]]
        traj = run_fixed((2, 1, 0), (0.5, 0.5, 0.5))
        assert (traj.absorbed, traj.final_time) == (0.25, 0.25)

    def test_smallest_candidate_wins_and_clocks_advance(self):
        # all rates are 1, so candidate dts equal the thresholds: reaction 1
        # fires at 0.3 -> (1,2,0).  Reaction 0's clock advanced to 0.3 on the
        # way, and its rate is now 2, so it fires (0.9-0.3)/2 later at 0.6
        # (0.9/2 later, at 0.75, had it not advanced); reaction 1's fresh
        # threshold lies beyond the horizon
        traj = run_fixed((1, 1, 1), (0.9, 0.3, 0.6))
        assert traj.event_reactions.tolist() == [1, 0]
        assert traj.event_times.tolist() == [0.3, 0.3 + (0.9 - 0.3) / 2]
        assert traj.final_counts == (2, 1, 0)

    def test_tie_breaks_to_lowest_index(self):
        traj = run_fixed((1, 1, 1), (0.5, 0.5, 0.5))
        assert traj.event_reactions[0] == 0

    def test_zero_rate_reaction_never_fires(self):
        # reaction 1 has rate x2*x3 = 0 despite the smallest threshold
        traj = run_fixed((2, 1, 0), (0.7, 1e-12, 0.9))
        assert traj.event_reactions.tolist() == [0]
        assert traj.event_times.tolist() == [0.35]


class TestOvershootClamp:
    # three equal rates and thresholds: reaction 0 wins the tie, and
    # rate * (h / rate) rounds one ulp above h, so clocks 1 and 2 are
    # carried past their thresholds as they advance
    H = 0.23668341708542714
    SPEC = ModelSpec(n=3, lam=0.7, total=3, initial=(1, 1, 1))

    def run(self):
        return run_until(self.SPEC, 10.0, [0.0, 10.0],
                         FixedDraws(self.H, self.H, self.H),
                         record_events=True)

    def test_clamped_clock_fires_at_the_same_time(self):
        rate = 0.7 / 3
        assert rate * (self.H / rate) > self.H
        traj = self.run()
        # clamped onto its threshold, clock 2 has zero gap once (2, 0, 1)
        # makes it the only live reaction
        assert traj.event_reactions.tolist() == [0, 2]
        assert traj.event_times.tolist() == [self.H / rate] * 2
        assert traj.event_times[0] == pytest.approx(1.0143575)
        assert traj.final_counts == (1, 0, 2)

    def test_guard_names_the_first_overshooting_clock(self, monkeypatch):
        monkeypatch.setattr(rpsim.simulate, "_OVERSHOOT_RTOL", 0.0)
        with pytest.raises(NumericError,
                           match=r"^clock 1 overshot its threshold by "
                                 r"2\.776e-17 \(internal-time drift\)$"):
            self.run()
        # the lockstep engine reports the serial engine's error; it builds
        # its streams in one batch and reruns replicas one stream at a time
        monkeypatch.setattr(rpsim.simulate, "rng_streams",
                            lambda base_seed, first, count:
                            [FixedDraws(*[self.H] * 3) for _ in range(count)])
        monkeypatch.setattr(rpsim.simulate, "rng_stream",
                            lambda base_seed, i: FixedDraws(*[self.H] * 3))
        with pytest.raises(ReplicaError, match="replica 0: clock 1") as err:
            run_ensemble(self.SPEC, 32, 10.0, [0.0, 10.0], 0)
        assert isinstance(err.value.__cause__, NumericError)

    def test_guard_names_a_later_replica(self, monkeypatch):
        # replicas 0-6 draw thresholds that do not tie and run clean; replica
        # 7 draws the tying ones, so the guard must point at its column
        monkeypatch.setattr(rpsim.simulate, "_OVERSHOOT_RTOL", 0.0)

        def draws(i):
            return FixedDraws(*[self.H] * 3) if i == 7 else \
                FixedDraws(0.9, 0.3, 0.6)

        monkeypatch.setattr(rpsim.simulate, "rng_streams",
                            lambda base_seed, first, count:
                            [draws(first + i) for i in range(count)])
        monkeypatch.setattr(rpsim.simulate, "rng_stream",
                            lambda base_seed, i: draws(i))
        with pytest.raises(ReplicaError,
                           match=r"^replica 7: clock 1 overshot its threshold "
                                 r"by 2\.776e-17") as err:
            run_ensemble(self.SPEC, 32, 10.0, [0.0, 10.0], 0)
        assert err.value.index == 7
        assert isinstance(err.value.__cause__, NumericError)


def reference_events(spec, t_end, rng):
    """One event at a time, scalar draws straight from ``rng``: the modified
    next reaction method as written in the textbook, for checking the
    buffered engine draw for draw.  Returns event times and reactions."""
    n = spec.n
    counts = list(spec.initial)
    internal = [0.0] * n
    threshold = [rng.standard_exponential() for _ in range(n)]
    t = 0.0
    times, reactions = [], []
    while True:
        rates = [spec.lam / spec.total * counts[j] * counts[(j + 1) % n]
                 for j in range(n)]
        waits = [(threshold[j] - internal[j]) / r if r > 0.0 else math.inf
                 for j, r in enumerate(rates)]
        best = min(range(n), key=waits.__getitem__)  # lowest index on ties
        if waits[best] == math.inf or t + waits[best] > t_end:
            return times, reactions
        for j in range(n):
            if rates[j] > 0.0:
                internal[j] = min(internal[j] + rates[j] * waits[best],
                                  threshold[j])
        internal[best] = threshold[best]
        threshold[best] = internal[best] + rng.standard_exponential()
        counts[best] += 1
        counts[(best + 1) % n] -= 1
        t = t + waits[best]
        times.append(t)
        reactions.append(best)


def grid01(points=5, t_end=1.0):
    return np.linspace(0.0, t_end, points)


class TestRunUntil:
    def test_matches_repeated_next_event(self):
        # the buffered production loop must reproduce the one-event reference
        # implementation draw for draw: a short run, one past the first
        # 4096-draw block, one to absorption, and runs at n = 6 and n = 64
        # (with zero-rate reactions among the live ones)
        for initial, lam, t_end, min_events in (
            ((5, 4, 3), 2.0, 3.0, 10),
            ((100, 100, 100, 100), 1.0, 50.0, 4096),
            ((2, 2, 2), 5.0, math.inf, 1),
            ((30, 10, 40, 10, 50, 90), 1.5, 3.0, 100),
            (tuple(3 * (j % 5) for j in range(64)), 2.0, 50.0, 500),
        ):
            spec = ModelSpec(n=len(initial), lam=lam, total=sum(initial),
                             initial=initial)
            grid = grid01(7, t_end) if math.isfinite(t_end) else []
            traj = run_until(spec, t_end, grid, rng_stream(11, 0), seed=0,
                             record_events=True)

            times, reactions = reference_events(spec, t_end,
                                                rng_stream(11, 0))
            assert len(times) >= min_events
            assert traj.event_times.tolist() == times
            assert traj.event_reactions.tolist() == reactions
            assert (traj.absorbed is None) == math.isfinite(t_end)
            # grid samples are the post-event counts at each grid time
            for g, row in zip(traj.grid, traj.samples):
                assert row.tolist() == counts_at(traj, g).tolist()

    @pytest.mark.parametrize("initial, lam, t_end, absorbs", [
        (symmetric_counts(3, 2**53), 1.0, 1e-14, False),    # largest total
        ((2, 2, 2), 5.0, math.inf, True),
        ((30, 20, 40), 1.0, 2.0, False),
    ])
    def test_counts_come_back_as_ints(self, initial, lam, t_end, absorbs):
        # the loop holds the counts as floats, exact up to the 2**53 cap,
        # and returns them as Python ints
        spec = ModelSpec(n=3, lam=lam, total=sum(initial), initial=initial)
        grid = [0.0, t_end] if math.isfinite(t_end) else [0.0]
        traj = run_until(spec, t_end, grid, rng_stream(4, 0),
                         record_events=True)
        assert (traj.absorbed is not None) == absorbs
        assert traj.n_events > 0
        assert all(type(c) is int for c in traj.final_counts)
        assert list(traj.final_counts) == \
            counts_at(traj, traj.final_time).tolist()
        assert traj.samples.dtype == np.int64
        assert traj.samples[0].tolist() == list(initial)
        if not absorbs:
            assert traj.samples[-1].tolist() == list(traj.final_counts)

    def test_deterministic_across_runs(self):
        spec = ModelSpec(n=4, lam=1.5, total=40, initial=(10, 10, 10, 10))
        a = run_until(spec, 2.0, grid01(9, 2.0), rng_stream(3, 0), seed=0)
        b = run_until(spec, 2.0, grid01(9, 2.0), rng_stream(3, 0), seed=0)
        assert trajectories_identical(a, b)

    def test_absorption_freezes_remaining_grid(self):
        # high rate + tiny population absorbs almost immediately
        spec = ModelSpec(n=3, lam=50.0, total=3, initial=(1, 1, 1))
        traj = run_until(spec, 100.0, grid01(11, 100.0), rng_stream(0, 0),
                         seed=0, record_events=True)
        assert traj.absorbed is not None
        assert traj.final_time == traj.absorbed
        final = np.array(traj.final_counts)
        assert sorted(traj.final_counts) == [0, 0, 3]
        tail = traj.grid >= traj.absorbed
        assert np.all(traj.samples[tail] == final)

    def test_absorbing_states_are_single_species(self):
        # every absorbed replica must land on a one-species state: for
        # total=3 those are exactly the three permutations of (3,0,0)
        spec = ModelSpec(n=3, lam=10.0, total=3, initial=(1, 1, 1))
        finals = set()
        for i in range(40):
            traj = run_until(spec, 1e6, np.array([]), rng_stream(17, i),
                             seed=i, record_events=True)
            assert traj.absorbed is not None
            finals.add(traj.final_counts)
        assert finals <= {(3, 0, 0), (0, 3, 0), (0, 0, 3)}
        assert len(finals) > 1  # sanity: more than one outcome seen

    def test_absorbing_exactly_when_no_adjacent_pair_survives(self):
        # absorbed at t=0 iff no cyclically adjacent pair of species is both
        # positive; for n >= 4 that allows non-adjacent survivors (5,0,5,0).
        # Checked on every state with counts in {0, 1, 2} for n = 3, 4, 5.
        states = [(5, 0, 5, 0), (5, 5, 0, 0), (1, 0, 1, 0, 1)]
        for n in (3, 4, 5):
            states += [c for c in itertools.product(range(3), repeat=n) if sum(c)]
        for counts in states:
            n = len(counts)
            spec = ModelSpec(n=n, lam=1.0, total=sum(counts), initial=counts)
            traj = run_until(spec, 0.0, np.array([]), rng_stream(0, 0), seed=0)
            alive_pair = any(counts[j] and counts[(j + 1) % n] for j in range(n))
            assert (traj.absorbed is not None) is not alive_pair, counts
            if traj.absorbed is not None:
                assert traj.absorbed == 0.0

    def test_t_end_zero(self):
        spec = ModelSpec(n=3, lam=1.0, total=9, initial=(3, 3, 3))
        traj = run_until(spec, 0.0, np.array([0.0]), rng_stream(0, 0), seed=0)
        assert traj.samples.tolist() == [[3, 3, 3]]
        assert traj.final_time == 0.0

    def test_empty_grid(self):
        spec = ModelSpec(n=3, lam=1.0, total=9, initial=(3, 3, 3))
        traj = run_until(spec, 1.0, np.array([]), rng_stream(0, 0), seed=0,
                         record_events=True)
        assert traj.samples.shape == (0, 3)
        assert sum(traj.final_counts) == 9

    def test_budget_exceeded(self):
        spec = ModelSpec(n=3, lam=1.0, total=300, initial=(100, 100, 100))
        with pytest.raises(BudgetExceeded):
            run_until(spec, 50.0, np.array([0.0, 50.0]), rng_stream(0, 0),
                      seed=0, max_events=10)

    def test_samples_only_mode_drops_log(self):
        spec = ModelSpec(n=3, lam=1.0, total=30, initial=(10, 10, 10))
        traj = run_until(spec, 1.0, grid01(3), rng_stream(0, 0), seed=0,
                         record_events=False)
        assert not traj.has_event_log
        with pytest.raises(MissingEventLog):
            traj.n_events

    def test_retention_default_keeps_log_for_small_runs(self):
        spec = ModelSpec(n=3, lam=1.0, total=30, initial=(10, 10, 10))
        traj = run_until(spec, 1.0, grid01(3), rng_stream(0, 0), seed=0)
        assert traj.has_event_log

    def test_retention_default_drops_log_for_huge_runs(self):
        # expected events = initial rate * horizon >= 1e7 -> samples-only;
        # the run itself ends long before that, at absorption
        spec = ModelSpec(n=3, lam=1.0, total=1000,
                         initial=(334, 333, 333))
        traj = run_until(spec, 40_000.0, np.array([0.0]), rng_stream(0, 0),
                         seed=0)
        assert not traj.has_event_log
        assert traj.absorbed is not None

    @pytest.mark.parametrize("bad", [
        np.array([0.5, 0.2]),           # not ascending
        np.array([-0.1, 0.5]),          # negative
        np.array([0.0, 2.0]),           # beyond t_end
        [0.0, "x"],                     # not numbers
        np.array([[0.0, 0.5]]),         # two-dimensional
    ])
    def test_grid_validation(self, bad):
        spec = ModelSpec(n=3, lam=1.0, total=9, initial=(3, 3, 3))
        with pytest.raises(DomainError):
            run_until(spec, 1.0, bad, rng_stream(0, 0), seed=0)

    def test_negative_horizon_rejected(self):
        spec = ModelSpec(n=3, lam=1.0, total=9, initial=(3, 3, 3))
        with pytest.raises(DomainError):
            run_until(spec, -1.0, np.array([]), rng_stream(0, 0), seed=0)

    @given(
        counts=st.lists(st.integers(min_value=0, max_value=8),
                        min_size=3, max_size=5).filter(lambda c: sum(c) >= 1),
        lam=st.floats(min_value=0.1, max_value=5.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40)
    def test_population_is_conserved_along_any_run(self, counts, lam, seed):
        spec = ModelSpec(n=len(counts), lam=lam, total=sum(counts),
                         initial=tuple(counts))
        traj = run_until(spec, 1.0, grid01(4), rng_stream(seed, 0), seed=0,
                         record_events=True)
        assert np.all(traj.samples.sum(axis=1) == spec.total)
        for t in traj.event_times:
            after = counts_at(traj, t)
            assert after.sum() == spec.total and after.min() >= 0


class TestRunEnsemble:
    def test_shape_and_reproducibility(self):
        spec = ModelSpec(n=3, lam=1.0, total=60, initial=(20, 20, 20))
        a = run_ensemble(spec, 5, 1.0, grid01(4), base_seed=9)
        b = run_ensemble(spec, 5, 1.0, grid01(4), base_seed=9)
        assert a.samples.shape == (5, 4, 3)
        for ta, tb in zip(a.trajectories, b.trajectories):
            assert trajectories_identical(ta, tb)

    def test_workers_do_not_change_results(self):
        spec = ModelSpec(n=3, lam=1.0, total=60, initial=(20, 20, 20))
        serial = run_ensemble(spec, 8, 1.0, grid01(4), base_seed=9, workers=1)
        threaded = run_ensemble(spec, 8, 1.0, grid01(4), base_seed=9,
                                workers=4)
        for ta, tb in zip(serial.trajectories, threaded.trajectories):
            assert trajectories_identical(ta, tb)

    def test_replicas_use_independent_streams(self):
        spec = ModelSpec(n=3, lam=1.0, total=60, initial=(20, 20, 20))
        ens = run_ensemble(spec, 3, 1.0, grid01(4), base_seed=9,
                           record_events=True)
        logs = {tuple(t.event_times.tolist()) for t in ens.trajectories}
        assert len(logs) == 3
        assert [t.seed for t in ens.trajectories] == [0, 1, 2]

    def test_replica_error_carries_index(self):
        spec = ModelSpec(n=3, lam=1.0, total=300, initial=(100, 100, 100))
        with pytest.raises(ReplicaError) as err:
            run_ensemble(spec, 2, 50.0, np.array([0.0]), base_seed=0,
                         max_events=5)
        assert err.value.index == 0
        assert isinstance(err.value.__cause__, BudgetExceeded)

    def test_replica_error_carries_a_later_index(self):
        # replica 0 fits the budget, replica 1 does not
        spec = ModelSpec(n=3, lam=1.0, total=300, initial=(100, 100, 100))
        ens = run_ensemble(spec, 2, 1.0, np.array([0.0]), base_seed=1,
                           record_events=True)
        first, second = np.diff(ens.event_offsets).tolist()
        assert first < second
        with pytest.raises(ReplicaError) as err:
            run_ensemble(spec, 2, 1.0, np.array([0.0]), base_seed=1,
                         record_events=True, max_events=first)
        assert err.value.index == 1
        assert isinstance(err.value.__cause__, BudgetExceeded)

    def test_event_log_is_kept_in_one_copy(self, monkeypatch):
        # both engines append to one shared log, which the ensemble views
        # without a copy.  One replica at a time, concatenating per-replica
        # logs would peak at twice the log; in lockstep, with replicas that
        # absorb at very different steps, a (replicas, longest log) block of
        # events peaked at 12 times the log, and placing the step log by a
        # stable sort, with its 8-byte index an event, at 2.8 times on the
        # third case.  Small draw blocks keep the engines' own buffers small
        # next to the log (block size never changes a draw).
        import tracemalloc
        monkeypatch.setattr(rpsim.simulate, "_EXP_BLOCK", 64)
        monkeypatch.setattr(rpsim.simulate, "_LOCKSTEP_DRAWS", 16)
        for spec, replicas, t_end, grid, bound in [
            (ModelSpec(n=3, lam=1.0, total=300, initial=(100, 100, 100)), 4,
             30.0, [0.0, 30.0], 1.25),
            (ModelSpec(n=3, lam=1.0, total=30, initial=(10, 10, 10)), 400,
             math.inf, [], 4.0),
            (ModelSpec(n=3, lam=1.0, total=60, initial=(20, 20, 20)), 500,
             math.inf, [], 2.5),
        ]:
            run_ensemble(spec, replicas, 1.0, [0.0, 1.0], 1,
                         record_events=True)
            tracemalloc.start()
            try:
                ens = run_ensemble(spec, replicas, t_end, grid, 1,
                                   record_events=True)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            log = ens.event_times.nbytes + ens.event_reactions.nbytes
            assert log > 10**5
            assert peak < bound * log, (replicas, peak / log)
            assert_matches_run_until(ens, t_end, grid, True)

    def test_bad_grid_is_reported_before_any_replica(self):
        spec = ModelSpec(n=3, lam=1.0, total=9, initial=(3, 3, 3))
        with pytest.raises(DomainError) as err:
            run_ensemble(spec, 2, 1.0, np.array([0.5, 0.2]), base_seed=0)
        assert not isinstance(err.value, ReplicaError)
        assert str(err.value).startswith("grid must be ascending")

    def test_species_count_must_fit_the_reaction_log(self):
        # reactions are logged as int16: reaction 39 998 would wrap, but the
        # cap refuses such a model, so neither engine can be handed one
        init = [0] * 40_000
        init[-2:] = 1, 1
        with pytest.raises(DomainError, match="at most 1024 species"):
            ModelSpec(n=40_000, lam=1.0, total=2, initial=tuple(init))
        # at the largest count, the lockstep engine logs reaction n - 2
        n = MAX_SPECIES
        spec = ModelSpec(n=n, lam=1.0, total=2, initial=tuple(init[-n:]))
        ens = run_ensemble(spec, 32, math.inf, [], 0, record_events=True)
        assert ens.event_reactions.tolist() == [n - 2] * 32

    @pytest.mark.parametrize("seed", [-1, 1.5, "7"])
    @pytest.mark.parametrize("replicas", [4, 40])
    def test_bad_base_seed_is_not_blamed_on_a_replica(self, replicas, seed):
        spec = ModelSpec(n=3, lam=1.0, total=9, initial=(3, 3, 3))
        with pytest.raises(DomainError, match="base seed must be a "
                           "non-negative integer") as err:
            run_ensemble(spec, replicas, 1.0, grid01(3), seed)
        assert not isinstance(err.value, ReplicaError)

    def test_rejects_zero_replicas(self):
        spec = ModelSpec(n=3, lam=1.0, total=9, initial=(3, 3, 3))
        with pytest.raises(DomainError):
            run_ensemble(spec, 0, 1.0, grid01(3), base_seed=0)

    @pytest.mark.parametrize("replicas", [2.0, "3", True, -1])
    def test_bad_replica_count_is_a_domain_error(self, replicas):
        spec = ModelSpec(n=3, lam=1.0, total=9, initial=(3, 3, 3))
        with pytest.raises(DomainError, match="replica count must be a "
                           "non-negative integer"):
            run_ensemble(spec, replicas, 1.0, grid01(3), base_seed=0)


def assert_matches_run_until(ens, t_end, grid, record_events):
    """Every replica of ``ens`` equals run_until on its own stream, bit for
    bit: samples, final counts, absorption, event times and reactions."""
    for i, traj in enumerate(ens.trajectories):
        ref = run_until(ens.spec, t_end, grid, rng_stream(ens.base_seed, i),
                        seed=i, record_events=record_events)
        assert trajectories_identical(traj, ref), i


class TestLockstep:
    # ensembles of _LOCKSTEP_MIN replicas or more are stepped together on
    # arrays; each replica must still be exactly its run_until trajectory

    @given(
        counts=st.lists(st.integers(min_value=0, max_value=10),
                        min_size=3, max_size=5)
        .filter(lambda c: 1 <= sum(c) <= 30),
        lam=st.floats(min_value=0.1, max_value=5.0),
        replicas=st.integers(min_value=32, max_value=64),
        seed=st.integers(min_value=0, max_value=2**31),
        record_events=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_run_until(self, counts, lam, replicas, seed,
                               record_events):
        spec = ModelSpec(n=len(counts), lam=lam, total=sum(counts),
                         initial=tuple(counts))
        grid = grid01(4)
        ens = run_ensemble(spec, replicas, 1.0, grid, seed,
                           record_events=record_events)
        assert_matches_run_until(ens, 1.0, grid, record_events)

    @pytest.mark.parametrize("counts, thresholds, lam", [
        ((1, 1, 1), (0.9, 0.3, 0.6), 3.0),    # the other clocks advance
        ((1, 1, 1), (0.5, 0.5, 0.5), 3.0),    # a tie goes to reaction 0
        ((2, 1, 0), (0.7, 1e-12, 0.9), 3.0),  # a zero-rate clock never fires
        ((2, 2, 2), (0.1, 0.1, 0.7), 0.3),    # the tie's loser is clipped
    ])
    def test_injected_draws(self, monkeypatch, counts, thresholds, lam):
        # every replica gets the same hand-picked thresholds, as in
        # TestNextEvent, and must match run_until on them
        spec = ModelSpec(n=len(counts), lam=lam, total=sum(counts),
                         initial=counts)
        grid = np.array([0.0, 0.5, 1.0])
        monkeypatch.setattr(rpsim.simulate, "rng_streams",
                            lambda base_seed, first, count:
                            [FixedDraws(*thresholds) for _ in range(count)])
        ens = run_ensemble(spec, 32, 1.0, grid, 0, record_events=True)
        for i, traj in enumerate(ens.trajectories):
            ref = run_until(spec, 1.0, grid, FixedDraws(*thresholds),
                            seed=i, record_events=True)
            assert trajectories_identical(traj, ref)
        if lam == 0.3:
            # (0.1/r)*r rounds above 0.1 for r = 0.3/6*2*2; clipped, the
            # losing clock sits on its threshold and fires at the same time
            assert ref.event_reactions[:2].tolist() == [0, 1]
            assert ref.event_times[0] == ref.event_times[1]

    @pytest.mark.parametrize("record_events", [True, False])
    def test_grid_point_exactly_at_an_event(self, record_events):
        # a grid time equal to an event time records the post-event state,
        # also when an earlier grid time falls in the same waiting time
        spec = ModelSpec(n=3, lam=1.0, total=30, initial=(10, 10, 10))
        log = run_until(spec, 1.0, (), rng_stream(4, 5), seed=5,
                        record_events=True)
        before, at = log.event_times[1:3]
        grid = np.array([0.0, (before + at) / 2, at, at, 1.0])
        ens = run_ensemble(spec, 40, 1.0, grid, 4, record_events=record_events)
        assert_matches_run_until(ens, 1.0, grid, record_events)
        assert ens.trajectories[5].samples[2].tolist() == \
            counts_at(log, at).tolist()

    @pytest.mark.parametrize("grid", [[], [0.0], [1.0], [0.0, 1.0]])
    @pytest.mark.parametrize("record_events", [True, False])
    def test_empty_and_end_point_grids(self, grid, record_events):
        spec = ModelSpec(n=4, lam=2.0, total=20, initial=(5, 5, 5, 5))
        ens = run_ensemble(spec, 32, 1.0, grid, 6, record_events=record_events)
        assert_matches_run_until(ens, 1.0, grid, record_events)

    @pytest.mark.parametrize("record_events", [True, False])
    def test_run_past_several_draw_blocks(self, record_events):
        # from m of each species the events come at about m per unit time,
        # so each replica takes about 6 blocks of draws by t = 3
        m = 2 * _LOCKSTEP_DRAWS
        spec = ModelSpec(n=3, lam=1.0, total=3 * m, initial=(m, m, m))
        grid = grid01(31, 3.0)
        ens = run_ensemble(spec, 32, 3.0, grid, 8, record_events=True)
        assert min(t.n_events for t in ens.trajectories) > 3 * _LOCKSTEP_DRAWS
        ens = run_ensemble(spec, 32, 3.0, grid, 8,
                           record_events=record_events)
        assert_matches_run_until(ens, 3.0, grid, record_events)

    def test_absorption_with_infinite_horizon(self):
        # replicas absorb at very different steps and leave the batch
        spec = ModelSpec(n=3, lam=1.0, total=12, initial=(4, 4, 4))
        ens = run_ensemble(spec, 48, math.inf, [], 2, record_events=True)
        assert all(t.absorbed is not None for t in ens.trajectories)
        assert len({t.n_events for t in ens.trajectories}) > 5
        assert_matches_run_until(ens, math.inf, [], True)

    @pytest.mark.parametrize("spec, t_end, grid", [
        # replicas absorb at staggered steps; the survivors refill afterwards
        (ModelSpec(n=3, lam=1.0, total=12, initial=(4, 4, 4)), math.inf, []),
        # replicas pass the horizon at staggered steps, sampled densely
        (ModelSpec(n=4, lam=2.0, total=40, initial=(10, 10, 10, 10)), 2.0,
         grid01(201, 2.0)),
    ])
    def test_draw_block_width_changes_no_value(self, monkeypatch, spec, t_end,
                                               grid):
        # the width of the draw buffer (at least n columns) sets only when
        # it is refilled, never a value; the budget stops a replica that a
        # wrong draw keeps from absorbing
        runs = []
        for width in (1, 2, 7, 256):
            monkeypatch.setattr(rpsim.simulate, "_LOCKSTEP_DRAWS", width)
            runs.append(run_ensemble(spec, 48, t_end, grid, 2,
                                     record_events=True, max_events=10**4))
        assert len(set(np.diff(runs[0].event_offsets).tolist())) > 5
        for ens in runs[1:]:
            assert_same_arrays(ens, runs[0])
        assert_matches_run_until(runs[0], t_end, grid, True)

    def test_31_and_32_replicas_agree(self, monkeypatch):
        # 31 replicas run one by one through run_until, 32 in lockstep
        spec = ModelSpec(n=3, lam=1.0, total=60, initial=(20, 20, 20))
        grid = grid01(5)
        serial = run_ensemble(spec, 31, 1.0, grid, 12, record_events=True)

        def no_run_until(*args, **kwargs):
            raise AssertionError("run_until called")

        monkeypatch.setattr(rpsim.simulate, "run_until", no_run_until)
        with pytest.raises(AssertionError):
            run_ensemble(spec, 31, 1.0, grid, 12)
        lockstep = run_ensemble(spec, 32, 1.0, grid, 12, record_events=True)
        monkeypatch.undo()
        for a, b in zip(serial.trajectories, lockstep.trajectories):
            assert trajectories_identical(a, b)
        assert_matches_run_until(lockstep, 1.0, grid, True)

    def test_chunked_ensemble(self, monkeypatch):
        # more than STREAM_BLOCK replicas run in several lockstep batches
        spec = ModelSpec(n=3, lam=1.0, total=3, initial=(1, 1, 1))
        ens = run_ensemble(spec, STREAM_BLOCK + 1, 40.0, [], 13,
                           record_events=True)
        assert [t.seed for t in ens.trajectories] == \
            list(range(STREAM_BLOCK + 1))
        assert_matches_run_until(ens, 40.0, [], True)
        # three batches of 34, 34 and 32 replicas run to absorption, each
        # appending its events to the one log after the batch before it
        monkeypatch.setattr(rpsim.simulate, "STREAM_BLOCK", 40)
        spec = ModelSpec(n=3, lam=1.0, total=30, initial=(10, 10, 10))
        ens = run_ensemble(spec, 100, math.inf, [], 21, record_events=True)
        lengths = np.diff(ens.event_offsets)
        assert lengths.max() > 10 * lengths.min()
        assert np.isfinite(ens.absorbed).all()
        assert_matches_run_until(ens, math.inf, [], True)

    @given(
        counts=st.lists(st.integers(min_value=0, max_value=6),
                        min_size=3, max_size=5)
        .filter(lambda c: 1 <= sum(c) <= 20),
        replicas=st.integers(min_value=32, max_value=80),
        chunks=st.integers(min_value=2, max_value=3),
        t_end=st.sampled_from([0.05, 1.0, math.inf]),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @example(counts=[5, 0, 0], replicas=40, chunks=2, t_end=math.inf, seed=0)
    @settings(max_examples=30, deadline=None)
    def test_event_log_is_placed_in_replica_order(self, counts, replicas,
                                                  chunks, t_end, seed):
        # each chunk logs its events step by step, then places them by a
        # stable sort; every replica's slice of the flat log must be its
        # own run, whatever the chunks and however many events each fired
        spec = ModelSpec(n=len(counts), lam=1.0, total=sum(counts),
                         initial=tuple(counts))
        grid = [0.0] if t_end == math.inf else [0.0, t_end]
        with unittest.mock.patch.object(rpsim.simulate, "STREAM_BLOCK",
                                        -(-replicas // chunks)):
            ens = run_ensemble(spec, replicas, t_end, grid, seed,
                               record_events=True)
        assert_matches_run_until(ens, t_end, grid, True)

    def test_largest_total_matches_run_until(self):
        # at 2**53 the float64 counts of the lockstep engine are still exact
        total = 2**53
        spec = ModelSpec(n=3, lam=1.0, total=total,
                         initial=symmetric_counts(3, total))
        ens = run_ensemble(spec, 32, 1e-14, [0.0, 1e-14], 0,
                           record_events=True)
        assert ens.event_offsets[-1] > 32 * 10
        assert_matches_run_until(ens, 1e-14, [0.0, 1e-14], True)

    def test_budget_names_the_same_replica_as_a_serial_run(self):
        # replicas 0-4 absorb within the budget, replica 5 is the first to
        # exceed it, and higher replicas exceed it as well
        spec = ModelSpec(n=3, lam=1.0, total=12, initial=(4, 4, 4))
        serial = None
        for i in range(40):
            try:
                run_until(spec, math.inf, [], rng_stream(2, i), seed=i,
                          max_events=40)
            except BudgetExceeded as exc:
                serial = (i, f"replica {i}: {exc}")
                break
        assert serial is not None and serial[0] == 5
        with pytest.raises(ReplicaError) as err:
            run_ensemble(spec, 40, math.inf, [], 2, max_events=40)
        assert (err.value.index, str(err.value)) == serial
        assert isinstance(err.value.__cause__, BudgetExceeded)


def one_call_each(specs, replicas, t_end, grid, base_seeds, **kw):
    """What a merged run must equal: one run_ensemble call per spec."""
    kw.setdefault("record_events", False)
    return [run_ensemble(spec, replicas, t_end, grid, seed, **kw)
            for spec, seed in zip(specs, base_seeds)]


def merged(specs, replicas, t_end, grid, base_seeds,
           max_events=DEFAULT_MAX_EVENTS):
    """The specs' ensembles as one run, each spec labelled by its index."""
    return _run(specs, replicas, t_end, grid, base_seeds, False, max_events,
                range(len(specs)))


def assert_each_is_its_own_run(specs, replicas, t_end, grid, base_seeds):
    ensembles = merged(specs, replicas, t_end, grid, base_seeds)
    alone = one_call_each(specs, replicas, t_end, grid, base_seeds)
    assert len(ensembles) == len(alone)
    for one, single in zip(ensembles, alone):
        assert_same_arrays(one, single)
    return ensembles


class TestMergedRun:
    # the engine runs several specs' replicas as one set of spec-major
    # columns, as validate runs its LLN populations; each ensemble must
    # equal its own run_ensemble call, byte for byte

    @pytest.mark.parametrize("replicas", [8, 32])
    def test_validate_lln_populations(self, replicas):
        config = ValidationConfig()
        specs = [ModelSpec(n=config.n, lam=config.lam, total=m,
                           initial=counts_from_fractions(
                               config.model_fractions(), m))
                 for m in config.lln_populations]
        grid = np.linspace(0.0, config.lln_time, config.lln_grid_points)
        assert_each_is_its_own_run(specs, replicas, config.lln_time, grid,
                                   [43, 44, 45, 46])

    def test_replicas_that_absorb_leave_a_merged_chunk(self):
        # 40 columns step together; the small population's replicas absorb
        # and leave while the larger one's run on
        specs = [ModelSpec(n=3, lam=1.0, total=m,
                           initial=counts_from_fractions(
                               np.array([0.5, 0.3, 0.2]), m))
                 for m in (6, 24)]
        small, large = assert_each_is_its_own_run(
            specs, 20, 2.0, grid01(11, 2.0), [3, 4])
        assert 0 < np.isfinite(small.absorbed).sum() < 20
        assert np.isnan(large.absorbed).any()

    def test_a_chunk_spans_two_specs(self, monkeypatch):
        # 120 columns in chunks of at most 70: two of 60, each holding
        # replicas of two specs, against one chunk of 40 for each spec alone
        monkeypatch.setattr(rpsim.simulate, "STREAM_BLOCK", 70)
        chunks = []
        lockstep = rpsim.simulate._run_lockstep

        def recorded(runs, replicas, first, t_end, grid, max_events,
                     samples, *rest):
            chunks.append((first, len(samples)))
            lockstep(runs, replicas, first, t_end, grid, max_events, samples,
                     *rest)

        monkeypatch.setattr(rpsim.simulate, "_run_lockstep", recorded)
        specs = [ModelSpec(n=3, lam=1.0, total=3 * c, initial=(c, c, c))
                 for c in (4, 10, 20)]
        assert_each_is_its_own_run(specs, 40, 3.0, [0.0, 1.5, 3.0],
                                   [7, 8, 9])
        assert chunks == [(0, 60), (60, 60)] + [(0, 40)] * 3

    def test_below_the_lockstep_minimum(self, monkeypatch):
        # 3 specs of 10 replicas: 30 columns, each through run_until
        def no_lockstep(*args):
            raise AssertionError("the lockstep ran")

        monkeypatch.setattr(rpsim.simulate, "_run_lockstep", no_lockstep)
        specs = [ModelSpec(n=3, lam=1.0, total=3 * c, initial=(c, c, c))
                 for c in (2, 10, 20)]
        assert_each_is_its_own_run(specs, 10, 1.0, grid01(4), [1, 2, 3])

    @pytest.mark.parametrize("replicas", [6, 20])
    def test_budget_failure_names_the_spec_and_replica(self, replicas):
        # spec 0 fits the budget; spec 1's replica 0 does, and a later one
        # does not.  Below and above _LOCKSTEP_MIN columns in all.
        specs = [ModelSpec(n=3, lam=1.0, total=30, initial=(10, 10, 10)),
                 ModelSpec(n=3, lam=1.0, total=45, initial=(15, 15, 15))]
        grid, seeds = [0.0, 1.0], [5, 6]
        fired = [np.diff(e.event_offsets) for e in one_call_each(
            specs, replicas, 1.0, grid, seeds, record_events=True)]
        budget = int(max(fired[0].max(), fired[1][0]))
        first_over = int(np.flatnonzero(fired[1] > budget)[0])
        assert first_over > 0
        run_ensemble(specs[0], replicas, 1.0, grid, seeds[0],
                     max_events=budget)
        with pytest.raises(ReplicaError) as alone:
            run_ensemble(specs[1], replicas, 1.0, grid, seeds[1],
                         max_events=budget)
        assert alone.value.index == first_over
        with pytest.raises(ReplicaError) as err:
            merged(specs, replicas, 1.0, grid, seeds, max_events=budget)
        assert (err.value.spec, err.value.index) == (1, first_over)
        assert str(err.value) == f"spec 1, {alone.value}"
        assert isinstance(err.value.__cause__, BudgetExceeded)

    def test_count_past_memory_is_a_domain_error(self):
        # far past any machine's memory, so that nothing is allocated; the
        # count is of all the specs' columns
        specs = [ModelSpec(n=3, lam=1.0, total=3, initial=(1, 1, 1))] * 2
        with pytest.raises(DomainError, match=re.escape(
                "20000000000000 replicas of 2 sample times, too many to hold "
                "in memory")):
            merged(specs, 10**13, 1.0, [0.0, 1.0], [0, 1])


@pytest.mark.parametrize("budget", [None, "5", math.nan, -1, 2.5, True])
@pytest.mark.parametrize("run", ["run_until", "run_ensemble"])
def test_max_events_must_be_a_non_negative_integer(run, budget):
    # these ended in a bare TypeError, turned the budget off (NaN), or
    # blamed replica 0
    spec = ModelSpec(n=3, lam=1.0, total=30, initial=(10, 10, 10))
    calls = {
        "run_until": lambda: run_until(spec, 1.0, [0.0], rng_stream(0, 0),
                                       max_events=budget),
        "run_ensemble": lambda: run_ensemble(spec, 40, 1.0, [0.0], 0,
                                             max_events=budget),
    }
    with pytest.raises(DomainError, match=re.escape(
            f"max_events must be a non-negative integer, got {budget!r}")) \
            as err:
        calls[run]()
    assert not isinstance(err.value, ReplicaError)


@pytest.mark.parametrize("replicas", [2, 40])
def test_gaps_that_overflow_end_at_the_horizon(replicas):
    # every rate is positive, but below 1e-317, so each gap (h - i) / r
    # overflows to inf: no event fires, and no replica is absorbed, one at
    # a time or in lockstep, and with no warning
    spec = ModelSpec(n=3, lam=1e-320, total=1000, initial=(334, 333, 333))
    ens = run_ensemble(spec, replicas, 1.0, [0.0, 1.0], 0,
                       record_events=True)
    assert np.isnan(ens.absorbed).all()
    assert ens.final_time.tolist() == [1.0] * replicas
    assert ens.final_counts.tolist() == [[334, 333, 333]] * replicas
    assert ens.samples.tolist() == [[[334, 333, 333]] * 2] * replicas
    assert ens.event_offsets[-1] == 0
    with pytest.raises(ReplicaError, match="^replica 0: the next event time "
                       "overflows a double") as err:
        run_ensemble(spec, replicas, math.inf, [], 0)
    assert isinstance(err.value.__cause__, NumericError)


@pytest.mark.parametrize("replicas", [20, 40])
def test_event_times_that_overflow_name_the_serial_replica(replicas):
    # from (1, 1, 1) every replica absorbs after 3 events, whose gaps are
    # near 1e308 at this rate: some replicas' event times overflow a double
    # on the way.  At the largest finite horizon they end there, unabsorbed;
    # at an infinite one the lowest-indexed such replica fails
    spec = ModelSpec(n=3, lam=4e-308, total=3, initial=(1, 1, 1))
    t_end = np.finfo(float).max.item()
    ens = run_ensemble(spec, replicas, t_end, [0.0], 1, record_events=True)
    assert_matches_run_until(ens, t_end, [0.0], True)
    assert np.isnan(ens.absorbed).sum() > 1
    first = int(np.flatnonzero(np.isnan(ens.absorbed))[0])
    assert first > 0
    with pytest.raises(ReplicaError) as err:
        run_ensemble(spec, replicas, math.inf, [], 1)
    assert err.value.index == first
    assert isinstance(err.value.__cause__, NumericError)


def edge_budgets(n, blk):
    """Budgets of 0 and at the edges of the first two draw blocks: the
    first block gives n thresholds, then blk - n events' draws."""
    return sorted({k for k in (0, blk - n - 1, blk - n, blk - n + 1,
                               2 * blk - n - 1, 2 * blk - n + 1) if k >= 0})


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("blk", ["n", 8, 4096])
def test_budget_stops_at_the_event_past_it(monkeypatch, n, blk):
    # the loop counts its budget once per draw block, cut to the draws of
    # events up to max_events + 1: whatever the block size, a budget of k
    # stops at event k + 1, with its time, and a run of exactly k events,
    # or an absorbing start, runs to its end
    blk = n if blk == "n" else blk
    monkeypatch.setattr(rpsim.simulate, "_EXP_BLOCK", blk)
    spec = ModelSpec(n=n, lam=1.0, total=3000,
                     initial=symmetric_counts(n, 3000))
    t_end = 20.0
    times = run_until(spec, t_end, [], rng_stream(3, 0),
                      record_events=True).event_times.tolist()
    assert len(times) > 2 * blk
    absorbing = ModelSpec(n=n, lam=1.0, total=5, initial=(5,) + (0,) * (n - 1))
    for k in edge_budgets(n, blk):
        with pytest.raises(BudgetExceeded) as err:
            run_until(spec, t_end, [], rng_stream(3, 0), max_events=k)
        assert str(err.value) == \
            f"exceeded {k} events at t={times[k]:.6g} (horizon {t_end})"
        if k:
            exact = run_until(spec, times[k - 1], [0.0], rng_stream(3, 0),
                              record_events=True, max_events=k)
            assert exact.event_times.tolist() == times[:k]
        assert run_until(absorbing, math.inf, [0.0], rng_stream(3, 0),
                         max_events=k).absorbed == 0.0


def long_run(n, end):
    """A spec, horizon, grid and base seed whose one replica reads past two
    blocks of 4 096 draws: to t = 15 from the symmetric start at M = 3 000,
    or to absorption at M = 300."""
    if end == "horizon":
        spec = ModelSpec(n=n, lam=1.0, total=3000,
                         initial=symmetric_counts(n, 3000))
        return spec, 15.0, grid01(6, 15.0), 0
    spec = ModelSpec(n=n, lam=1.0, total=300,
                     initial=symmetric_counts(n, 300))
    return spec, math.inf, [0.0, 1.0, 10.0, 100.0], {3: 2, 4: 3, 5: 1}[n]


@functools.cache
def lockstep_log(n, end):
    """The lockstep engine's event log of :func:`long_run`'s replica: one
    replica takes the lockstep with its minimum at 1, and with run_until
    gone no other engine can run it."""
    spec, t_end, grid, seed = long_run(n, end)
    with unittest.mock.patch.object(rpsim.simulate, "_LOCKSTEP_MIN", 1), \
            unittest.mock.patch.object(rpsim.simulate, "run_until", None):
        ens = run_ensemble(spec, 1, t_end, grid, seed, record_events=True)
    return ens.event_times.tolist(), ens.event_reactions.tolist()


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("end", ["horizon", "absorption"])
@pytest.mark.parametrize("blk", ["n", 8, 4096])
def test_logged_and_unlogged_runs_agree(monkeypatch, n, end, blk):
    # a logged run hands its events to the log once per draw block and at
    # the end: whatever the block size, it makes the unlogged run's run,
    # and the log holds each event once, replays to the run's counts and
    # is the lockstep engine's log of the same stream
    spec, t_end, grid, seed = long_run(n, end)
    monkeypatch.setattr(rpsim.simulate, "_EXP_BLOCK", n if blk == "n" else blk)
    logged, unlogged = (run_until(spec, t_end, grid, rng_stream(seed, 0),
                                  record_events=keep) for keep in (True, False))
    assert np.array_equal(logged.samples, unlogged.samples)
    assert (logged.final_counts, logged.absorbed, logged.final_time) == \
        (unlogged.final_counts, unlogged.absorbed, unlogged.final_time)
    assert (logged.absorbed is None) == (end == "horizon")
    assert unlogged.event_times is None
    # the budget counts the events: the log's length runs to the end, one
    # less stops at the last event, logged or not
    events = len(logged.event_times)
    assert events > 2 * 4096
    assert len(logged.event_reactions) == events
    for keep in (True, False):
        assert run_until(spec, t_end, grid, rng_stream(seed, 0),
                         record_events=keep, max_events=events).final_counts \
            == logged.final_counts
        with pytest.raises(BudgetExceeded):
            run_until(spec, t_end, grid, rng_stream(seed, 0),
                      record_events=keep, max_events=events - 1)
    for t, row in zip(grid, logged.samples):
        assert counts_at(logged, t).tolist() == row.tolist()
    assert tuple(counts_at(logged, logged.final_time).tolist()) == \
        logged.final_counts
    assert (logged.event_times.tolist(), logged.event_reactions.tolist()) \
        == lockstep_log(n, end)


def reference_replay(spec, times, reactions, t):
    """Jump counts and internal times of one replica's log at ``t``, as the
    per-replica accessors computed them before the replay moved to arrays:
    the intervals are summed by ``.sum(axis=0)`` in time order."""
    n = spec.n
    k = int(np.searchsorted(times, t, side="right"))
    r = reactions[:k].astype(np.int64)
    counts = np.empty((k + 1, n), dtype=np.int64)
    counts[0] = spec.initial
    if k:
        delta = np.zeros((k, n), dtype=np.int64)
        delta[np.arange(k), r] = 1
        delta[np.arange(k), (r + 1) % n] -= 1
        counts[1:] = np.asarray(spec.initial) + np.cumsum(delta, axis=0)
    counts = counts.astype(float)
    durations = np.diff(np.concatenate(([0.0], times[:k], [t])))
    products = counts * np.concatenate((counts[:, 1:], counts[:, :1]), axis=1)
    internal = (spec.lam / spec.total) * (durations[:, None] * products).sum(
        axis=0)
    return np.bincount(r, minlength=n), internal


@st.composite
def event_logs(draw):
    """A spec and a flat replica-major log in which replicas have zero or
    more events, ties included."""
    n = draw(st.sampled_from([3, 5]))
    initial = tuple(draw(st.lists(st.integers(0, 40), min_size=n,
                                  max_size=n).filter(any)))
    spec = ModelSpec(n=n, lam=draw(st.floats(0.1, 5.0)), total=sum(initial),
                     initial=initial)
    logs = draw(st.lists(st.lists(st.floats(0.0, 2.0), max_size=60),
                         min_size=1, max_size=7))
    times = [sorted(log) for log in logs]
    reactions = [draw(st.lists(st.integers(0, n - 1), min_size=len(log),
                               max_size=len(log))) for log in logs]
    return spec, times, reactions


@given(log=event_logs(), block=st.integers(1, 7), data=st.data())
@settings(max_examples=60, deadline=None)
def test_replay_matches_per_replica_reference(log, block, data):
    spec, times, reactions = log
    replicas = len(times)
    ens = Ensemble(
        spec=spec, grid=np.empty(0), base_seed=0,
        samples=np.empty((replicas, 0, spec.n), dtype=np.int64),
        final_counts=np.tile(spec.initial, (replicas, 1)),
        absorbed=np.full(replicas, math.nan),
        final_time=np.full(replicas, 2.0),
        event_times=np.array([x for tt in times for x in tt], dtype=float),
        event_reactions=np.array([r for rr in reactions for r in rr],
                                 dtype=np.int16),
        event_offsets=np.cumsum([0] + [len(tt) for tt in times]))
    # before, at and after logged times, and at the ends of the horizon;
    # past the final time 2.0 there is nothing to replay, and before 0 no
    # time to replay to (the time just before a logged 0)
    logged = sorted({x for tt in times for x in tt})
    at = data.draw(st.sampled_from(logged)) if logged else 1.0
    for t in (0.0, at, np.nextafter(at, -math.inf), np.nextafter(at, math.inf),
              2.0, 3.0):
        # blocks of a few events split the replicas' logs
        with unittest.mock.patch.object(rpsim.simulate, "_REPLAY_EVENTS",
                                        block):
            if t > 2.0:
                with pytest.raises(DomainError, match="past the simulated"):
                    ens.replay(t)
                continue
            if t < 0.0:
                with pytest.raises(DomainError, match="must be non-negative"):
                    ens.replay(t)
                continue
            jumps, internal = ens.replay(t)
        assert jumps.shape == internal.shape == (replicas, spec.n)
        for i in range(replicas):
            ref_jumps, ref_internal = reference_replay(
                spec, np.array(times[i], dtype=float),
                np.array(reactions[i], dtype=np.int16), t)
            assert jumps[i].tobytes() == ref_jumps.tobytes()
            assert internal[i].tobytes() == ref_internal.tobytes()


@pytest.mark.parametrize("spec", [
    ModelSpec(n=3, lam=1.0, total=6, initial=(2, 2, 2)),
    ModelSpec(n=4, lam=1.0, total=8, initial=(2, 2, 2, 2)),
], ids=["n3", "n4"])
def test_absorbed_ensemble_replays_at_infinity(spec):
    # an absorbed replica's intensities are 0 from its final time on; the
    # tail from its last event to t = inf was inf * 0 = NaN, with a warning
    ens = run_ensemble(spec, 30, math.inf, np.array([0.0]), 11,
                       record_events=True)
    assert not np.isnan(ens.absorbed).any()
    jumps, internal = ens.replay(math.inf)
    at_end = ens.replay(ens.final_time.max())
    assert jumps.tobytes() == at_end[0].tobytes()
    assert internal.tobytes() == at_end[1].tobytes()
    assert np.isfinite(internal).all()


@pytest.mark.parametrize("t", [-1.0, math.nan])
def test_replay_time_must_be_non_negative(t):
    # these returned T = -3.33 per reaction and NaN
    spec = ModelSpec(n=3, lam=1.0, total=30, initial=(10, 10, 10))
    ens = run_ensemble(spec, 4, 1.0, np.array([1.0]), 3, record_events=True)
    with pytest.raises(DomainError,
                       match=f"^replay time t={t:g} must be non-negative$"):
        ens.replay(t)


def test_replay_peaks_below_the_log_it_reads():
    # the replay walks the log a block of events at a time, so two long
    # replicas of about 100 000 events each do not size its temporaries,
    # where blocks of whole replicas peaked at 16 times the log
    spec = ModelSpec(n=3, lam=1.0, total=3000, initial=(1000, 1000, 1000))
    ens = run_ensemble(spec, 2, 100.0, np.array([100.0]), 7,
                       record_events=True)
    size = ens.event_times.nbytes + ens.event_reactions.nbytes
    assert len(ens.event_times) > 40 * rpsim.simulate._REPLAY_EVENTS
    tracemalloc.start()
    try:
        jumps, _ = ens.replay(100.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert jumps.sum() == len(ens.event_times)
    assert peak < size


def assert_same_arrays(a: Ensemble, b: Ensemble) -> None:
    for f in dataclasses.fields(Ensemble):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            assert (x.dtype, x.shape, x.tobytes()) == \
                (y.dtype, y.shape, y.tobytes()), f.name
        else:
            assert x == y, f.name


class TestTrajectories:
    @pytest.mark.parametrize("replicas", [3, 40])
    @pytest.mark.parametrize("record_events", [True, False])
    def test_each_views_its_replica_bit_for_bit(self, replicas,
                                                record_events):
        # tiny populations, so that some replicas absorb
        spec = ModelSpec(n=3, lam=2.0, total=4, initial=(2, 1, 1))
        ens = run_ensemble(spec, replicas, 3.0, grid01(4, 3.0), 5,
                           record_events=record_events)
        running = np.isnan(ens.absorbed)
        assert running.any() and not running.all()
        off = ens.event_offsets
        for i, traj in enumerate(ens.trajectories):
            assert (traj.spec, traj.seed) == (spec, i)
            views = {"grid": (traj.grid, ens.grid),
                     "samples": (traj.samples, ens.samples[i])}
            if record_events:
                views["event_times"] = (traj.event_times,
                                        ens.event_times[off[i]:off[i + 1]])
                views["event_reactions"] = (
                    traj.event_reactions,
                    ens.event_reactions[off[i]:off[i + 1]])
            else:
                assert traj.event_times is traj.event_reactions is None
            for name, (x, y) in views.items():
                assert np.shares_memory(x, y), name
                assert (x.dtype, x.shape, x.tobytes()) == \
                    (y.dtype, y.shape, y.tobytes()), name
            assert traj.final_counts == tuple(ens.final_counts[i].tolist())
            assert traj.final_time == ens.final_time[i]
            assert (traj.absorbed is None) == np.isnan(ens.absorbed[i])
            if traj.absorbed is not None:
                assert traj.absorbed == ens.absorbed[i] == traj.final_time

    def test_trajectories_are_cached_views(self):
        spec = ModelSpec(n=3, lam=1.0, total=30, initial=(10, 10, 10))
        ens = run_ensemble(spec, 32, 1.0, grid01(3), 0, record_events=True)
        assert ens.trajectories is ens.trajectories
        ens.trajectories[1].event_reactions[:] = 0
        lo, hi = ens.event_offsets[1:3]
        assert not ens.event_reactions[lo:hi].any()
        assert ens.event_reactions[:lo].any()

    def test_an_ensemble_needs_a_replica(self):
        spec = ModelSpec(n=3, lam=1.0, total=30, initial=(10, 10, 10))
        with pytest.raises(DomainError,
                           match="^an ensemble needs at least one replica$"):
            Ensemble(spec=spec, grid=np.zeros(1), base_seed=0,
                     samples=np.zeros((0, 1, 3), dtype=np.int64),
                     final_counts=np.zeros((0, 3), dtype=np.int64),
                     absorbed=np.zeros(0), final_time=np.zeros(0))


def test_event_times_strictly_positive_and_increasing():
    spec = ModelSpec(n=3, lam=1.0, total=90, initial=symmetric_counts(3, 90))
    traj = run_until(spec, 2.0, grid01(3, 2.0), rng_stream(1, 0), seed=0,
                     record_events=True)
    assert traj.n_events > 0
    assert traj.event_times[0] > 0
    assert np.all(np.diff(traj.event_times) > 0)
    assert math.isfinite(traj.final_time)


def test_compiled_loops_build_at_the_largest_species_count():
    # run_until's event loop and integrate's march are generated and
    # compiled per species count, so each must still compile at the cap
    n = MAX_SPECIES
    spec = ModelSpec(n=n, lam=1.0, total=2 * n, initial=(2,) * n)
    traj = run_until(spec, 2.0, [0.0, 2.0], rng_stream(5, 0), seed=0,
                     record_events=True)
    assert traj.n_events > 0
    assert sum(traj.final_counts) == 2 * n
    # the symmetric point is a fixed point of the mean field
    path = integrate(np.full(n, 1 / n), 1.0, t_end=3e-3, step=1e-3)
    assert path.step_states.shape == (4, n)
    assert np.all(path.step_states == 1 / n)
