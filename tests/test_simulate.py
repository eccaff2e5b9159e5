import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpsim import (
    BudgetExceeded,
    DomainError,
    MissingEventLog,
    ModelSpec,
    ReplicaError,
    rng_stream,
    run_ensemble,
    run_until,
    symmetric_counts,
    trajectories_identical,
)


class FixedDraws:
    """Stands in for a numpy Generator: the engine's first block of Exp(1)
    draws is ``values`` (the initial clock thresholds, then the draws of the
    first events), padded with a gap too large to matter."""

    def __init__(self, *values, pad=1e9):
        self.values = values
        self.pad = pad

    def standard_exponential(self, size):
        out = np.full(size, self.pad)
        out[:len(self.values)] = self.values
        self.values = ()
        return out


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
        assert traj.jump_counts(1.0).tolist() == [1, 0, 0]

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
        # 4096-draw block, and one to absorption
        for initial, lam, t_end, min_events in (
            ((5, 4, 3), 2.0, 3.0, 10),
            ((100, 100, 100, 100), 1.0, 50.0, 4096),
            ((2, 2, 2), 5.0, math.inf, 1),
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
                assert row.tolist() == traj.counts_at(g).tolist()

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
            after = traj.counts_at(t)
            assert after.sum() == spec.total and after.min() >= 0


class TestRunEnsemble:
    def test_shape_and_reproducibility(self):
        spec = ModelSpec(n=3, lam=1.0, total=60, initial=(20, 20, 20))
        a = run_ensemble(spec, 5, 1.0, grid01(4), base_seed=9)
        b = run_ensemble(spec, 5, 1.0, grid01(4), base_seed=9)
        assert a.sample_stack().shape == (5, 4, 3)
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

    def test_bad_grid_is_reported_before_any_replica(self):
        spec = ModelSpec(n=3, lam=1.0, total=9, initial=(3, 3, 3))
        with pytest.raises(DomainError) as err:
            run_ensemble(spec, 2, 1.0, np.array([0.5, 0.2]), base_seed=0)
        assert not isinstance(err.value, ReplicaError)
        assert str(err.value).startswith("grid must be ascending")

    def test_rejects_zero_replicas(self):
        spec = ModelSpec(n=3, lam=1.0, total=9, initial=(3, 3, 3))
        with pytest.raises(DomainError):
            run_ensemble(spec, 0, 1.0, grid01(3), base_seed=0)


def test_event_times_strictly_positive_and_increasing():
    spec = ModelSpec(n=3, lam=1.0, total=90, initial=symmetric_counts(3, 90))
    traj = run_until(spec, 2.0, grid01(3, 2.0), rng_stream(1, 0), seed=0,
                     record_events=True)
    assert traj.n_events > 0
    assert traj.event_times[0] > 0
    assert np.all(np.diff(traj.event_times) > 0)
    assert math.isfinite(traj.final_time)
