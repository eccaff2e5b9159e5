import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpsim import (
    DomainError,
    Ensemble,
    MissingEventLog,
    ModelSpec,
    NormalizationError,
    NumericError,
    Trajectory,
    counts_from_fractions,
    rng_stream,
    rng_streams,
    run_until,
    symmetric_counts,
    trajectories_identical,
    validate_spec,
)


def spec3(**kw) -> ModelSpec:
    base = dict(n=3, lam=1.0, total=3, initial=(1, 1, 1))
    base.update(kw)
    return ModelSpec(**base)


class TestValidateSpec:
    def test_accepts_valid(self):
        spec = spec3()
        assert validate_spec(spec) is spec

    def test_rejects_two_species(self):
        with pytest.raises(DomainError):
            validate_spec(ModelSpec(n=2, lam=1.0, total=2, initial=(1, 1)))

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_rate(self, lam):
        with pytest.raises(DomainError):
            validate_spec(spec3(lam=lam))

    def test_rejects_empty_population(self):
        with pytest.raises(DomainError):
            validate_spec(spec3(total=0, initial=(0, 0, 0)))

    def test_rejects_length_mismatch(self):
        with pytest.raises(DomainError):
            validate_spec(spec3(initial=(1, 1, 1, 0), n=3))

    def test_rejects_negative_count(self):
        with pytest.raises(DomainError):
            validate_spec(spec3(initial=(2, 2, -1)))

    def test_rejects_wrong_sum(self):
        with pytest.raises(NormalizationError):
            validate_spec(spec3(initial=(1, 1, 2)))


class TestModelSpec:
    def test_initial_coerced_to_python_ints(self):
        spec = ModelSpec(n=3, lam=1.0, total=6,
                         initial=tuple(np.array([2, 2, 2], dtype=np.int64)))
        assert all(type(c) is int for c in spec.initial)

    def test_fractions(self):
        spec = ModelSpec(n=3, lam=1.0, total=10, initial=(5, 3, 2))
        assert np.allclose(spec.fractions, [0.5, 0.3, 0.2])

    def test_initial_total_rate(self):
        spec = ModelSpec(n=3, lam=1.0, total=1000, initial=(334, 333, 333))
        # (334*333 + 333*333 + 333*334) / 1000
        assert spec.initial_total_rate() == pytest.approx(333.333)

    def test_initial_total_rate_absorbing(self):
        spec = ModelSpec(n=3, lam=1.0, total=5, initial=(5, 0, 0))
        assert spec.initial_total_rate() == 0.0


class TestCountsFromFractions:
    def test_exact_split(self):
        assert counts_from_fractions((0.5, 0.3, 0.2), 10) == (5, 3, 2)

    def test_ties_go_to_lowest_index(self):
        assert counts_from_fractions((1 / 3, 1 / 3, 1 / 3), 10) == (4, 3, 3)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            counts_from_fractions((0.7, 0.5, -0.2), 10)

    def test_rejects_unnormalized(self):
        with pytest.raises(NormalizationError):
            counts_from_fractions((0.5, 0.3, 0.1), 10)

    def test_rejects_too_few(self):
        with pytest.raises(DomainError):
            counts_from_fractions((0.5, 0.5), 10)

    @given(
        weights=st.lists(st.integers(min_value=0, max_value=50),
                         min_size=3, max_size=8).filter(lambda w: sum(w) > 0),
        total=st.integers(min_value=1, max_value=10_000),
    )
    def test_rounding_properties(self, weights, total):
        fracs = np.array(weights, dtype=float) / sum(weights)
        counts = counts_from_fractions(fracs, total)
        assert sum(counts) == total
        # largest-remainder never moves a coordinate by a full unit
        for c, f in zip(counts, fracs):
            assert math.floor(f * total) <= c <= math.floor(f * total) + 1


def test_symmetric_counts():
    assert symmetric_counts(3, 10) == (4, 3, 3)
    assert symmetric_counts(5, 12) == (3, 3, 2, 2, 2)
    assert sum(symmetric_counts(8, 1001)) == 1001


class TestRngStream:
    def test_reproducible(self):
        a = rng_stream(42, 3).standard_exponential(5)
        b = rng_stream(42, 3).standard_exponential(5)
        assert np.array_equal(a, b)

    def test_replicas_are_distinct(self):
        a = rng_stream(42, 0).standard_exponential(5)
        b = rng_stream(42, 1).standard_exponential(5)
        assert not np.array_equal(a, b)

    def test_matches_spawn_key_construction(self):
        manual = np.random.default_rng(
            np.random.SeedSequence(7, spawn_key=(4,)))
        assert rng_stream(7, 4).standard_exponential() == \
            manual.standard_exponential()


class TestRngStreams:
    @settings(max_examples=60, deadline=None)
    @given(
        # up to 2**130: a base seed of more than the pool's four words
        base=st.one_of(st.integers(0, 2**130),
                       st.integers(0, 2**63 - 1).map(np.int64),
                       st.integers(0, 2**64 - 1).map(np.uint64)),
        # a batch may cross 2**32 or 2**64, where indices take another word
        first=st.one_of(st.integers(0, 10**6),
                        st.integers(2**32 - 6, 2**32 + 2),
                        st.integers(2**64 - 6, 2**64 + 2)),
        count=st.integers(0, 8))
    def test_equals_numpy_seed_sequence(self, base, first, count):
        # the second call takes the base seed's pool from the cache
        for streams in (rng_streams(base, first, count),
                        rng_streams(base, first, count)):
            assert len(streams) == count
            for i, gen in enumerate(streams):
                ref = np.random.default_rng(
                    np.random.SeedSequence(base, spawn_key=(first + i,)))
                assert gen.bit_generator.state == ref.bit_generator.state
                assert np.array_equal(gen.standard_exponential(6),
                                      ref.standard_exponential(6))

    @pytest.mark.parametrize("seed", [-1, 1.5, "7", True, np.int64(-2), None])
    def test_bad_base_seed_is_a_domain_error(self, seed):
        message = "^" + re.escape(
            f"base seed must be a non-negative integer, got {seed!r}") + "$"
        with pytest.raises(DomainError, match=message):
            rng_streams(seed, 0, 3)
        with pytest.raises(DomainError, match=message):
            rng_stream(seed, 0)

    def test_bad_index_or_count_is_a_domain_error(self):
        with pytest.raises(DomainError, match="stream index must be a "
                           "non-negative integer, got -1"):
            rng_stream(0, -1)
        with pytest.raises(DomainError, match="stream count must be a "
                           "non-negative integer, got 2.0"):
            rng_streams(0, 0, 2.0)


def test_sim_state_initial_draws_thresholds_in_clock_order():
    # the engine's first n draws are the clock thresholds, in clock order:
    # from (1,1,1) every rate is 1/3, so the first event is the clock with
    # the smallest threshold, at that threshold divided by the rate
    spec = spec3()
    traj = run_until(spec, 100.0, [], rng_stream(5, 0), seed=0,
                     record_events=True)
    thresholds = rng_stream(5, 0).standard_exponential(3)
    # the smallest draw is the last one, so a reversed order would fire
    # clock 0 instead
    assert int(np.argmin(thresholds)) == 2
    assert traj.event_reactions[0] == 2
    assert traj.event_times[0] == thresholds[2] / (1.0 / 3)


# hand-built two-event history used by the replay tests below:
#   reaction 0 at t=0.2: (1,1,1) -> (2,0,1)
#   reaction 2 at t=0.5: (2,0,1) -> (1,0,2)
def tiny_trajectory(**overrides) -> Trajectory:
    kw = dict(
        spec=ModelSpec(n=3, lam=3.0, total=3, initial=(1, 1, 1)),
        seed=0,
        grid=np.array([0.0, 0.3, 1.0]),
        samples=np.array([[1, 1, 1], [2, 0, 1], [1, 0, 2]], dtype=np.int64),
        event_times=np.array([0.2, 0.5]),
        event_reactions=np.array([0, 2], dtype=np.int16),
        absorbed=None,
        final_counts=(1, 0, 2),
        final_time=1.0,
    )
    kw.update(overrides)
    return Trajectory(**kw)


class TestTrajectoryValidation:
    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            tiny_trajectory(samples=np.zeros((2, 3), dtype=np.int64))

    def test_grid_must_ascend(self):
        with pytest.raises(DomainError):
            tiny_trajectory(grid=np.array([0.0, 1.0, 0.3]))

    def test_conservation_enforced(self):
        bad = np.array([[1, 1, 1], [2, 0, 1], [2, 0, 2]], dtype=np.int64)
        with pytest.raises(NumericError):
            tiny_trajectory(samples=bad)

    def test_event_times_must_not_decrease(self):
        with pytest.raises(NumericError):
            tiny_trajectory(event_times=np.array([0.5, 0.2]))


class TestTrajectoryReplay:
    # the replays are ensemble methods; here on a one-replica ensemble

    @staticmethod
    def replay(**overrides) -> Ensemble:
        return Ensemble.from_trajectories([tiny_trajectory(**overrides)], 0)

    def test_jump_counts(self):
        ens = self.replay()
        assert ens.jump_counts(0.1).tolist() == [[0, 0, 0]]
        assert ens.jump_counts(0.3).tolist() == [[1, 0, 0]]
        assert ens.jump_counts(1.0).tolist() == [[1, 0, 1]]

    def test_counts_at_is_right_continuous(self):
        # an event at time t counts at t: (1,1,1) -> (2,0,1) at t=0.2
        ens = self.replay()
        assert ens.jump_counts(0.19).tolist() == [[0, 0, 0]]
        assert ens.jump_counts(0.2).tolist() == [[1, 0, 0]]   # at the jump
        assert ens.jump_counts(0.5).tolist() == [[1, 0, 1]]

    def test_internal_times(self):
        # products (x_j * x_{j+1}) are (1,1,1) on [0,0.2) and (0,0,2) after
        ens = self.replay()
        assert np.allclose(ens.internal_times(0.3), [[0.2, 0.2, 0.4]])
        assert np.allclose(ens.internal_times(1.0), [[0.2, 0.2, 1.8]])
        assert np.allclose(ens.internal_times(0.0), [[0.0, 0.0, 0.0]])

    def test_samples_only_mode_raises(self):
        traj = tiny_trajectory(event_times=None, event_reactions=None)
        assert not traj.has_event_log
        ens = self.replay(event_times=None, event_reactions=None)
        for call in (lambda: traj.n_events,
                     lambda: ens.jump_counts(0.5),
                     lambda: ens.internal_times(0.5)):
            with pytest.raises(MissingEventLog):
                call()


def test_trajectories_identical():
    assert trajectories_identical(tiny_trajectory(), tiny_trajectory())
    assert not trajectories_identical(tiny_trajectory(),
                                      tiny_trajectory(seed=1))
    assert not trajectories_identical(
        tiny_trajectory(),
        tiny_trajectory(event_times=None, event_reactions=None),
    )
