import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rpsim
from rpsim import (
    DomainError,
    Ensemble,
    MissingEventLog,
    ModelSpec,
    NormalizationError,
    RpsimError,
    Trajectory,
    counts_from_fractions,
    rng_stream,
    rng_streams,
    run_until,
    symmetric_counts,
    trajectories_identical,
)


# what a JSON model's fields may hold: None, bools, ints, floats, strings
# and lists of these
JSON_ATOMS = (st.none() | st.booleans() | st.integers() | st.floats()
              | st.text(max_size=4))
JSON_VALUES = JSON_ATOMS | st.lists(JSON_ATOMS, max_size=5)


@st.composite
def json_models(draw):
    """A model's JSON form, valid or nearly so, with any of its fields
    replaced by any JSON value."""
    counts = draw(st.lists(st.integers(0, 4), min_size=3, max_size=5))
    d = {"n": len(counts), "lambda": draw(st.floats(0.1, 5.0) | st.floats()),
         "total": sum(counts), "initial": counts}
    for key in draw(st.lists(st.sampled_from(sorted(d)), max_size=2)):
        d[key] = draw(JSON_VALUES)
    return d


def spec3(**kw) -> ModelSpec:
    base = dict(n=3, lam=1.0, total=3, initial=(1, 1, 1))
    base.update(kw)
    return ModelSpec(**base)


class TestValidateSpec:
    """Every rule of a model is checked when its ModelSpec is made."""

    def test_accepts_valid(self):
        spec = spec3()
        assert (spec.n, spec.lam, spec.total, spec.initial) == \
            (3, 1.0, 3, (1, 1, 1))

    def test_rejects_two_species(self):
        with pytest.raises(DomainError,
                           match="need at least 3 species, got n=2"):
            ModelSpec(n=2, lam=1.0, total=2, initial=(1, 1))

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf,
                                     True, "1", None, [1.0], 1j])
    def test_rejects_bad_rate(self, lam):
        message = f"positive and finite, got {lam}" \
            if isinstance(lam, float) else f"a real number, got {lam!r}"
        with pytest.raises(DomainError, match=re.escape(
                f"collision rate must be {message}")):
            spec3(lam=lam)

    def test_rejects_an_integer_rate_past_the_largest_double(self):
        # float(10**400) overflows: the rate reads as inf and is refused
        with pytest.raises(DomainError, match="^collision rate must be "
                           "positive and finite, got 10{400}$"):
            spec3(lam=10**400)

    def test_rejects_empty_population(self):
        with pytest.raises(DomainError,
                           match="population total must be at least 1, got 0"):
            spec3(total=0, initial=(0, 0, 0))

    def test_rejects_length_mismatch(self):
        with pytest.raises(DomainError, match="initial counts have length 4, "
                           "expected n=3"):
            spec3(initial=(1, 1, 1, 0), n=3)

    def test_rejects_negative_count(self):
        with pytest.raises(DomainError, match=re.escape(
                "negative initial count in (2, 2, -1)")):
            spec3(initial=(2, 2, -1))

    def test_rejects_wrong_sum(self):
        with pytest.raises(NormalizationError, match="initial counts sum to 4, "
                           "expected total=3"):
            spec3(initial=(1, 1, 2))

    @pytest.mark.parametrize("field, value, message", [
        ("n", 3.0, "species count must be an integer, got 3.0"),
        ("n", True, "species count must be an integer, got True"),
        ("n", "3", "species count must be an integer, got '3'"),
        ("total", 3.0, "population total must be an integer, got 3.0"),
        ("total", None, "population total must be an integer, got None"),
        ("initial", (1.5, 1.5, 1),
         "initial counts must be integers, got (1.5, 1.5, 1)"),
        ("initial", (1, True, 1),
         "initial counts must be integers, got (1, True, 1)"),
        ("initial", (1, None, 2),
         "initial counts must be integers, got (1, None, 2)"),
        ("initial", "abc", "initial counts must be integers, got 'abc'"),
        ("initial", 3, "initial counts must be integers, got 3"),
    ])
    def test_rejects_a_field_that_is_not_an_integer(self, field, value,
                                                      message):
        # a count of 1.5 used to be truncated to 1
        with pytest.raises(DomainError, match=re.escape(message)):
            spec3(**{field: value})

    @settings(max_examples=300, deadline=None)
    @given(d=json_models() | JSON_VALUES)
    def test_from_dict_makes_a_valid_spec_or_raises_an_rpsim_error(self, d):
        try:
            spec = ModelSpec.from_dict(d)
        except RpsimError:
            return
        assert type(spec.n) is int and type(spec.total) is int
        assert type(spec.lam) is float and 0 < spec.lam < math.inf
        half = spec.total // 2
        assert 0 < spec.lam / spec.total * half * (spec.total - half) \
            < math.inf or spec.total == 1
        assert all(type(c) is int and c >= 0 for c in spec.initial)
        assert 3 <= spec.n == len(spec.initial)
        assert sum(spec.initial) == spec.total >= 1
        assert ModelSpec.from_dict(spec.to_dict()) == spec


class TestModelSpec:
    def test_initial_coerced_to_python_ints(self):
        spec = ModelSpec(n=3, lam=1.0, total=6,
                         initial=tuple(np.array([2, 2, 2], dtype=np.int64)))
        assert all(type(c) is int for c in spec.initial)

    def test_numpy_fields_are_stored_as_python_numbers(self):
        spec = ModelSpec(n=np.int64(3), lam=np.float32(0.5),
                         total=np.uint16(6), initial=np.array([1, 2, 3]))
        assert spec == ModelSpec(n=3, lam=0.5, total=6, initial=(1, 2, 3))
        assert [type(v) for v in (spec.n, spec.lam, spec.total,
                                  *spec.initial)] == [int, float] + [int] * 4
        assert ModelSpec(n=3, lam=2, total=3, initial=[1, 1, 1]).lam == 2.0

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

    def test_total_is_at_most_2_to_the_53(self):
        # the lockstep engine's float64 counts are exact up to 2**53
        assert ModelSpec(n=3, lam=1.0, total=2**53,
                         initial=(2**53 - 2, 1, 1)).total == 2**53
        with pytest.raises(DomainError, match="at most 2\\*\\*53"):
            ModelSpec(n=3, lam=1.0, total=2**53 + 1,
                      initial=(2**53 - 1, 1, 1))

    @pytest.mark.parametrize("lam, total, message", [
        # the rates overflowed to inf, and run_until reported absorption
        # at 2.9e-308 in (20, 0, 10), which is not absorbing
        (1e308, 30, "collision rate 1e+308 over a total of 30 takes the "
         "largest reaction rate, lambda/M * floor(M/2) * ceil(M/2), past "
         "the double range"),
        (1e304, 2**53, "collision rate 1e+304 over a total of "
         "9007199254740992 takes the largest reaction rate"),
        (1e-320, 10**6, "collision rate 1e-320 over a total of "
         "1000000 underflows lambda/M to 0"),
        (5e-324, 2, "collision rate 5e-324 over a total of 2 "
         "underflows lambda/M to 0"),
    ])
    def test_rates_past_the_double_range_are_refused(self, lam, total,
                                                     message):
        initial = (total - 2 * (total // 3), total // 3, total // 3)
        with pytest.raises(DomainError, match="^" + re.escape(message)):
            ModelSpec(n=3, lam=lam, total=total, initial=initial)

    @pytest.mark.parametrize("lam, total", [
        (1e-320, 1000), (5e-324, 1), (1e305, 30), (1e290, 2**53)])
    def test_rates_within_the_double_range_are_kept(self, lam, total):
        initial = (total - 2 * (total // 3), total // 3, total // 3)
        assert ModelSpec(n=3, lam=lam, total=total, initial=initial).lam == lam


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

    @pytest.mark.parametrize("total, message", [
        (2.5, "must be an integer, got 2.5"),
        (True, "must be an integer, got True"),
        (0, "must be at least 1, got 0"),
        (-5, "must be at least 1, got -5"),
    ])
    def test_rejects_the_totals_model_spec_refuses(self, total, message):
        # 2.5 gave (1.0, 1.0, 1.0), -5 gave (-2, -2, -1) and True (1, 0, 0)
        message = f"^population total {re.escape(message)}$"
        with pytest.raises(DomainError, match=message):
            counts_from_fractions((0.5, 0.3, 0.2), total)
        with pytest.raises(DomainError, match=message):
            spec3(total=total)
        # the fractions are checked first
        with pytest.raises(DomainError, match="^need at least 3 fractions$"):
            counts_from_fractions((0.5, 0.5), total)

    def test_a_numpy_integer_total_gives_python_ints(self):
        counts = counts_from_fractions((0.5, 0.3, 0.2), np.int64(11))
        assert counts == (6, 3, 2) and all(type(c) is int for c in counts)

    def test_total_past_the_double_range_is_a_domain_error(self):
        # fractions * total overflows a float; ModelSpec refuses the total
        with pytest.raises(DomainError, match="at most 2\\*\\*53"):
            counts_from_fractions((0.5, 0.3, 0.2), 10**400)

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


def largest_remainder_floats(fractions, total):
    """counts_from_fractions as it was before splits were made to sum to
    their total: right wherever its floors fall 0 to n units short."""
    scaled = np.asarray(fractions) * total
    counts = np.floor(scaled).astype(int)
    short = total - int(counts.sum())
    order = sorted(range(len(scaled)),
                   key=lambda i: (-(scaled[i] - counts[i]), i))
    for i in order[:short]:
        counts[i] += 1
    return tuple(int(c) for c in counts)


@pytest.mark.parametrize("fractions", [
    np.full(3, 1 / 3), (0.5, 0.3, 0.2), np.full(5, 0.2), np.full(7, 1 / 7),
    (0.25, 0.25, 0.0, 0.5), (0.1, 0.2, 0.3, 0.4),
])
def test_every_split_sums_to_its_total(fractions):
    # above 2**52 the floors of the float products can fall more than n
    # units short of the total, or overshoot it; every split must sum to
    # its total, and one that did before stays as it was
    rng = np.random.default_rng(7)
    totals = [*range(1, 1001), *rng.integers(2**52, 2**53 + 1, 1500).tolist(),
              *rng.integers(1, 2**53 + 1, 500).tolist()]
    for total in totals:
        counts = counts_from_fractions(fractions, total)
        assert sum(counts) == total and min(counts) >= 0, total
        before = largest_remainder_floats(fractions, total)
        if sum(before) == total:
            assert counts == before, total


def test_splits_that_missed_their_total():
    # the floats' floors fall 4 units short of 10**17 over 3 species, and
    # overshoot this total by 1 over 5, which the old split turned into 5
    assert sum(largest_remainder_floats(np.full(3, 1 / 3), 10**17)) == \
        10**17 - 1
    assert sum(symmetric_counts(3, 10**17)) == 10**17
    total = 8_410_993_739_469_404
    assert sum(largest_remainder_floats(np.full(5, 0.2), total)) == total + 5
    assert symmetric_counts(5, total) == (1682198747893880,) + \
        (1682198747893881,) * 4
    # fractions may sum to 1 + 1e-9: their floors then overshoot the total
    assert sum(largest_remainder_floats((0.5, 0.5 + 9e-10, 0.0), 10**10)) \
        == 10**10 + 9
    assert counts_from_fractions((0.5, 0.5 + 9e-10, 0.0), 10**10) == \
        (5 * 10**9, 5 * 10**9, 0)
    assert counts_from_fractions((0.3, 0.4 + 9e-10, 0.3), 10**10) == \
        (3 * 10**9, 4 * 10**9, 3 * 10**9)


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

    # base seeds of 1, 2, 4, 5 and 6 words, on both sides of the pool's
    # four; indices on both sides of 2**32 and 2**64, where they take
    # another word
    @pytest.mark.parametrize("base", [0, 2**32 - 1, 2**32, 2**128 - 1,
                                      2**128, 2**160 + 7])
    @pytest.mark.parametrize("index", [0, 2**32 - 1, 2**32, 2**64 - 1,
                                       2**64])
    def test_word_boundaries_equal_numpy(self, base, index):
        def state(i):
            return np.random.default_rng(np.random.SeedSequence(
                base, spawn_key=(i,))).bit_generator.state

        assert rng_stream(base, index).bit_generator.state == state(index)
        assert rng_streams(base, index, 1)[0].bit_generator.state == \
            state(index)
        first = max(0, index - 1)
        for i, gen in enumerate(rng_streams(base, first, 3), first):
            assert gen.bit_generator.state == state(i)

    @pytest.mark.parametrize("seed", [-1, 1.5, "7", True, np.int64(-2), None])
    def test_bad_base_seed_is_a_domain_error(self, seed):
        message = "^" + re.escape(
            f"base seed must be a non-negative integer, got {seed!r}") + "$"
        with pytest.raises(DomainError, match=message):
            rng_streams(seed, 0, 3)
        with pytest.raises(DomainError, match=message):
            rng_stream(seed, 0)

    # the default dtype is uint32
    @pytest.mark.parametrize("args", [(4,), (2, np.uint64)])
    def test_seed_words_hold_only_what_pcg64_asks(self, args):
        seed_seq = rng_streams(0, 0, 1)[0].bit_generator.seed_seq
        with pytest.raises(DomainError, match=re.escape(
                "a precomputed stream seed holds only "
                "generate_state(4, numpy.uint64)")):
            seed_seq.generate_state(*args)

    def test_bad_index_or_count_is_a_domain_error(self):
        with pytest.raises(DomainError, match="stream index must be a "
                           "non-negative integer, got -1"):
            rng_stream(0, -1)
        with pytest.raises(DomainError, match="stream count must be a "
                           "non-negative integer, got 2.0"):
            rng_streams(0, 0, 2.0)


def test_import_leaves_numpy_random_unloaded():
    # the streams load it on first use
    code = "import sys, rpsim; print('numpy.random' in sys.modules)"
    src = str(Path(rpsim.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={"PYTHONPATH": src})
    assert out.stdout == "False\n"


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


class TestTrajectoryReplay:
    # the replay is an ensemble method; here on a one-replica ensemble

    @staticmethod
    def ensemble(logged: bool = True) -> Ensemble:
        traj = tiny_trajectory()
        log = dict(event_times=traj.event_times,
                   event_reactions=traj.event_reactions,
                   event_offsets=np.array([0, 2])) if logged else {}
        return Ensemble(spec=traj.spec, grid=traj.grid, base_seed=0,
                        samples=traj.samples[None],
                        final_counts=np.array([traj.final_counts]),
                        absorbed=np.array([math.nan]),
                        final_time=np.array([traj.final_time]), **log)

    def test_jump_counts(self):
        ens = self.ensemble()
        assert ens.replay(0.1)[0].tolist() == [[0, 0, 0]]
        assert ens.replay(0.3)[0].tolist() == [[1, 0, 0]]
        assert ens.replay(1.0)[0].tolist() == [[1, 0, 1]]

    def test_counts_at_is_right_continuous(self):
        # an event at time t counts at t: (1,1,1) -> (2,0,1) at t=0.2
        ens = self.ensemble()
        assert ens.replay(0.19)[0].tolist() == [[0, 0, 0]]
        assert ens.replay(0.2)[0].tolist() == [[1, 0, 0]]   # at the jump
        assert ens.replay(0.5)[0].tolist() == [[1, 0, 1]]

    def test_internal_times(self):
        # products (x_j * x_{j+1}) are (1,1,1) on [0,0.2) and (0,0,2) after
        ens = self.ensemble()
        assert np.allclose(ens.replay(0.3)[1], [[0.2, 0.2, 0.4]])
        assert np.allclose(ens.replay(1.0)[1], [[0.2, 0.2, 1.8]])
        assert np.allclose(ens.replay(0.0)[1], [[0.0, 0.0, 0.0]])

    def test_samples_only_mode_raises(self):
        traj = tiny_trajectory(event_times=None, event_reactions=None)
        assert not traj.has_event_log
        ens = self.ensemble(logged=False)
        for call in (lambda: traj.n_events, lambda: ens.replay(0.5)):
            with pytest.raises(MissingEventLog):
                call()


def test_trajectories_identical():
    assert trajectories_identical(tiny_trajectory(), tiny_trajectory())


@pytest.mark.parametrize("overrides", [
    dict(seed=1),
    dict(absorbed=1.0),
    dict(final_counts=(1, 1, 1)),
    dict(final_time=0.5),
    dict(grid=np.array([0.0, 0.3, 0.9])),
    dict(samples=np.array([[1, 1, 1], [2, 0, 1], [2, 0, 1]])),
    dict(event_times=None, event_reactions=None),
    dict(event_times=np.array([0.2, 0.6])),
    dict(event_reactions=np.array([0, 1], dtype=np.int16)),
], ids=lambda d: "-".join(d))
def test_trajectories_that_differ_in_a_field_are_not_identical(overrides):
    # a read-back check compares trajectories with this, so each field
    # must count
    other = tiny_trajectory(**overrides)
    assert not trajectories_identical(tiny_trajectory(), other)
    assert not trajectories_identical(other, tiny_trajectory())
