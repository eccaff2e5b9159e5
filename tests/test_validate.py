import json
import math
import re
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import rpsim.core
import rpsim.fluctuation
import rpsim.validate
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from rpsim import (
    DomainError,
    Ensemble,
    GridMismatch,
    InsufficientReplicas,
    MissingEventLog,
    ModelSpec,
    ReplicaError,
    ValidationConfig,
    clt_test,
    counts_from_fractions,
    gillespie_equivalence_test,
    integrate,
    lln_test,
    martingale_test,
    run_ensemble,
    run_validation,
    zero_sum_projector,
)
from rpsim.fluctuation import CovarianceState, FluctuationModel, propagate_covariance
from rpsim.validate import (
    _chi2_sf,
    _ks_statistic,
    _kstwo_sf,
    _median,
    _quantile,
)


def test_zero_sum_projector():
    p = zero_sum_projector(4)
    assert np.allclose(p, p.T)
    assert np.allclose(p @ p, p, atol=1e-15)
    assert np.allclose(p @ np.ones(4), 0.0, atol=1e-15)


def first_events(spec, replicas, t, seed):
    """An event-logged ensemble run to ``t``, the first-event check's
    input."""
    return run_ensemble(spec, replicas, t, (), seed, record_events=True)


class TestGillespieEquivalence:
    def test_expected_probabilities(self):
        spec = ModelSpec(n=3, lam=4.0, total=4, initial=(2, 1, 1))
        rep = gillespie_equivalence_test(first_events(spec, 200, 8.0, 0), 8.0)
        # rates (lam/M) x_j x_{j+1} = (2, 1, 2) -> probs (0.4, 0.2, 0.4)
        assert np.allclose(rep["expected_probs"], [0.4, 0.2, 0.4])
        assert rep["total_rate"] == pytest.approx(5.0)
        assert sum(rep["observed_counts"]) == rep["samples"] == 200
        assert rep["censored"] == 0 and rep["t"] == 8.0

    def test_passes_on_the_exact_engine(self):
        spec = ModelSpec(n=3, lam=3.0, total=3, initial=(1, 1, 1))
        rep = gillespie_equivalence_test(first_events(spec, 4000, 10.0, 1),
                                         10.0)
        assert rep["pass"]
        assert rep["ks"]["pvalue"] > 0.01 and rep["chi2"]["pvalue"] > 0.01

    def test_deterministic_for_fixed_seed(self):
        spec = ModelSpec(n=3, lam=3.0, total=3, initial=(1, 1, 1))
        a = gillespie_equivalence_test(first_events(spec, 500, 2.0, 2), 2.0)
        b = gillespie_equivalence_test(first_events(spec, 500, 2.0, 2), 2.0)
        assert a == b

    def test_statistic_is_scipys_at_horizon_40_over_r(self):
        # sample i is the first event of replica i; at t = 40/R, F(t) rounds
        # to 1.0, so the truncated law is Exp(R) to the last bit
        spec = ModelSpec(n=3, lam=4.0, total=4, initial=(2, 1, 1))
        t = 40.0 / 5.0
        ens = first_events(spec, 300, t, 7)
        rep = gillespie_equivalence_test(ens, t)
        times = [tr.event_times[0] for tr in ens.trajectories]
        fired = [tr.event_reactions[0] for tr in ens.trajectories]
        assert rep["censored"] == 0
        assert rep["observed_counts"] == \
            np.bincount(fired, minlength=3).tolist()
        expected = stats.kstest(times, "expon",
                                args=(0.0, 1.0 / rep["total_rate"]))
        assert rep["ks"]["stat"] == expected.statistic

    def test_replicas_silent_by_t_are_censored(self):
        # R = 3, so about e^-0.6 = 55 % of the replicas fire nothing by
        # t = 0.2; the observed times follow Exp(3) truncated at t
        spec = ModelSpec(n=3, lam=3.0, total=3, initial=(1, 1, 1))
        t = 0.2
        ens = first_events(spec, 400, 1.0, 5)
        rep = gillespie_equivalence_test(ens, t)
        firsts = [tr.event_times[0] for tr in ens.trajectories
                  if tr.n_events and tr.event_times[0] <= t]
        assert rep["samples"] == len(firsts) and rep["censored"] > 100
        assert rep["samples"] + rep["censored"] == ens.replicas
        assert sum(rep["observed_counts"]) == rep["samples"]
        truncated = stats.kstest(firsts, lambda s: stats.expon.cdf(
            s, scale=1 / 3) / stats.expon.cdf(t, scale=1 / 3))
        assert abs(rep["ks"]["stat"] - truncated.statistic) <= 1e-15
        assert rep["pass"]

    def test_silent_replica_is_not_read_from_the_next_log(self):
        # replica 1 fired nothing: its first event must not be read from
        # replica 2's log
        spec = ModelSpec(n=3, lam=3.0, total=3, initial=(1, 1, 1))
        ens = Ensemble(
            spec=spec, grid=np.empty(0), base_seed=0,
            samples=np.empty((3, 0, 3), dtype=np.int64),
            final_counts=np.array([[2, 0, 1], [1, 1, 1], [1, 2, 0]]),
            absorbed=np.full(3, math.nan), final_time=np.full(3, 1.0),
            event_times=np.array([0.1, 0.2]),
            event_reactions=np.array([0, 1], dtype=np.int16),
            event_offsets=np.array([0, 1, 1, 2]))
        rep = gillespie_equivalence_test(ens, 1.0)
        assert (rep["samples"], rep["censored"]) == (2, 1)
        assert rep["observed_counts"] == [1, 1, 0]

    def test_no_replica_fired_is_insufficient(self):
        spec = ModelSpec(n=3, lam=3.0, total=3, initial=(1, 1, 1))
        ens = first_events(spec, 5, 1e-6, 0)
        with pytest.raises(InsufficientReplicas,
                           match="^no replica fired an event by t=1e-06$"):
            gillespie_equivalence_test(ens, 1e-6)

    @pytest.mark.parametrize("t, message", [
        (-1.0, "must be non-negative"), (math.nan, "must be non-negative"),
        (1.5, "lies past the simulated time t=1 of an unabsorbed replica")])
    def test_time_takes_the_replay_rule(self, t, message):
        spec = ModelSpec(n=3, lam=3.0, total=3, initial=(1, 1, 1))
        ens = first_events(spec, 5, 1.0, 0)
        with pytest.raises(DomainError, match=message):
            gillespie_equivalence_test(ens, t)
        with pytest.raises(DomainError, match=message):
            ens.replay(t)

    def test_unlogged_ensemble_is_refused(self):
        spec = ModelSpec(n=3, lam=3.0, total=3, initial=(1, 1, 1))
        ens = run_ensemble(spec, 5, 1.0, (), 0, record_events=False)
        with pytest.raises(MissingEventLog):
            gillespie_equivalence_test(ens, 1.0)

    def test_absorbing_initial_state_rejected(self):
        spec = ModelSpec(n=3, lam=1.0, total=3, initial=(3, 0, 0))
        with pytest.raises(DomainError, match="all reaction rates are zero"):
            gillespie_equivalence_test(first_events(spec, 10, 1.0, 0), 1.0)

    def test_single_active_reaction_skips_chi2(self):
        spec = ModelSpec(n=3, lam=1.0, total=3, initial=(2, 1, 0))
        rep = gillespie_equivalence_test(first_events(spec, 300, 40.0, 3),
                                         40.0)
        assert rep["chi2"]["pvalue"] == 1.0
        assert rep["observed_counts"] == [300, 0, 0]

    @pytest.mark.parametrize("initial", [(7, 2, 0), (5, 3, 0, 0),
                                         (0, 0, 4, 6, 0)])
    def test_one_active_reaction_has_a_zero_chi_square(self, initial):
        # every first event is the one active reaction, so the general
        # statistic is exactly 0 and its p-value, at 0 degrees of freedom, 1
        spec = ModelSpec(n=len(initial), lam=1.0, total=sum(initial),
                         initial=initial)
        rep = gillespie_equivalence_test(first_events(spec, 50, 40.0, 1),
                                         40.0)
        assert rep["chi2"] == {"stat": 0.0, "pvalue": 1.0}
        assert sum(rep["observed_counts"]) == rep["samples"] > 0


# (n, x) points of the KS survival function where scipy takes a closed
# form or, as _kstwo_sf does, twice the one-sided tail (_smirnov)
KS_BRANCHES = {
    "t<=1/2": (None, [(1, 0.3), (3, 0.1), (300, 1e-3), (10_000, 4e-5)]),
    "t>=n-1": ("_smirnov", [(3, 0.7), (100, 0.995), (141, 0.996),
                            (300, 0.999)]),
    "x>=1/2": ("_smirnov", [(1, 0.75), (1, 0.999), (3, 0.5), (3, 0.6),
                            (100, 0.5), (141, 0.7), (300, 0.55)]),
    "smirnov": ("_smirnov", [(100, 0.25), (140, 0.3), (141, 0.15),
                             (300, 0.1), (300, 0.4), (10_000, 0.1),
                             (200_000, 0.004), (200_000, 0.04)]),
    "nx2>=370": ("_smirnov", [(10_000, 0.2), (200_000, 0.05)]),
}


def assert_close_to_scipy(got: float, want: float, rtol: float) -> None:
    if want > 1e-300:
        assert abs(got - want) <= rtol * want, (got, want)
    else:
        assert got <= 1e-300, (got, want)


def scipy_doubles_the_tail(n: int, x: float) -> bool:
    """Whether ``scipy.stats.kstwo.sf(x, n)`` is twice the one-sided tail,
    as Simard & L'Ecuyer's branch table (J. Stat. Softw. 39(11), 2011)
    takes it: where that is exact (x >= 1/2) or close (large n x^2)."""
    nx2 = n * x * x
    return x >= 0.5 or (nx2 > 4.0 if n <= 140 else nx2 >= 2.2)


class TestPValues:
    @pytest.mark.parametrize("branch", KS_BRANCHES)
    def test_kstwo_sf_branch_matches_scipy(self, branch, monkeypatch):
        helper, points = KS_BRANCHES[branch]
        called = []
        smirnov = rpsim.validate._smirnov
        monkeypatch.setattr(rpsim.validate, "_smirnov",
                            lambda *a: called.append(a) or smirnov(*a))
        for n, x in points:
            called.clear()
            got = _kstwo_sf(n, x)
            assert called == ([(n, x)] if helper else []), (n, x, called)
            assert_close_to_scipy(got, float(stats.kstwo.sf(x, n)), 1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3, 100, 140, 141, 300, 10_000,
                                   200_000])
    def test_kstwo_sf_sweep_bounds_scipy(self, n):
        # every edge of scipy's branch table in n*x and n*x^2 of this n, and
        # a sweep: twice the one-sided tail bounds the two-sided one above,
        # and is close to it wherever either is small
        t = [0.5, 0.75, 1.0, 1.5, n - 1.5, n - 1.0, n - 0.5]
        nx2 = [0.1, 1.0, 18.0, 50.0] + ([0.754693, 0.76, 3.99, 4.0, 4.01]
                                        if n <= 140 else
                                        [2.2, 2.21, 369.0, 370.0])
        xs = [v / n for v in t] + [math.sqrt(v / n) for v in nx2] \
            + [0.4999, 0.5, 0.5001] + np.linspace(1e-3, 0.999, 25).tolist()
        for x in sorted(v for v in xs if 0.0 < v < 1.0):
            got, want = _kstwo_sf(n, x), float(stats.kstwo.sf(x, n))
            assert got >= want - 1e-6, (x, got, want)
            if min(got, want) <= 0.05:
                assert abs(got - want) <= 1e-6, (x, got, want)
            if scipy_doubles_the_tail(n, x):
                assert_close_to_scipy(got, want, 1e-10)

    @pytest.mark.parametrize("x", [0.01, 0.2, 0.25, 0.3, 0.366, 0.367, 0.4,
                                   0.49, 0.5, 0.6, 0.9, 0.999])
    def test_kstwo_sf_closed_forms_of_one_and_two_samples(self, x):
        # n = 1: D_1 = max(U, 1 - U).  n = 2: P(D+_2 >= x) is 1 - x - x^2
        # below x = 1/2 (terms j = 0, 1) and (1 - x)^2 from there (j = 0)
        assert _kstwo_sf(1, x) == pytest.approx(min(1.0, 2 * (1 - x)),
                                                rel=1e-13)
        one_sided = 1 - x - x * x if x < 0.5 else (1 - x) ** 2
        want = 1.0 if 2 * x <= 0.5 else min(1.0, 2 * one_sided)
        assert _kstwo_sf(2, x) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("x", [0.0, -1.0, 1.0, 1.5])
    def test_kstwo_sf_outside_the_support(self, x):
        assert _kstwo_sf(50, x) == float(stats.kstwo.sf(x, 50))

    @pytest.mark.parametrize("k", range(1, 13))
    def test_chi2_sf_matches_scipy(self, k):
        for x in np.concatenate(([0.0, 1e-8, 1e-3, 0.1],
                                 np.linspace(0.5, 200.0, 400))):
            assert_close_to_scipy(_chi2_sf(float(x), k),
                                  float(stats.chi2.sf(x, k)), 1e-12)

    def test_chi2_sf_of_zero_with_no_degrees_of_freedom_is_one(self):
        # the first-event check's chi-square with one active reaction
        assert _chi2_sf(0.0, 0) == 1.0

    @pytest.mark.parametrize("seed", range(5))
    def test_ks_statistic_is_kstests_within_an_epsilon(self, seed):
        # scipy's CDF rounds differently by an ulp; near 1 that is eps
        rng = np.random.default_rng(seed)
        rate = rng.uniform(0.1, 30.0)
        times = rng.exponential(1.0 / rate, 3000) * (1.0 + 0.01 * seed)
        expected = stats.kstest(times, "expon", args=(0.0, 1.0 / rate))
        assert abs(_ks_statistic(times, 1.0 / rate, math.inf)
                   - expected.statistic) <= np.finfo(float).eps

    def test_ks_statistic_past_where_the_cdf_rounds_to_one_is_untruncated(
            self):
        # F(40 scale) = 1 - e^-40 rounds to 1.0, so the truncation is exact
        rng = np.random.default_rng(11)
        times = rng.exponential(0.5, 1000)
        assert _ks_statistic(times, 0.5, 20.0) == \
            _ks_statistic(times, 0.5, math.inf)
        assert _ks_statistic(times, 0.5, 2.0) != \
            _ks_statistic(times, 0.5, math.inf)


def test_import_and_help_load_no_scipy():
    # the p-values are computed in-house, so no process of the package pays
    # for importing scipy
    code = (
        "import runpy, sys\n"
        "import rpsim\n"
        "sys.argv = ['rpsim', '--help']\n"
        "try:\n"
        "    runpy.run_module('rpsim', run_name='__main__')\n"
        "except SystemExit:\n"
        "    pass\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(rpsim.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={"PYTHONPATH": src})
    assert "usage: rpsim" in out.stdout
    assert out.stdout.splitlines()[-1] == "[]"


def small_lln_setup(populations=(100, 400), replicas=40, t=1.0, seed=5):
    fractions = np.array([0.5, 0.3, 0.2])
    grid = np.linspace(0.0, t, 21)
    mf = integrate(fractions, 1.0, t_end=t, grid=grid)
    ensembles = []
    for k, m in enumerate(populations):
        spec = ModelSpec(n=3, lam=1.0, total=m,
                         initial=counts_from_fractions(fractions, m))
        ensembles.append(run_ensemble(spec, replicas, t, grid, seed + k,
                                      record_events=False))
    return ensembles, mf


class TestLln:
    def test_small_run_passes(self):
        ensembles, mf = small_lln_setup()
        rep = lln_test(ensembles, mf, 1.0, median_bound=0.2, ratio_band=None)
        assert rep["pass"]
        assert rep["monotone"]
        assert len(rep["records"]) == 2
        assert np.shape(rep["records"][0]["deviations"]) == (40,)
        assert rep["records"][1]["median"] < rep["records"][0]["median"]

    def test_populations_must_increase(self):
        ensembles, mf = small_lln_setup()
        with pytest.raises(DomainError):
            lln_test(list(reversed(ensembles)), mf, 1.0)

    @pytest.mark.parametrize("model, message", [
        (None, "need at least one ensemble"),
        (dict(n=4, lam=1.0, initial=(100, 100, 100, 100)),
         "ensembles must share species count and rate"),
        (dict(n=3, lam=2.0, initial=(200, 120, 80)),
         "ensembles must share species count and rate"),
    ], ids=["no-ensemble", "other-n", "other-rate"])
    def test_ensembles_must_share_the_model(self, model, message):
        ensembles, mf = small_lln_setup()
        if model is None:
            ensembles = []
        else:
            other = run_ensemble(ModelSpec(total=400, **model), 5, 1.0,
                                 ensembles[0].grid, 9, record_events=False)
            ensembles = [ensembles[0], other]
        with pytest.raises(DomainError, match=f"^{message}$"):
            lln_test(ensembles, mf, 1.0)

    def test_grids_must_match(self):
        ensembles, mf = small_lln_setup()
        spec = ensembles[1].spec
        other = run_ensemble(spec, 5, 1.0, np.linspace(0, 1, 5), 9,
                             record_events=False)
        with pytest.raises(GridMismatch):
            lln_test([ensembles[0], other], mf, 1.0)

    def test_grid_must_cover_t(self):
        ensembles, mf = small_lln_setup(t=1.0)
        with pytest.raises(GridMismatch):
            lln_test(ensembles, mf, 2.0)

    @pytest.mark.parametrize("t", [math.nan, -1.0])
    def test_time_must_be_non_negative(self, t):
        # these reached numpy's bare "zero-size array to reduction" error
        ensembles, mf = small_lln_setup()
        with pytest.raises(DomainError,
                           match=f"^lln time t={t} must be non-negative$"):
            lln_test(ensembles, mf, t)

    def test_fractions_must_match(self):
        ensembles, _ = small_lln_setup()
        other_fracs = np.array([1 / 3] * 3)
        grid = ensembles[0].grid
        spec = ModelSpec(n=3, lam=1.0, total=400,
                         initial=counts_from_fractions(other_fracs, 400))
        other = run_ensemble(spec, 5, 1.0, grid, 9, record_events=False)
        mf = integrate(other_fracs, 1.0, t_end=1.0, grid=grid)
        with pytest.raises(DomainError):
            lln_test([ensembles[0], other], mf, 1.0)

    def test_meanfield_grid_must_contain_sample_times(self):
        ensembles, _ = small_lln_setup()
        sparse_mf = integrate(np.array([0.5, 0.3, 0.2]), 1.0, t_end=1.0,
                              grid=np.array([0.0, 1.0]))
        with pytest.raises(GridMismatch):
            lln_test(ensembles, sparse_mf, 1.0)

    def test_ratio_band_enforced(self):
        ensembles, mf = small_lln_setup()
        rep = lln_test(ensembles, mf, 1.0, median_bound=0.2,
                       ratio_band=(100.0, 200.0))
        assert not rep["ratios_in_band"]
        assert not rep["pass"]

    def test_frees_each_ensemble_before_the_next_is_produced(self):
        ensembles, mf = small_lln_setup(populations=(100, 400, 1600))
        specs = [e.spec for e in ensembles]
        grid = ensembles[0].grid
        produced = []

        def lazily():
            for k, spec in enumerate(specs):
                assert [ref() for ref in produced] == [None] * k
                e = run_ensemble(spec, 40, 1.0, grid, 5 + k,
                                 record_events=False)
                produced.append(weakref.ref(e))
                yield e
                del e

        streamed = lln_test(lazily(), mf, 1.0, median_bound=0.2)
        assert len(produced) == 3
        assert [ref() for ref in produced] == [None] * 3
        assert streamed == lln_test(ensembles, mf, 1.0, median_bound=0.2)


def clt_setup(replicas=200, m=2000, t=1.0, seed=7, fractions=(1 / 3,) * 3):
    spec = ModelSpec(n=3, lam=1.0, total=m,
                     initial=counts_from_fractions(np.array(fractions), m))
    u0 = spec.fractions
    grid = np.array([0.0, t])
    mf = integrate(u0, 1.0, t_end=t, grid=grid)
    model = FluctuationModel.from_path(mf, 1.0)
    sigma = propagate_covariance(model, np.zeros((3, 3)))[-1]
    ens = run_ensemble(spec, replicas, t, grid, seed, record_events=False)
    return ens, mf, sigma


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.floats(min_value=0.0, max_value=1e6,
                                 allow_subnormal=False),
                       min_size=1, max_size=60),
       q=st.sampled_from([0.5, 0.9, 0.95, 0.05, 0.3]))
@example(values=[0.1, 0.7], q=0.95)
@example(values=[1.0, 2.0, 3.0, 1e6], q=0.5)
def test_median_and_quantile_are_numpys_bit_for_bit(values, q):
    a = np.array(values)
    ordered = np.sort(a)
    assert _median(ordered) == np.median(a)
    assert _quantile(ordered, q) == np.quantile(a, q)


def test_validation_does_not_import_numpy_ma():
    # np.median and np.quantile import numpy.ma on first use, which costs
    # validate's one run 10-28 ms; the LLN record takes their formulas
    code = (
        "import sys\n"
        "from rpsim import ValidationConfig, run_validation\n"
        "run_validation(ValidationConfig(\n"
        "    lln_populations=(20, 80), lln_replicas=10, lln_grid_points=5,\n"
        "    clt_population=100, clt_replicas=100, martingale_population=20,\n"
        "    martingale_replicas=20))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(rpsim.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={"PYTHONPATH": src})
    assert out.stdout.splitlines() == ["False"]


class TestClt:
    def test_small_run_passes(self):
        ens, mf, sigma = clt_setup()
        rep = clt_test(ens, mf, sigma, frobenius_bound=0.35)
        assert rep["pass"]
        assert not rep["degenerate"]
        assert rep["frobenius_rel_err"] < 0.35
        assert np.shape(rep["empirical_cov"]) == (3, 3)
        # scaled fluctuations have O(1) covariance and ~zero mean
        assert np.max(np.abs(rep["empirical_mean"])) < 0.5

    def test_needs_replicas(self):
        ens, mf, sigma = clt_setup(replicas=99)
        with pytest.raises(InsufficientReplicas):
            clt_test(ens, mf, sigma)

    def test_time_must_be_on_grid(self):
        ens, mf, _ = clt_setup()
        off_grid = CovarianceState(sigma=np.eye(3), time=0.37)
        with pytest.raises(GridMismatch):
            clt_test(ens, mf, off_grid)

    def test_degenerate_at_time_zero(self):
        ens, mf, _ = clt_setup(replicas=120)
        zero = CovarianceState(sigma=np.zeros((3, 3)), time=0.0)
        rep = clt_test(ens, mf, zero)
        assert rep["degenerate"]
        assert not rep["pass"]

    @pytest.mark.parametrize("seed", [42, 49, 57])
    def test_default_size_sees_a_wrong_drift(self, monkeypatch, seed):
        # From an off-centre start Σ tells b from bᵀ and −b; at the
        # symmetric one it is isotropic and cannot.  validate's CLT
        # ensemble at its default size and seed offset, from (0.5, 0.3,
        # 0.2), must keep the power to see either fault.
        cfg = ValidationConfig()
        ens, mf, sigma = clt_setup(
            cfg.clt_replicas, cfg.clt_population, cfg.clt_time,
            seed + rpsim.validate._SEED_CLT, fractions=(0.5, 0.3, 0.2))
        assert clt_test(ens, mf, sigma)["pass"]
        drift = rpsim.fluctuation.drift_matrix
        for fault in (lambda b: b.swapaxes(-1, -2), np.negative):
            monkeypatch.setattr(rpsim.fluctuation, "drift_matrix",
                                lambda u, lam: fault(drift(u, lam)))
            model = FluctuationModel.from_path(mf, 1.0)
            wrong = propagate_covariance(model, np.zeros((3, 3)))[-1]
            assert not clt_test(ens, mf, wrong)["pass"]


class TestMartingale:
    def test_small_run_passes(self):
        spec = ModelSpec(n=3, lam=1.0, total=100, initial=(34, 33, 33))
        ens = run_ensemble(spec, 600, 1.0, np.array([1.0]), base_seed=11,
                           record_events=True)
        rep = martingale_test(ens, 1.0, z_bound=4.0)
        assert rep["pass"]
        assert len(rep["checks"]) == 9  # 3 means + 3 qvs + 3 cross terms
        kinds = {c["kind"] for c in rep["checks"]}
        assert kinds == {"mean", "qv", "cross"}

    def test_time_zero_is_exact(self):
        spec = ModelSpec(n=3, lam=1.0, total=30, initial=(10, 10, 10))
        ens = run_ensemble(spec, 20, 1.0, np.array([1.0]), base_seed=0,
                           record_events=True)
        rep = martingale_test(ens, 0.0)
        assert rep["pass"]  # all statistics identically zero
        for c in rep["checks"]:
            assert c["estimate"] == 0.0 and c["z"] == 0.0

    def test_one_replica_is_insufficient(self):
        # one value has no standard error, so no z-score
        spec = ModelSpec(n=3, lam=1.0, total=30, initial=(10, 10, 10))
        ens = run_ensemble(spec, 1, 1.0, np.array([1.0]), base_seed=0,
                           record_events=True)
        with pytest.raises(InsufficientReplicas, match="^need at least 2 "
                           "replicas for a standard error, got 1$"):
            martingale_test(ens, 1.0)

    def test_requires_event_logs(self):
        spec = ModelSpec(n=3, lam=1.0, total=30, initial=(10, 10, 10))
        ens = run_ensemble(spec, 5, 1.0, np.array([1.0]), base_seed=0,
                           record_events=False)
        with pytest.raises(MissingEventLog):
            martingale_test(ens, 1.0)

    def test_time_past_the_run_is_a_domain_error(self):
        # an unabsorbed replica has no log past t_end, so replaying there
        # would count no events while its intensity kept accumulating
        spec = ModelSpec(n=3, lam=1.0, total=100, initial=(34, 33, 33))
        ens = run_ensemble(spec, 40, 1.0, np.array([1.0]), base_seed=5,
                           record_events=True)
        martingale_test(ens, 1.0)
        with pytest.raises(DomainError, match=r"t=2 lies past the simulated "
                           r"time t=1 of an unabsorbed replica"):
            martingale_test(ens, 2.0)
        # an absorbed replica's state is final, so it replays at any time
        spec = ModelSpec(n=3, lam=1.0, total=3, initial=(1, 1, 1))
        ens = run_ensemble(spec, 20, math.inf, np.array([0.0]), base_seed=5,
                           record_events=True)
        assert not np.isnan(ens.absorbed).any()
        rep = martingale_test(ens, 100.0)
        assert np.sum(rep["mean_jump_counts"]) == \
            ens.event_offsets[-1] / ens.replicas

    def test_counting_decomposition_consistency(self):
        # mean jump counts ~ mean internal times (that is the identity)
        spec = ModelSpec(n=3, lam=1.0, total=100, initial=(34, 33, 33))
        ens = run_ensemble(spec, 300, 1.0, np.array([1.0]), base_seed=13,
                           record_events=True)
        rep = martingale_test(ens, 1.0, z_bound=4.0)
        assert np.allclose(rep["mean_jump_counts"], rep["mean_internal_times"],
                           rtol=0.2)


class TestValidationConfig:
    def test_defaults(self):
        cfg = ValidationConfig()
        assert cfg.n == 3
        assert cfg.lln_populations == (100, 400, 1600, 6400)
        assert cfg.clt_replicas == 2000
        assert cfg.clt_population == 1000
        assert np.allclose(cfg.model_fractions(), 1 / 3)

    def test_from_ini(self, tmp_path):
        ini = tmp_path / "v.ini"
        ini.write_text(
            "[model]\nn = 4\nlambda = 2.5\n"
            "fractions = 0.4, 0.3, 0.2, 0.1\n"
            "[run]\nbase_seed = 99\n"
            "[validate]\nlln_populations = 50 200\nclt_replicas = 150\n"
            "martingale_z_bound = 3.5\ngillespie_p_threshold = 0.05\n"
        )
        cfg = ValidationConfig.from_ini(ini)
        assert cfg.n == 4 and cfg.lam == 2.5
        assert cfg.fractions == (0.4, 0.3, 0.2, 0.1)
        assert cfg.base_seed == 99
        assert cfg.lln_populations == (50, 200)
        assert cfg.clt_replicas == 150
        assert cfg.martingale_z_bound == 3.5
        assert cfg.gillespie_p_threshold == 0.05
        # untouched keys keep their defaults
        assert cfg.clt_time == 1.0

    def test_missing_file(self):
        with pytest.raises(DomainError):
            ValidationConfig.from_ini("/nonexistent/nope.ini")

    def test_every_field_reads_from_its_section(self, tmp_path):
        changed = dict(n=5, lam=0.5, fractions=(0.5, 0.5, 0.0),
                       base_seed=1,
                       lln_populations=(10, 40), lln_replicas=3, lln_time=0.25,
                       lln_grid_points=5, lln_median_bound=0.5,
                       lln_ratio_low=1.1, lln_ratio_high=3.0,
                       clt_population=9, clt_replicas=8, clt_time=0.75,
                       clt_frobenius_bound=0.25, martingale_population=7,
                       martingale_replicas=6, martingale_time=0.5,
                       martingale_z_bound=2.5, gillespie_p_threshold=0.05)
        assert set(changed) == {f.name for f in fields(ValidationConfig)}
        sections = {"model": ("n", "lam", "fractions"),
                    "run": ("base_seed",)}
        lines = {"model": [], "run": [], "validate": []}
        for name, value in changed.items():
            section = next((s for s, names in sections.items()
                            if name in names), "validate")
            text = ", ".join(map(str, value)) if isinstance(value, tuple) \
                else str(value)
            option = "lambda" if name == "lam" else name
            lines[section].append(f"{option} = {text}")
        ini = tmp_path / "v.ini"
        ini.write_text("".join(f"[{s}]\n" + "\n".join(body) + "\n"
                               for s, body in lines.items()))
        assert ValidationConfig.from_ini(ini) == ValidationConfig(**changed)

    def test_malformed_value_names_section_and_option(self, tmp_path):
        ini = tmp_path / "v.ini"
        ini.write_text("[model]\nn = abc\n")
        with pytest.raises(DomainError, match=r"\[model\] n: cannot parse 'abc'"):
            ValidationConfig.from_ini(ini)
        ini.write_text("[validate]\nlln_populations = 10, x\n")
        with pytest.raises(DomainError, match=r"\[validate\] lln_populations"):
            ValidationConfig.from_ini(ini)

    def test_unknown_option_or_section_is_an_error(self, tmp_path):
        ini = tmp_path / "v.ini"
        ini.write_text("[validate]\nlln_replica = 5\n")  # lln_replicas
        with pytest.raises(DomainError,
                           match=r"\[validate\] lln_replica: unknown option"):
            ValidationConfig.from_ini(ini)
        ini.write_text("[run]\nlambda = 2\n")  # belongs to [model]
        with pytest.raises(DomainError, match=r"\[run\] lambda: unknown"):
            ValidationConfig.from_ini(ini)
        ini.write_text("[modle]\nn = 4\n")
        with pytest.raises(DomainError, match=r"\[modle\]: unknown section"):
            ValidationConfig.from_ini(ini)

    @pytest.mark.parametrize("text, message", [
        (b"[run]\nbase_seed = 1\n[run]\nbase_seed = 2\n",
         "section 'run' already exists"),
        (b"[run]\nbase_seed = 1\nbase_seed = 2\n",
         "option 'base_seed' in section 'run' already exists"),
        (b"base_seed = 1\n", "File contains no section headers"),
        (b"[model]\nn = 3\xff\n", "can't decode byte 0xff"),
    ], ids=["repeated-section", "repeated-option", "no-section-header",
            "not-utf8"])
    def test_malformed_file_is_a_domain_error(self, tmp_path, text, message):
        ini = tmp_path / "v.ini"
        ini.write_bytes(text)
        with pytest.raises(DomainError) as err:
            ValidationConfig.from_ini(ini)
        assert str(err.value).startswith(f"{ini}: not a valid config file: ")
        assert message in str(err.value)
        assert "\n" not in str(err.value)

    def test_percent_is_read_as_written(self, tmp_path):
        # no interpolation: %(x)s is a value that does not parse, and a
        # lone % is read as it stands
        ini = tmp_path / "v.ini"
        ini.write_text("[model]\nn = %(x)s\n")
        with pytest.raises(DomainError,
                           match=r"^\[model\] n: cannot parse '%\(x\)s' as int"):
            ValidationConfig.from_ini(ini)
        ini.write_text("[model]\nlambda = 2%\n")
        with pytest.raises(DomainError, match=r"cannot parse '2%'"):
            ValidationConfig.from_ini(ini)

    def test_readme_example_loads_as_the_defaults(self, tmp_path):
        # the INI block in README.md lists every key with its default
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        ini = tmp_path / "v.ini"
        ini.write_text(block)
        assert ValidationConfig.from_ini(ini) == ValidationConfig()


def test_run_validation_smoke(tmp_path):
    cfg = ValidationConfig(
        lln_populations=(50, 200), lln_replicas=30, lln_time=0.5,
        lln_grid_points=11, lln_median_bound=0.3,
        clt_population=1000, clt_replicas=150, clt_time=0.5,
        clt_frobenius_bound=0.5,
        martingale_population=50, martingale_replicas=200,
        martingale_z_bound=4.0,
        base_seed=21,
    )
    lines = []
    reports = run_validation(cfg, echo=lines.append)
    assert set(reports) == {"gillespie", "lln", "clt", "martingale"}
    assert all(r["pass"] for r in reports.values())
    # the first-event check reads the martingale ensemble, so it is last
    assert [ln.split(":")[0] for ln in lines] == \
        ["lln", "clt", "martingale", "gillespie_equivalence"]
    assert all(("PASS" in ln) or ("FAIL" in ln) for ln in lines)


def test_defaults_run_one_logged_ensemble(monkeypatch):
    # beside the LLN groups, the defaults run the CLT ensemble and the
    # martingale ensemble, the only one that keeps an event log: the
    # first-event check reads it rather than running its own
    calls = []
    run_ensemble = rpsim.validate.run_ensemble

    def recorded(spec, replicas, *args, record_events, **kw):
        calls.append((spec.total, replicas, record_events))
        return run_ensemble(spec, replicas, *args,
                            record_events=record_events, **kw)

    monkeypatch.setattr(rpsim.validate, "run_ensemble", recorded)
    cfg = ValidationConfig()
    run_validation(cfg)
    assert calls == [
        (cfg.clt_population, cfg.clt_replicas, False),
        (cfg.martingale_population, cfg.martingale_replicas, True)]


def test_default_lln_populations_run_as_one_engine_call(monkeypatch):
    # the four LLN populations run as one engine call, each on its own
    # seed: split, the stage took about 1.2x as long
    lln = []
    run = rpsim.validate._run

    def lln_run(specs, replicas, t_end, grid, base_seeds, *rest):
        lln.append(([s.total for s in specs], list(base_seeds)))
        return run(specs, replicas, t_end, grid, base_seeds, *rest)

    monkeypatch.setattr(rpsim.validate, "_run", lln_run)
    run_validation(ValidationConfig())
    assert lln == [([100, 400, 1600, 6400], [43, 44, 45, 46])]


def test_a_failing_lln_population_is_named_by_its_index(monkeypatch):
    # one population a group, and a budget that the fourth, M = 6400,
    # exceeds first: the error named it "spec 0", its index in its group
    monkeypatch.setattr(rpsim.validate, "_LLN_GROUP_BYTES", 0)
    monkeypatch.setattr(rpsim.validate, "DEFAULT_MAX_EVENTS", 1500)
    with pytest.raises(ReplicaError) as err:
        run_validation(ValidationConfig())
    assert (err.value.spec, err.value.index) == (3, 0)
    assert str(err.value) == ("spec 3, replica 0: exceeded 1500 events at "
                              "t=0.717008 (horizon 2.0)")


# a small run of all four checks, and one move of each setting away from it
SMALL = ValidationConfig(lln_populations=(20, 80), lln_replicas=20,
                         lln_grid_points=11, clt_population=100,
                         clt_replicas=100, martingale_replicas=30)
MOVES = dict(n=4, lam=1.5, fractions=(0.5, 0.3, 0.2), base_seed=43,
             lln_populations=(20, 60), lln_replicas=21, lln_time=1.5,
             lln_grid_points=12, lln_median_bound=0.06, lln_ratio_low=1.5,
             lln_ratio_high=2.6, clt_population=120, clt_replicas=101,
             clt_time=0.75, clt_frobenius_bound=0.2, martingale_population=40,
             martingale_replicas=31, martingale_time=0.75,
             martingale_z_bound=3.5, gillespie_p_threshold=0.02)


def test_every_setting_changes_a_report():
    # a setting that no report depends on reaches no check: this fails for
    # it, and a new setting needs a move here
    names = [f.name for f in fields(ValidationConfig)]
    assert sorted(MOVES) == sorted(names)

    def reports(config):
        return json.dumps(run_validation(config), sort_keys=True)

    base = reports(SMALL)
    same = [name for name in names
            if reports(replace(SMALL, **{name: MOVES[name]})) == base]
    assert same == []


@pytest.mark.parametrize("line, error, message", [
    ("[validate]\nlln_grid_points = -3", DomainError,
     "lln_grid_points must be at least 2, got -3"),
    ("[validate]\nlln_grid_points = 1", DomainError,
     "lln_grid_points must be at least 2, got 1"),
    ("[validate]\nlln_time = inf", DomainError,
     "lln_time must be positive and finite, got inf"),
    ("[validate]\nclt_time = nan", DomainError,
     "clt_time must be positive and finite, got nan"),
    ("[validate]\nmartingale_time = 0", DomainError,
     "martingale_time must be positive and finite, got 0.0"),
    ("[validate]\nclt_replicas = 0", DomainError,
     "clt_replicas must be positive, got 0"),
    ("[validate]\nclt_replicas = 99", InsufficientReplicas,
     "clt_replicas must be at least 100, got 99"),
    ("[validate]\nlln_replicas = -1", DomainError,
     "lln_replicas must be positive, got -1"),
    ("[validate]\nmartingale_replicas = 0", DomainError,
     "martingale_replicas must be positive, got 0"),
    ("[validate]\nmartingale_replicas = 1", InsufficientReplicas,
     "^martingale_replicas must be at least 2, got 1$"),
    ("[validate]\nclt_population = 0", DomainError,
     "clt_population must be positive, got 0"),
    ("[validate]\nmartingale_population = -5", DomainError,
     "martingale_population must be positive, got -5"),
    ("[validate]\nlln_populations = 0 100", DomainError,
     "lln_populations must be positive and strictly increasing"),
    ("[validate]\nlln_populations = 400 100", DomainError,
     "lln_populations must be positive and strictly increasing"),
    # population k runs on base seed + 1 + k, the CLT check on + 101
    ("[validate]\nlln_populations = " + " ".join(map(str, range(1, 102))),
     DomainError, r"^lln_populations holds at most 100 sizes, got 101: "
     r"population k runs on base seed \+ 1 \+ k, and base seed \+ 101 is "
     r"the CLT check's$"),
    ("[validate]\ngillespie_p_threshold = 0", DomainError,
     "gillespie_p_threshold must lie in"),
    ("[validate]\ngillespie_p_threshold = 1", DomainError,
     "gillespie_p_threshold must lie in"),
    ("[model]\nfractions = 0.5 0.5", DomainError,
     r"^\[model\] fractions has 2 values but \[model\] n is 3$"),
    ("[model]\nlambda = nan", DomainError, "collision rate"),
    ("[model]\nlambda = -1", DomainError, r"^\[model\] lambda: collision "
     r"rate must be positive and finite, got -1\.0$"),
    ("[model]\nlambda = inf", DomainError,
     r"^\[model\] lambda: collision rate"),
    # pass bounds, which every check compares against
    *((f"[validate]\n{name} = {value}", DomainError,
       f"^{name} must be positive and finite, got {value}$")
      for name in ("lln_median_bound", "lln_ratio_low", "lln_ratio_high",
                   "clt_frobenius_bound", "martingale_z_bound")
      for value in ("-1.0", "0.0", "nan", "inf")),
    ("[validate]\nlln_ratio_low = 3\nlln_ratio_high = 1", DomainError,
     "^lln_ratio_low must be below lln_ratio_high, got 3.0 and 1.0$"),
    ("[validate]\nlln_ratio_low = 2\nlln_ratio_high = 2", DomainError,
     "^lln_ratio_low must be below lln_ratio_high, got 2.0 and 2.0$"),
    # settings that are gone: the first-event check reads the martingale
    # ensemble, the mean fields march at their default step
    *((f"[validate]\n{line}", DomainError,
       rf"^\[validate\] {line.split()[0]}: unknown option$")
      for line in ("gillespie_counts = 1 1 1", "gillespie_lambda = 3.0",
                   "gillespie_samples = 0", "meanfield_step = 1e-3")),
    # a mean-field horizon of more steps than a float or memory holds
    ("[validate]\nlln_time = 1e308", DomainError,
     r"^lln_time: t_end=1e\+308 takes inf steps of 0\.001, too many states "
     "to hold in memory$"),
    ("[validate]\nclt_time = 1e300", DomainError,
     r"^clt_time: t_end=1e\+300 takes 1e\+303 steps of 0\.001, too many "
     "states to hold in memory$"),
    # a martingale start from which no reaction can fire
    ("[model]\nfractions = 1 0 0", DomainError,
     r"^martingale_population = 100 and \[model\] fractions give the counts "
     r"\(100, 0, 0\), from which no reaction can fire$"),
    ("[validate]\nmartingale_population = 1", DomainError,
     r"^martingale_population = 1 and \[model\] fractions give the counts "
     r"\(1, 0, 0\), from which no reaction can fire$"),
    ("[model]\nfractions = 0.5 0.6 0.1", rpsim.core.NormalizationError,
     "fractions sum to"),
    # the model's errors name their key; a species count is checked before
    # anything of its size is built, so 10**12 fails at once
    ("[run]\nworkers = 2", DomainError, r"^\[run\] workers: unknown option$"),
    ("[model]\nn = 2", DomainError,
     r"^\[model\] n: need at least 3 species, got n=2$"),
    ("[model]\nn = 40000", DomainError,
     r"^\[model\] n: at most 1024 species, got n=40000$"),
    ("[model]\nn = 1000000000000", DomainError,
     r"^\[model\] n: at most 1024 species, got n=1000000000000$"),
    ("[model]\nfractions = 0.5, 0.6, 0.2", rpsim.core.NormalizationError,
     r"^\[model\] fractions: fractions sum to 1\.3, expected 1$"),
    ("[model]\nfractions = 0.5, -0.1, 0.6", DomainError,
     r"^\[model\] fractions: fractions must be finite and non-negative"),
    ("[run]\nbase_seed = -3", DomainError,
     "base seed must be a non-negative integer, got -3"),
    # no check reads a population total: each sets its own
    ("[model]\ntotal = 5000", DomainError, r"\[model\] total: unknown option"),
    # the start state has one key, [model] fractions
    ("[model]\ninitial = 5, 3, 2", DomainError,
     r"^\[model\] initial: unknown option$"),
])
def test_bad_config_fails_before_any_ensemble_runs(tmp_path, monkeypatch,
                                                   line, error, message):
    def no_ensemble(*args, **kw):
        raise AssertionError("an ensemble ran")

    monkeypatch.setattr(rpsim.validate, "run_ensemble", no_ensemble)
    monkeypatch.setattr(rpsim.validate, "_run", no_ensemble)
    ini = tmp_path / "v.ini"
    ini.write_text(line + "\n")
    with pytest.raises(error, match=message):
        run_validation(ValidationConfig.from_ini(ini))


def test_a_hundred_lln_populations_pass_the_config_check():
    # the most whose base seeds stay below the CLT check's
    specs, _ = rpsim.validate._check_config(
        ValidationConfig(lln_populations=tuple(range(1, 101))))
    assert len(specs) == 100 + 2


def no_ensembles():
    raise AssertionError("an ensemble was asked for")
    yield


# each check refuses a bad pass bound before it reads its inputs, by the rule
# that _check_config applies to the INI's bounds
@pytest.mark.parametrize("bad", [-1.0, 0.0, math.nan, math.inf])
@pytest.mark.parametrize("check, key", [
    (lambda b: lln_test(no_ensembles(), None, 1.0, median_bound=b),
     "median_bound"),
    (lambda b: lln_test(no_ensembles(), None, 1.0, ratio_band=(b, 2.5)),
     "ratio_band[0]"),
    (lambda b: lln_test(no_ensembles(), None, 1.0, ratio_band=(1.6, b)),
     "ratio_band[1]"),
    (lambda b: clt_test(None, None, None, frobenius_bound=b),
     "frobenius_bound"),
    (lambda b: martingale_test(None, 1.0, z_bound=b), "z_bound"),
])
def test_bad_pass_bound_is_refused_from_python(check, key, bad):
    with pytest.raises(DomainError, match=re.escape(
            f"{key} must be positive and finite, got {bad}")):
        check(bad)


@pytest.mark.parametrize("band", [(3.0, 1.0), (2.0, 2.0)])
def test_empty_ratio_band_is_refused_from_python(band):
    with pytest.raises(DomainError, match=re.escape(
            "ratio_band[0] must be below ratio_band[1], got "
            f"{band[0]} and {band[1]}")):
        lln_test(no_ensembles(), None, 1.0, ratio_band=band)


@pytest.mark.parametrize("bad", [-1.0, 0.0, 1.0, math.nan, math.inf])
def test_bad_p_threshold_is_refused_from_python(bad):
    with pytest.raises(DomainError, match=re.escape(
            f"p_threshold must lie in (0, 1), got {bad}")):
        gillespie_equivalence_test(None, 1.0, p_threshold=bad)


@pytest.mark.parametrize("seed", [-1, 1.5, "7"])
def test_bad_base_seed_fails_before_any_ensemble_runs(monkeypatch, seed):
    monkeypatch.setattr(rpsim.validate, "run_ensemble", None)
    with pytest.raises(DomainError, match=re.escape(
            f"base seed must be a non-negative integer, got {seed!r}")):
        run_validation(ValidationConfig(base_seed=seed))


def test_peak_memory_holds_one_lln_population_at_a_time(monkeypatch):
    # every LLN population's samples are one (replicas, grid, n) array of
    # the same size; with a group budget below one population they run one
    # at a time, and quadrupling the replicas must grow the peak by about
    # one such array (and the engine's draw block), not by all four and
    # the record's temporaries, as it did when the populations were run
    # into a list before the check and each record was made in one piece
    monkeypatch.setattr(rpsim.validate, "_LLN_GROUP_BYTES", 0)

    def peak(replicas):
        cfg = ValidationConfig(
            lln_populations=(25, 100, 400, 1600), lln_replicas=replicas,
            lln_time=0.5, lln_grid_points=201, clt_population=200,
            clt_replicas=100, clt_time=0.2, martingale_population=20,
            martingale_replicas=50, martingale_time=0.2,
            base_seed=3)
        tracemalloc.start()
        try:
            run_validation(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    base = 50
    peak(base)      # the first run also allocates what is built once
    samples = 3 * base * 201 * 3 * 8    # one population's growth, bytes
    growth = peak(4 * base) - peak(base)
    assert growth < 2 * samples, growth / samples


def test_peak_memory_holds_the_lln_samples_once(monkeypatch):
    # with a group budget above all four populations they run in one
    # lockstep, so their samples, one (replicas, grid, n) array each, are
    # held together; quadrupling the replicas must grow the peak by those arrays and the engine's
    # per-replica buffers (a draw row and a generator each, about half a
    # population's samples here), not by a second copy of the samples or
    # the record's temporaries made in one piece, each of which measured
    # a population or more on top
    monkeypatch.setattr(rpsim.validate, "_LLN_GROUP_BYTES", 2**62)
    pops = (25, 100, 400, 1600)

    def peak(replicas):
        cfg = ValidationConfig(
            lln_populations=pops, lln_replicas=replicas,
            lln_time=0.5, lln_grid_points=801, clt_population=200,
            clt_replicas=100, clt_time=0.2, martingale_population=20,
            martingale_replicas=50, martingale_time=0.2,
            base_seed=3)
        tracemalloc.start()
        try:
            run_validation(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    base = 50
    peak(base)      # the first run also allocates what is built once
    samples = 3 * base * 801 * 3 * 8    # one population's growth, bytes
    growth = peak(4 * base) - peak(base)
    assert growth < (len(pops) + 1.5) * samples, growth / samples


def test_lln_groups_keep_within_the_budget(monkeypatch):
    # a budget of three populations' samples and a byte: groups of 3 and 1,
    # with each population's own seed, and the report of one group
    cfg = ValidationConfig(
        lln_populations=(20, 80, 320, 1280), lln_replicas=10,
        lln_grid_points=5, clt_population=100, clt_replicas=100,
        martingale_population=20, martingale_replicas=20)
    whole = run_validation(cfg)["lln"]
    groups = []
    run = rpsim.validate._run

    def recorded(specs, replicas, t_end, grid, base_seeds, *rest):
        groups.append(([s.total for s in specs], base_seeds))
        return run(specs, replicas, t_end, grid, base_seeds, *rest)

    monkeypatch.setattr(rpsim.validate, "_run", recorded)
    monkeypatch.setattr(rpsim.validate, "_LLN_GROUP_BYTES",
                        3 * 10 * 5 * 3 * 8 + 1)
    assert run_validation(cfg)["lln"] == whole
    seed = cfg.base_seed + 1
    assert groups == [([20, 80, 320], [seed, seed + 1, seed + 2]),
                      ([1280], [seed + 3])]


def test_lln_ensembles_are_released_before_the_clt_run(monkeypatch):
    lln, at_clt = [], []
    run, run_ensemble = rpsim.validate._run, rpsim.validate.run_ensemble

    def lln_ensembles(*args, **kw):
        ensembles = run(*args, **kw)
        lln.extend(weakref.ref(e.samples.base) for e in ensembles)
        return ensembles

    def ensemble(spec, *args, **kw):
        if lln:     # the CLT run comes first after the LLN check
            at_clt.append([ref() for ref in lln])
            lln.clear()
        return run_ensemble(spec, *args, **kw)

    monkeypatch.setattr(rpsim.validate, "_run", lln_ensembles)
    monkeypatch.setattr(rpsim.validate, "run_ensemble", ensemble)
    run_validation(ValidationConfig(
        lln_populations=(20, 80), lln_replicas=10, lln_grid_points=5,
        clt_population=100, clt_replicas=100, martingale_population=20,
        martingale_replicas=20))
    assert at_clt == [[None, None]]


def test_run_validation_builds_no_trajectory_objects(monkeypatch):
    # every ensemble here takes the lockstep engine, and every check reads
    # the ensemble's arrays, so no per-replica object is ever made
    built = []
    init = rpsim.core.Trajectory.__init__

    def counted(self, *args, **kw):
        built.append(self)
        init(self, *args, **kw)

    monkeypatch.setattr(rpsim.core.Trajectory, "__init__", counted)
    cfg = ValidationConfig(
        lln_populations=(50, 200), lln_replicas=32, lln_time=0.5,
        lln_grid_points=11, clt_population=500, clt_replicas=120,
        clt_time=0.5, martingale_population=50, martingale_replicas=100,
        base_seed=21)
    run_validation(cfg)
    assert built == []


def json_leaves(value):
    """Every leaf of a tree of dicts and lists."""
    if type(value) is dict:
        assert all(type(key) is str for key in value)
        for v in value.values():
            yield from json_leaves(v)
    elif type(value) is list:
        for v in value:
            yield from json_leaves(v)
    else:
        yield value


def test_every_report_is_plain_json():
    # a report is the dict written to <check>.json: json writes numpy
    # floats as floats, so only the leaf types tell them apart
    cfg = ValidationConfig(
        lln_populations=(20, 80), lln_replicas=10, lln_grid_points=5,
        clt_population=100, clt_replicas=100, martingale_population=20,
        martingale_replicas=20)
    reports = run_validation(cfg)
    assert {name: r["check"] for name, r in reports.items()} == {
        "gillespie": "gillespie_equivalence", "lln": "lln", "clt": "clt",
        "martingale": "martingale"}
    for name, report in reports.items():
        assert type(report["pass"]) is bool
        types = {type(leaf) for leaf in json_leaves(report)}
        assert types <= {int, float, bool, str, type(None)}, (name, types)
        assert json.loads(json.dumps(report)) == report
