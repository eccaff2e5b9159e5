from dataclasses import fields

import numpy as np
import pytest

from rpsim import (
    DomainError,
    GridMismatch,
    InsufficientReplicas,
    MissingEventLog,
    ModelSpec,
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


def test_zero_sum_projector():
    p = zero_sum_projector(4)
    assert np.allclose(p, p.T)
    assert np.allclose(p @ p, p, atol=1e-15)
    assert np.allclose(p @ np.ones(4), 0.0, atol=1e-15)


class TestGillespieEquivalence:
    def test_expected_probabilities(self):
        spec = ModelSpec(n=3, lam=4.0, total=4, initial=(2, 1, 1))
        rep = gillespie_equivalence_test(spec, 200, base_seed=0)
        # rates (lam/M) x_j x_{j+1} = (2, 1, 2) -> probs (0.4, 0.2, 0.4)
        assert np.allclose(rep.expected_probs, [0.4, 0.2, 0.4])
        assert rep.total_rate == pytest.approx(5.0)
        assert rep.observed_counts.sum() == 200

    def test_passes_on_the_exact_engine(self):
        spec = ModelSpec(n=3, lam=3.0, total=3, initial=(1, 1, 1))
        rep = gillespie_equivalence_test(spec, 4000, base_seed=1)
        assert rep.passed
        assert rep.ks_pvalue > 0.01 and rep.chi2_pvalue > 0.01

    def test_deterministic_for_fixed_seed(self):
        spec = ModelSpec(n=3, lam=3.0, total=3, initial=(1, 1, 1))
        a = gillespie_equivalence_test(spec, 500, base_seed=2)
        b = gillespie_equivalence_test(spec, 500, base_seed=2)
        assert a.ks_stat == b.ks_stat
        assert a.observed_counts.tolist() == b.observed_counts.tolist()

    def test_absorbing_initial_state_rejected(self):
        spec = ModelSpec(n=3, lam=1.0, total=3, initial=(3, 0, 0))
        with pytest.raises(DomainError):
            gillespie_equivalence_test(spec, 100, base_seed=0)

    def test_single_active_reaction_skips_chi2(self):
        spec = ModelSpec(n=3, lam=1.0, total=3, initial=(2, 1, 0))
        rep = gillespie_equivalence_test(spec, 300, base_seed=3)
        assert rep.chi2_pvalue == 1.0
        assert rep.observed_counts.tolist() == [300, 0, 0]

    def test_to_dict_is_json_ready(self):
        import json
        spec = ModelSpec(n=3, lam=3.0, total=3, initial=(1, 1, 1))
        rep = gillespie_equivalence_test(spec, 100, base_seed=0)
        d = rep.to_dict()
        json.dumps(d)
        assert d["check"] == "gillespie_equivalence"
        assert isinstance(d["pass"], bool)


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
        assert rep.passed
        assert rep.monotone
        assert len(rep.records) == 2
        assert rep.records[0].deviations.shape == (40,)
        assert rep.records[1].median < rep.records[0].median

    def test_populations_must_increase(self):
        ensembles, mf = small_lln_setup()
        with pytest.raises(DomainError):
            lln_test(list(reversed(ensembles)), mf, 1.0)

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
        assert not rep.ratios_in_band
        assert not rep.passed


def clt_setup(replicas=200, m=2000, t=1.0, seed=7):
    spec = ModelSpec(n=3, lam=1.0, total=m,
                     initial=counts_from_fractions(np.array([1 / 3] * 3), m))
    u0 = spec.fractions
    grid = np.array([0.0, t])
    mf = integrate(u0, 1.0, t_end=t, grid=grid)
    model = FluctuationModel.from_path(mf, 1.0)
    sigma = propagate_covariance(model, np.zeros((3, 3)))[-1]
    ens = run_ensemble(spec, replicas, t, grid, seed, record_events=False)
    return ens, mf, sigma


class TestClt:
    def test_small_run_passes(self):
        ens, mf, sigma = clt_setup()
        rep = clt_test(ens, mf, sigma, frobenius_bound=0.35)
        assert rep.passed
        assert not rep.degenerate
        assert rep.frobenius_rel_err < 0.35
        assert rep.empirical_cov.shape == (3, 3)
        # scaled fluctuations have O(1) covariance and ~zero mean
        assert np.max(np.abs(rep.empirical_mean)) < 0.5

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
        assert rep.degenerate
        assert not rep.passed


class TestMartingale:
    def test_small_run_passes(self):
        spec = ModelSpec(n=3, lam=1.0, total=100, initial=(34, 33, 33))
        ens = run_ensemble(spec, 600, 1.0, np.array([1.0]), base_seed=11,
                           record_events=True)
        rep = martingale_test(ens, 1.0, z_bound=4.0)
        assert rep.passed
        assert len(rep.checks) == 9  # 3 means + 3 qvs + 3 cross terms
        kinds = {c.kind for c in rep.checks}
        assert kinds == {"mean", "qv", "cross"}

    def test_time_zero_is_exact(self):
        spec = ModelSpec(n=3, lam=1.0, total=30, initial=(10, 10, 10))
        ens = run_ensemble(spec, 20, 1.0, np.array([1.0]), base_seed=0,
                           record_events=True)
        rep = martingale_test(ens, 0.0)
        assert rep.passed  # all statistics identically zero
        for c in rep.checks:
            assert c.estimate == 0.0 and c.z == 0.0

    def test_requires_event_logs(self):
        spec = ModelSpec(n=3, lam=1.0, total=30, initial=(10, 10, 10))
        ens = run_ensemble(spec, 5, 1.0, np.array([1.0]), base_seed=0,
                           record_events=False)
        with pytest.raises(MissingEventLog):
            martingale_test(ens, 1.0)

    def test_counting_decomposition_consistency(self):
        # mean jump counts ~ mean internal times (that is the identity)
        spec = ModelSpec(n=3, lam=1.0, total=100, initial=(34, 33, 33))
        ens = run_ensemble(spec, 300, 1.0, np.array([1.0]), base_seed=13,
                           record_events=True)
        rep = martingale_test(ens, 1.0, z_bound=4.0)
        assert np.allclose(rep.mean_jump_counts, rep.mean_internal_times,
                           rtol=0.2)


class TestValidationConfig:
    def test_defaults(self):
        cfg = ValidationConfig()
        assert cfg.n == 3
        assert cfg.lln_populations == (100, 400, 1600, 6400)
        assert cfg.clt_replicas == 2000
        assert np.allclose(cfg.model_fractions(), 1 / 3)

    def test_from_ini(self, tmp_path):
        ini = tmp_path / "v.ini"
        ini.write_text(
            "[model]\nn = 4\nlambda = 2.5\ntotal = 500\n"
            "fractions = 0.4, 0.3, 0.2, 0.1\n"
            "[run]\nbase_seed = 99\nworkers = 3\n"
            "[validate]\nlln_populations = 50 200\nclt_replicas = 150\n"
            "martingale_z_bound = 3.5\ngillespie_samples = 123\n"
        )
        cfg = ValidationConfig.from_ini(ini)
        assert cfg.n == 4 and cfg.lam == 2.5 and cfg.total == 500
        assert cfg.fractions == (0.4, 0.3, 0.2, 0.1)
        assert cfg.base_seed == 99 and cfg.workers == 3
        assert cfg.lln_populations == (50, 200)
        assert cfg.clt_replicas == 150
        assert cfg.martingale_z_bound == 3.5
        assert cfg.gillespie_samples == 123
        # untouched keys keep their defaults
        assert cfg.clt_time == 1.0

    def test_initial_counts_override_fractions(self, tmp_path):
        ini = tmp_path / "v.ini"
        ini.write_text("[model]\ninitial = 5, 3, 2\n")
        cfg = ValidationConfig.from_ini(ini)
        assert cfg.total == 10
        assert cfg.fractions == (0.5, 0.3, 0.2)

    def test_missing_file(self):
        with pytest.raises(DomainError):
            ValidationConfig.from_ini("/nonexistent/nope.ini")

    def test_every_field_reads_from_its_section(self, tmp_path):
        changed = dict(n=5, lam=0.5, total=77, fractions=(0.5, 0.5, 0.0),
                       base_seed=1, workers=2, meanfield_step=2e-3,
                       lln_populations=(10, 40), lln_replicas=3, lln_time=0.25,
                       lln_grid_points=5, lln_median_bound=0.5,
                       lln_ratio_low=1.1, lln_ratio_high=3.0,
                       clt_population=9, clt_replicas=8, clt_time=0.75,
                       clt_frobenius_bound=0.25, martingale_population=7,
                       martingale_replicas=6, martingale_time=0.5,
                       martingale_z_bound=2.5, gillespie_counts=(1, 2, 3),
                       gillespie_lambda=1.5, gillespie_samples=44,
                       gillespie_p_threshold=0.05)
        assert set(changed) == {f.name for f in fields(ValidationConfig)}
        sections = {"model": ("n", "lam", "total", "fractions"),
                    "run": ("base_seed", "workers")}
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


def test_run_validation_smoke(tmp_path):
    cfg = ValidationConfig(
        lln_populations=(50, 200), lln_replicas=30, lln_time=0.5,
        lln_grid_points=11, lln_median_bound=0.3,
        clt_population=1000, clt_replicas=150, clt_time=0.5,
        clt_frobenius_bound=0.5,
        martingale_population=50, martingale_replicas=200,
        martingale_z_bound=4.0,
        gillespie_samples=1500,
        base_seed=21,
    )
    lines = []
    reports = run_validation(cfg, workers=2, echo=lines.append)
    assert set(reports) == {"gillespie", "lln", "clt", "martingale"}
    assert all(r.passed for r in reports.values())
    assert len(lines) == 4
    assert all(("PASS" in ln) or ("FAIL" in ln) for ln in lines)
