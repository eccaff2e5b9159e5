import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpsim import (
    CovarianceState,
    DomainError,
    FluctuationModel,
    NotPSD,
    NumericError,
    diffusion_matrix,
    drift_matrix,
    integrate,
    propagate_covariance,
    psd_sqrt,
    rng_stream,
    run_sde_ensemble,
    vector_field,
)

THIRD = np.full(3, 1 / 3)


def propagate_moments(b_of, c_of, sigma0, times, step):
    """Reference moment march: dS/dt = b(t)S + Sb(t)' + c(t) by RK4 with the
    coefficients injected as functions of time.

    Independent of the package's joint (u, S) march, which evaluates b and c
    at the RK4 stage states.  Returns S at each requested time (snapped to
    the nearest step); symmetry is re-enforced after every step, and a
    smallest eigenvalue below -1e-6 raises :class:`NotPSD`.
    """
    times = np.asarray(times, dtype=float)
    n_steps = int(round(times[-1] / step)) if len(times) else 0
    wanted = np.clip(np.rint(times / step).astype(int), 0, n_steps)

    def rhs(tau, sig):
        b = b_of(tau)
        return b @ sig + sig @ b.T + c_of(tau)

    s = np.array(sigma0, dtype=float)
    out = [s.copy() if idx == 0 else None for idx in wanted]
    for k in range(n_steps):
        t, h = k * step, step
        k1 = rhs(t, s)
        k2 = rhs(t + 0.5 * h, s + (0.5 * h) * k1)
        k3 = rhs(t + 0.5 * h, s + (0.5 * h) * k2)
        k4 = rhs(t + h, s + h * k3)
        s = s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        s = 0.5 * (s + s.T)
        if np.linalg.eigvalsh(s)[0] < -1e-6:
            raise NotPSD(f"covariance lost positive semi-definiteness at t={t + h:.6g}")
        for pos in np.flatnonzero(wanted == k + 1):
            out[pos] = s.copy()
    return out


def reference_em(model, v0, step, grid, rng):
    """Reference Euler-Maruyama march, one path and one step at a time:
    step k takes b and c at the path step nearest to ``k * step``, and the
    noise is one standard normal per species per step, step-major."""
    path, n = model.path, model.n
    n_steps = int(round(grid[-1] / step))
    xi = rng.standard_normal((n_steps, n))
    v = np.zeros(n) if v0 is None else np.array(v0, dtype=float)
    after = [v]                             # after[k] is V after k steps
    for k in range(n_steps):
        u = path.step_states[round(k * step / path.step)]
        b = drift_matrix(u, model.lam)
        root = psd_sqrt(diffusion_matrix(u, model.lam))
        v = v + (b @ v) * step + (root @ xi[k]) * math.sqrt(step)
        after.append(v)
    return np.array([after[round(t / step)] for t in grid])


def one_path(model, v0, step, grid, seed):
    """The single path of a one-path ensemble: it runs on rng_stream(seed, 0)."""
    return run_sde_ensemble(model, v0, step, grid, 1, seed)[0]


def random_simplex(rng, n):
    return rng.dirichlet(np.ones(n))


class TestDriftMatrix:
    def test_symmetric_point(self):
        b = drift_matrix(THIRD, 3.0)
        assert np.allclose(b, [[0, 1, -1], [-1, 0, 1], [1, -1, 0]], atol=1e-15)

    def test_vertex(self):
        b = drift_matrix(np.array([1.0, 0.0, 0.0]), 1.0)
        assert np.allclose(b, [[0, 1, -1], [0, -1, 0], [0, 0, 1]], atol=1e-15)

    def test_columns_sum_to_zero(self):
        rng = np.random.default_rng(0)
        for n in (3, 5, 8):
            b = drift_matrix(random_simplex(rng, n), 1.3)
            assert np.max(np.abs(b.sum(axis=0))) < 1e-14

    def test_is_jacobian_of_the_field(self):
        # central differences are exact for a bilinear field up to roundoff
        rng = np.random.default_rng(1)
        for n in (3, 5, 8):
            u = random_simplex(rng, n)
            b = drift_matrix(u, 1.0)
            h = 1e-5
            for k in range(n):
                e = np.zeros(n)
                e[k] = h
                fd = (vector_field(u + e, 1.0)
                      - vector_field(u - e, 1.0)) / (2 * h)
                assert np.max(np.abs(b[:, k] - fd)) < 1e-9


class TestDiffusionMatrix:
    def test_symmetric_point(self):
        c = diffusion_matrix(THIRD, 1.0)
        assert np.allclose(c, np.array([[2, -1, -1], [-1, 2, -1],
                                        [-1, -1, 2]]) / 9.0, atol=1e-16)

    def test_edge_decomposition(self):
        # c must equal sum_j f_j (e_j - e_{j+1})(e_j - e_{j+1})^T
        rng = np.random.default_rng(2)
        for n in (3, 5, 8):
            u = random_simplex(rng, n)
            c = diffusion_matrix(u, 2.0)
            rebuilt = np.zeros((n, n))
            for j in range(n):
                f = 2.0 * u[j] * u[(j + 1) % n]
                v = np.zeros(n)
                v[j], v[(j + 1) % n] = 1.0, -1.0
                rebuilt += f * np.outer(v, v)
            assert np.allclose(c, rebuilt, atol=1e-15)

    def test_structure(self):
        rng = np.random.default_rng(3)
        for n in (3, 5, 8):
            u = random_simplex(rng, n)
            c = diffusion_matrix(u, 1.0)
            assert np.array_equal(c, c.T)
            assert np.max(np.abs(c @ np.ones(n))) < 1e-14
            assert np.linalg.eigvalsh(c)[0] >= -1e-12
            if n > 3:
                # cyclic band: entries beyond the first off-diagonal (mod
                # wrap-around) vanish identically
                for j in range(n):
                    for k in range(n):
                        if min((j - k) % n, (k - j) % n) > 1:
                            assert c[j, k] == 0.0

    def test_leading_block_positive_definite_inside(self):
        rng = np.random.default_rng(4)
        for n in (3, 5, 8):
            u = 0.9 * random_simplex(rng, n) + 0.1 / n  # bounded away from 0
            c = diffusion_matrix(u, 1.0)
            assert np.linalg.eigvalsh(c[:-1, :-1])[0] > 0


class TestPsdSqrt:
    def test_diagonal(self):
        root = psd_sqrt(np.diag([4.0, 1.0, 0.0]))
        assert np.allclose(root, np.diag([2.0, 1.0, 0.0]), atol=1e-15)

    def test_multiplies_back(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 4))
        c = a @ a.T
        root = psd_sqrt(c)
        assert np.allclose(root @ root, c, atol=1e-12)
        assert np.array_equal(root, root.T)

    def test_tiny_negative_eigenvalue_clamped(self):
        c = np.diag([1.0, -1e-12])
        root = psd_sqrt(c)
        assert root[1, 1] == 0.0

    def test_genuinely_indefinite_raises(self):
        with pytest.raises(NotPSD):
            psd_sqrt(np.diag([1.0, -1e-3]))

    def test_asymmetric_raises(self):
        with pytest.raises(DomainError):
            psd_sqrt(np.array([[1.0, 0.5], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad, error", [
        (np.diag([1.0, -1e-3, 1.0]), NotPSD),
        (np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
         DomainError),
        # -5e-10 is clamped to 0, which misses c by more than 1e-10*(1+1e-3)
        (np.diag([1e-3, -5e-10, 0.0]), NumericError),
        (np.diag([1.0, np.nan, 1.0]), DomainError),
        (np.diag([1.0, 1.0, np.inf]), DomainError),
    ])
    def test_stack_with_one_bad_matrix_raises_as_its_own_call(self, bad,
                                                              error):
        good = diffusion_matrix(np.array([0.5, 0.3, 0.2]), 1.0)
        with pytest.raises(error) as single:
            psd_sqrt(bad)
        with pytest.raises(error) as stacked:
            psd_sqrt(np.stack([good, good, bad, good, bad]))
        assert str(stacked.value) == str(single.value)

    def test_stack_shape_is_checked(self):
        with pytest.raises(DomainError):
            psd_sqrt(np.zeros((4, 3, 2)))
        with pytest.raises(DomainError):
            psd_sqrt(np.zeros(3))

    def test_empty_stack(self):
        assert psd_sqrt(np.zeros((0, 3, 3))).shape == (0, 3, 3)


@given(seed=st.integers(min_value=0, max_value=2**31),
       n=st.sampled_from([3, 5, 8]), k=st.integers(min_value=1, max_value=6),
       zeros=st.booleans())
@settings(max_examples=40, deadline=None)
def test_batched_builders_match_per_matrix_calls(seed, n, k, zeros):
    # bit for bit, signed zeros included, so compare bytes
    rng = np.random.default_rng(seed)
    u = rng.dirichlet(np.ones(n), size=k)
    if zeros:  # boundary states, where -0.0 entries can appear
        u[:, rng.integers(0, n)] = 0.0
    lam = float(rng.uniform(0.1, 3.0))
    b, c = drift_matrix(u, lam), diffusion_matrix(u, lam)
    assert b.shape == c.shape == (k, n, n)
    roots = psd_sqrt(c)
    for i in range(k):
        assert b[i].tobytes() == drift_matrix(u[i], lam).tobytes()
        assert c[i].tobytes() == diffusion_matrix(u[i], lam).tobytes()
        assert roots[i].tobytes() == psd_sqrt(c[i]).tobytes()
    # a (k, n) stack and a (1, k, n) stack give the same tables
    assert drift_matrix(u[None], lam)[0].tobytes() == b.tobytes()


class TestCovarianceState:
    def test_accepts_psd(self):
        CovarianceState(sigma=np.eye(3), time=0.0)

    def test_rejects_asymmetric(self):
        bad = np.eye(3)
        bad[0, 1] = 1e-6
        with pytest.raises(DomainError):
            CovarianceState(sigma=bad, time=0.0)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSD):
            CovarianceState(sigma=np.diag([1.0, -1e-6, 1.0]), time=0.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, value):
        bad = np.eye(3)
        bad[1, 2] = bad[2, 1] = value
        with pytest.raises(DomainError, match="non-finite entry"):
            CovarianceState(sigma=bad, time=0.0)
        with pytest.raises(DomainError, match="non-finite entry"):
            psd_sqrt(bad)


class TestPropagateMoments:
    def test_pure_source(self):
        # b = 0, c = I: solution is sigma0 + t*I
        ident = np.eye(3)
        out = propagate_moments(lambda t: np.zeros((3, 3)), lambda t: ident,
                                np.zeros((3, 3)), np.array([0.0, 0.5, 1.0]),
                                step=1e-3)
        assert np.allclose(out[0], 0.0, atol=1e-14)
        assert np.allclose(out[1], 0.5 * ident, atol=1e-12)
        assert np.allclose(out[2], 1.0 * ident, atol=1e-12)

    def test_pure_drift(self):
        # b = a*I, c = 0: solution is e^{2at} * sigma0
        a = -0.3
        out = propagate_moments(lambda t: a * np.eye(2),
                                lambda t: np.zeros((2, 2)),
                                np.eye(2), np.array([1.0]), step=1e-3)
        assert np.allclose(out[0], np.exp(2 * a) * np.eye(2), atol=1e-10)

    def test_against_exponential_quadrature_oracle(self):
        # frozen from scipy.linalg.expm + Simpson (K=2000, self-convergence
        # 8e-16) for constant coefficients taken at u=(0.5,0.3,0.2), lam=1;
        # the coefficients do not commute, so time-ordering is exercised
        u = np.array([0.5, 0.3, 0.2])
        b = drift_matrix(u, 1.0)
        c = diffusion_matrix(u, 1.0)
        oracle = np.array([
            [0.26906165282342387, -0.1337614943236515, -0.13530015849977137],
            [-0.13376149432365148, 0.17907680149432806, -0.04531530717067613],
            [-0.13530015849977137, -0.04531530717067613, 0.18061546567044853],
        ])
        out = propagate_moments(lambda t: b, lambda t: c, np.zeros((3, 3)),
                                np.array([1.0]), step=1e-3)
        assert np.max(np.abs(out[0] - oracle)) < 1e-9

    def test_monitor_rejects_runaway_negative(self):
        # c = -I drives the covariance indefinite immediately
        with pytest.raises(NotPSD):
            propagate_moments(lambda t: np.zeros((2, 2)),
                              lambda t: -np.eye(2),
                              np.zeros((2, 2)), np.array([1.0]), step=1e-2)


def fixed_point_model(t_end=1.0, step=1e-3, grid=None):
    if grid is None:
        grid = np.array([0.0, t_end])
    path = integrate(THIRD, 1.0, t_end=t_end, step=step, grid=grid)
    return FluctuationModel.from_path(path, 1.0)


class TestPropagateCovariance:
    def test_fixed_point_closed_form(self):
        # at the symmetric point every matrix is circulant and the drift is
        # antisymmetric, so the covariance grows linearly: sigma(t) = t*c
        model = fixed_point_model(t_end=2.0, grid=np.array([0.0, 0.7, 2.0]))
        c = diffusion_matrix(THIRD, 1.0)
        out = propagate_covariance(model, np.zeros((3, 3)))
        assert out[0].time == 0.0 and np.allclose(out[0].sigma, 0.0)
        assert np.allclose(out[1].sigma, 0.7 * c, atol=1e-12)
        assert np.allclose(out[2].sigma, 2.0 * c, atol=1e-12)

    def test_zero_sum_structure_is_preserved(self):
        # row sums of sigma stay zero: c 1 = 0 and b^T 1 = 0
        u0 = np.array([0.5, 0.3, 0.2])
        path = integrate(u0, 1.0, t_end=1.0, step=1e-3,
                         grid=np.linspace(0, 1, 5))
        model = FluctuationModel.from_path(path, 1.0)
        for state in propagate_covariance(model, np.zeros((3, 3))):
            assert np.max(np.abs(state.sigma @ np.ones(3))) < 1e-13

    def test_short_time_slope_is_the_diffusion(self):
        u0 = np.array([0.5, 0.3, 0.2])
        h = 1e-3
        path = integrate(u0, 1.0, t_end=h, step=h / 10,
                         grid=np.array([0.0, h]))
        model = FluctuationModel.from_path(path, 1.0)
        sigma_h = propagate_covariance(model, np.zeros((3, 3)))[-1].sigma
        assert np.max(np.abs(sigma_h / h - diffusion_matrix(u0, 1.0))) < 10 * h

    def test_step_refinement_converges(self):
        # independent route: the same flow on a path integrated at a 10x
        # coarser step must agree to far better than either step's nominal
        # accuracy
        u0 = np.array([0.5, 0.3, 0.2])
        grid = np.array([0.0, 0.5, 1.0])
        fine, coarse = (
            propagate_covariance(FluctuationModel.from_path(
                integrate(u0, 1.0, t_end=1.0, step=step, grid=grid), 1.0),
                np.zeros((3, 3)))
            for step in (1e-3, 1e-2))
        for a, b in zip(fine, coarse):
            assert np.max(np.abs(a.sigma - b.sigma)) < 1e-8

    def test_matches_coefficient_injection_along_path(self):
        # the joint march evaluates coefficients at true RK4 stage states
        # while propagate_moments snaps stage times to whole path steps, so
        # the two discretizations agree only to ~1e-5 and no tighter
        u0 = np.array([0.5, 0.3, 0.2])
        step = 1e-3
        grid = np.array([0.0, 0.5, 1.0])
        path = integrate(u0, 1.0, t_end=1.0, step=step, grid=grid)
        model = FluctuationModel.from_path(path, 1.0)
        joint = propagate_covariance(model, np.zeros((3, 3)))
        injected = propagate_moments(
            lambda t: drift_matrix(path.step_states[round(t / step)], 1.0),
            lambda t: diffusion_matrix(path.step_states[round(t / step)], 1.0),
            np.zeros((3, 3)), grid, step=step)
        for a, b in zip(joint, injected):
            assert np.max(np.abs(a.sigma - b)) < 3e-5

    def test_divergence_guard(self):
        # a model whose rate disagrees with its stored path is refused when
        # it is made, so neither consumer can run it
        path = integrate(np.array([0.5, 0.3, 0.2]), 1.0, t_end=1.0,
                         step=1e-3, grid=np.array([0.0, 1.0]))
        with pytest.raises(NumericError, match="not an RK4 march"):
            FluctuationModel.from_path(path, 2.0)
        # a copy at another rate is made, and checked, the same way
        good = FluctuationModel.from_path(path, 1.0)
        with pytest.raises(NumericError):
            run_sde_ensemble(dataclasses.replace(good, lam=2.0), None, 1e-3,
                             path.grid, 2, 0)

    @pytest.mark.parametrize("step", [None, 1e-3, 1e-2])
    def test_divergence_guard_catches_a_small_rate_mismatch(self, step):
        # each stored step must be one RK4 step at the model's rate, whatever
        # step the path was integrated at (None: the default step)
        kwargs = {} if step is None else {"step": step}
        path = integrate(np.array([0.5, 0.3, 0.2]), 1.0, t_end=1.0,
                         grid=np.array([0.0, 0.5, 1.0]), **kwargs)
        with pytest.raises(NumericError):
            FluctuationModel.from_path(path, 1.001)
        propagate_covariance(FluctuationModel.from_path(path, 1.0),
                             np.zeros((3, 3)))

    def test_off_step_labels_are_served(self):
        # a march step that does not divide the path's labels serves each
        # label from its nearest march step, as every other grid does
        def covariance(step):
            path = integrate(np.array([0.5, 0.3, 0.2]), 1.0, t_end=1.0,
                             step=step, grid=np.array([0.0, 0.5, 1.0]))
            return propagate_covariance(FluctuationModel.from_path(path, 1.0),
                                        np.zeros((3, 3)))

        fine, odd = covariance(1e-3), covariance(3.3e-3)
        assert [st.time for st in odd] == [0.0, 0.5, 1.0]
        for a, b in zip(fine[1:], odd[1:]):
            assert np.max(np.abs(a.sigma - b.sigma)) < 1e-3

    def test_monitor_reports_the_first_failing_step(self, monkeypatch):
        # a negated noise rate drives S indefinite; at the fixed point the
        # coefficients are constant, so the reference march fails at the same
        # step, which lies past the first of several small blocks
        import rpsim.fluctuation as fl
        diffusion = fl.diffusion_matrix
        monkeypatch.setattr(fl, "diffusion_matrix",
                            lambda u, lam: -1e-5 * diffusion(u, lam))
        monkeypatch.setattr(fl, "_COV_BLOCK", 64)
        b, c = drift_matrix(THIRD, 1.0), -1e-5 * diffusion(THIRD, 1.0)
        with pytest.raises(NotPSD) as reference:
            propagate_moments(lambda t: b, lambda t: c, np.zeros((3, 3)),
                              np.array([1.0]), step=1e-3)
        with pytest.raises(NotPSD) as err:
            propagate_covariance(fixed_point_model(), np.zeros((3, 3)))
        assert str(err.value) == str(reference.value)
        assert float(str(err.value).rsplit("=", 1)[1]) > 64e-3

    def test_reported_states_are_held_to_the_strict_tolerance(self,
                                                              monkeypatch):
        # the march aborts only below -1e-6, but every reported state is a
        # CovarianceState, held to -1e-9: a noise rate negated and scaled by
        # 1e-8 leaves the smallest eigenvalue at -t/3 * 1e-8, within -1e-9
        # at t = 0.25, not at t = 0.5
        import rpsim.fluctuation as fl
        diffusion = fl.diffusion_matrix
        monkeypatch.setattr(fl, "diffusion_matrix",
                            lambda u, lam: -1e-8 * diffusion(u, lam))
        out = propagate_covariance(
            fixed_point_model(grid=np.array([0.0, 0.1, 0.25])),
            np.zeros((3, 3)))
        low = np.linalg.eigvalsh(out[-1].sigma)[0]
        assert -1e-9 < low < -8e-10
        with pytest.raises(NotPSD, match=r"^covariance eigenvalue -1\.667e-09 "
                           r"below -1e-09$"):
            propagate_covariance(
                fixed_point_model(grid=np.array([0.0, 0.1, 0.5, 1.0])),
                np.zeros((3, 3)))

    def test_blocks_do_not_change_results(self, monkeypatch):
        import rpsim.fluctuation as fl
        path = integrate(np.array([0.5, 0.3, 0.2]), 1.0, t_end=0.3,
                         step=1e-3, grid=np.linspace(0.0, 0.3, 7))
        model = FluctuationModel.from_path(path, 1.0)
        whole = propagate_covariance(model, np.eye(3) / 3)
        monkeypatch.setattr(fl, "_COV_BLOCK", 7)
        blocked = propagate_covariance(model, np.eye(3) / 3)
        assert [a.sigma.tobytes() for a in whole] == \
            [b.sigma.tobytes() for b in blocked]
        assert [a.time for a in whole] == [b.time for b in blocked]

    def test_label_past_the_path_end_takes_its_last_step(self):
        # the label 0.75 is half a step past t_end = 0.5 and rounds to step
        # 2 of a 1-step path; it is served by the last step, in the
        # covariance as in the path
        path = integrate(np.array([0.5, 0.3, 0.2]), 1.0, t_end=0.5,
                         step=0.5, grid=np.array([0.0, 0.75]))
        model = FluctuationModel.from_path(path, 1.0)
        short = FluctuationModel.from_path(
            integrate(np.array([0.5, 0.3, 0.2]), 1.0, t_end=0.5, step=0.5,
                      grid=np.array([0.0, 0.5])), 1.0)
        out = propagate_covariance(model, np.zeros((3, 3)))
        assert [st.time for st in out] == [0.0, 0.75]
        assert np.array_equal(path.states[1].u, path.step_states[1])
        assert out[1].sigma.tobytes() == \
            propagate_covariance(short, np.zeros((3, 3)))[1].sigma.tobytes()

    def test_conserved_quantity_variance_matches_closed_form(self):
        # H(u) = sum_j ln u_j is conserved by the mean field, so grad H . Y
        # has no drift under the linear-noise SDE: from S(0) = 0 its variance
        # grad H S grad H' is V(t), the integral of grad H c grad H' =
        # lam sum_j (u_{j+1} - u_j)^2 / (u_j u_{j+1}) along the path.  Off
        # the fixed point this sees b: transposed or negated in drift_matrix,
        # the propagator misses V(5) by far more than the trapezoid's error
        grid = np.linspace(0.0, 5.0, 11)
        path = integrate(np.array([0.5, 0.3, 0.2]), 1.0, t_end=5.0,
                         step=1e-3, grid=grid)
        states = propagate_covariance(FluctuationModel.from_path(path, 1.0),
                                      np.zeros((3, 3)))
        u = path.step_states
        nxt = np.roll(u, -1, axis=1)
        rate = np.sum((nxt - u) ** 2 / (u * nxt), axis=1)
        v = np.concatenate(
            [[0.0], np.cumsum(0.5 * (rate[1:] + rate[:-1])) * path.step])
        for state, k in zip(states, path.indices):
            grad = 1.0 / u[k]
            assert abs(grad @ state.sigma @ grad - v[k]) <= 1e-6 * max(1.0, v[k])
        assert abs(v[-1] - 6.746427) < 1e-6

    def test_sigma0_validation(self):
        model = fixed_point_model()
        with pytest.raises(DomainError):
            propagate_covariance(model, np.zeros((2, 2)))
        bad = np.eye(3)
        bad[0, 1] = 0.1
        with pytest.raises(DomainError):
            propagate_covariance(model, bad)


class TestFluctuationModel:
    def test_from_path_snaps_coefficients(self):
        # an SDE step that does not divide the path's step takes b and c at
        # the nearest path step, never interpolated
        u0 = np.array([0.5, 0.3, 0.2])
        path = integrate(u0, 1.0, t_end=1.0, step=1e-2)
        model = FluctuationModel.from_path(path, 1.0)
        grid = np.array([0.0, 0.333, 0.999])
        sde = one_path(model, None, 3e-3, grid, 4)
        ref = reference_em(model, None, 3e-3, grid, rng_stream(4, 0))
        assert np.allclose(sde.values, ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("lam", [0.0, math.nan, True, "1"])
    def test_rejects_invalid_rate(self, lam):
        path = integrate(THIRD, 1.0, t_end=0.1, step=1e-2)
        message = f"positive and finite, got {lam}" \
            if isinstance(lam, float) else f"a real number, got {lam!r}"
        with pytest.raises(DomainError, match=message):
            FluctuationModel.from_path(path, lam)

    def test_rejects_off_simplex_path(self):
        path = integrate(THIRD, 1.0, t_end=0.1, step=1e-2)
        path.step_states[3] = [0.5, 0.5, 0.5]  # corrupt the stored march
        with pytest.raises(DomainError):
            FluctuationModel.from_path(path, 1.0)

    def test_rejects_a_non_finite_path(self):
        # nan compares False both ways, so each check must fail on it
        path = integrate(THIRD, 1.0, t_end=0.1, step=1e-2)
        states = path.step_states.copy()
        states[3, 1] = np.nan
        with pytest.raises(DomainError,
                           match="path states must lie on the simplex"):
            FluctuationModel.from_path(
                dataclasses.replace(path, step_states=states), 1.0)


class TestLimitSde:
    # one-path ensembles: the ensemble runner is the only SDE runner

    def test_reproducible(self):
        model = fixed_point_model()
        grid = np.array([0.0, 0.5, 1.0])
        a = one_path(model, None, 1e-2, grid, 1)
        b = one_path(model, None, 1e-2, grid, 1)
        assert a.values.tobytes() == b.values.tobytes()

    def test_zero_start_records_zero_at_time_zero(self):
        model = fixed_point_model()
        path = one_path(model, None, 1e-2, np.array([0.0, 1.0]), 1)
        assert np.array_equal(path.values[0], np.zeros(3))
        assert not np.allclose(path.values[1], 0.0)

    def test_component_sum_stays_zero(self):
        # noise and drift both live in the zero-sum subspace
        model = fixed_point_model()
        path = one_path(model, None, 1e-3, np.linspace(0, 1, 7), 2)
        assert np.max(np.abs(path.values.sum(axis=1))) < 1e-12

    def test_vector_start(self):
        model = fixed_point_model()
        v0 = np.array([0.3, -0.1, -0.2])
        path = one_path(model, v0, 1e-2, np.array([0.0, 0.5]), 3)
        assert np.array_equal(path.values[0], v0)
        ref = reference_em(model, v0, 1e-2, path.grid, rng_stream(3, 0))
        assert np.allclose(path.values, ref, rtol=0, atol=1e-12)

    def test_shape_validation(self):
        model = fixed_point_model()
        with pytest.raises(DomainError):
            one_path(model, np.zeros(4), 1e-2, np.array([0.0]), 0)
        with pytest.raises(DomainError):
            one_path(model, None, 0.0, np.array([0.0]), 0)
        with pytest.raises(DomainError):
            one_path(model, None, 1e-2, np.array([-0.5, 0.0]), 0)


# run_sde_ensemble's values, bit for bit: the sha256 of every path's values
# bytes in path order, pinned when they were last known good.  Each case is
# (u0, v0, paths, base seed), marched at step 1e-2 to t = 6 on SDE_PIN_GRID,
# which samples on both sides of each chunk boundary of the draws
SDE_PIN_GRID = [0.0, 0.01, 2.55, 2.56, 2.57, 5.12, 5.13, 6.0]
SDE_PIN_CASES = {
    "n3-1-path": ((0.5, 0.3, 0.2), None, 1, 0),
    "n3-2-paths-v0": ((0.5, 0.3, 0.2), (0.3, -0.1, -0.2), 2, 7),
    "n3-64-paths-v0": ((0.5, 0.3, 0.2), (0.3, -0.1, -0.2), 64, 11),
    "n5-2-paths-v0": ((0.3, 0.25, 0.2, 0.15, 0.1),
                      (0.2, -0.1, 0.0, 0.1, -0.2), 2, 3),
    "n5-64-paths": ((0.3, 0.25, 0.2, 0.15, 0.1), None, 64, 5),
}
SDE_SHA256 = {
    "n3-1-path":
        "aed6ff799c8683151d933965bb45b7f69dd32807f562f0b83adb4cc7834e49d2",
    "n3-2-paths-v0":
        "281c0327dba25389e134ef6c09343c9d1dd96fa0f70b516c156847ee9248146e",
    "n3-64-paths-v0":
        "c5e7b92045d8a426938edb81743c87b6f5c9f1654e9b3a150afeafb65fb03a73",
    "n5-2-paths-v0":
        "69449222593648857c5685454b905b7377c7a14fdcea71e6ec1b5a1236b28578",
    "n5-64-paths":
        "4c45dab9273b3cd613535bc4d0b23609995315f0c711c899a2f4d869c52f34f8",
}


class TestSdeEnsemble:
    def test_matches_single_path_runner(self):
        # every path follows a per-step reference march on its own stream;
        # a one-path ensemble rounds its matrix products differently
        model = fixed_point_model()
        grid = np.array([0.0, 0.5, 1.0])
        paths = run_sde_ensemble(model, None, 1e-2, grid, 5, 13)
        for i, p in enumerate(paths):
            ref = reference_em(model, None, 1e-2, grid, rng_stream(13, i))
            assert np.allclose(p.values, ref, rtol=0, atol=1e-12)
        assert np.allclose(paths[0].values,
                           one_path(model, None, 1e-2, grid, 13).values,
                           rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", [-1, 1.5, "7"])
    def test_bad_base_seed_is_a_domain_error(self, seed):
        with pytest.raises(DomainError, match="base seed must be a "
                           "non-negative integer"):
            run_sde_ensemble(fixed_point_model(), None, 1e-2, [0.0, 0.1], 3,
                             seed)

    def test_block_size_does_not_change_results(self, monkeypatch):
        # chunks of steps only split each path's draws, which come from its
        # stream in the same order, so every value is the same, bit for bit
        import rpsim.fluctuation as fl
        model = fixed_point_model(t_end=3.0)
        v0 = np.array([0.3, -0.1, -0.2])
        grids = [
            [0.0, 0.37, 1.0],   # 100 steps: one short default chunk
            [0.0, 3.0],         # 300 steps: a full default chunk, a short one
            [0.0],              # no step at all
        ]
        for grid in grids:
            monkeypatch.undo()
            default = run_sde_ensemble(model, v0, 1e-2, grid, 7, 5)
            assert all(np.array_equal(p.values[0], v0) for p in default)
            for chunk in (1, 3):
                monkeypatch.setattr(fl, "_SDE_CHUNK", chunk)
                chunked = run_sde_ensemble(model, v0, 1e-2, grid, 7, 5)
                assert len(chunked) == 7
                for a, b in zip(chunked, default):
                    assert a.values.tobytes() == b.values.tobytes()

    def test_peak_memory_does_not_grow_with_steps(self, monkeypatch):
        # the noise buffer holds one chunk of steps for every path; ten
        # times the steps add only the per-step b and sqrt(c) tables, less
        # than one chunk of noise, where a buffer of every step would add
        # nine times the short run's noise
        import tracemalloc

        import rpsim.fluctuation as fl
        monkeypatch.setattr(fl, "_SDE_CHUNK", 64)
        model = fixed_point_model(t_end=1.3)
        paths = 500
        run_sde_ensemble(model, None, 1e-3, [0.0, 0.01], 2, 0)
        peaks = []
        for t in (0.128, 1.28):
            tracemalloc.start()
            try:
                run_sde_ensemble(model, None, 1e-3, [0.0, t], paths, 0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        chunk_bytes = paths * 64 * model.n * 8
        assert peaks[1] - peaks[0] < chunk_bytes

    def test_grid_past_the_path_end_raises(self):
        # b and c exist only along the stored path: a grid that needs them
        # past its end is refused, naming both ends
        model = fixed_point_model(t_end=1.0)
        with pytest.raises(DomainError,
                           match=r"runs to t=5, past the end t=1 "):
            run_sde_ensemble(model, None, 1e-2, np.array([0.0, 5.0]), 2, 0)
        # the last step starts inside the path, so this grid still runs
        run_sde_ensemble(model, None, 1e-2, np.array([0.0, 1.0]), 2, 0)

    @pytest.mark.parametrize("case", sorted(SDE_SHA256))
    def test_values_are_pinned(self, case):
        # 600 steps: two full chunks of draws and a partial one
        u0, v0, paths, seed = SDE_PIN_CASES[case]
        path = integrate(np.array(u0), 1.0, t_end=6.0, step=1e-2,
                         grid=np.array([0.0, 6.0]))
        out = run_sde_ensemble(FluctuationModel.from_path(path, 1.0), v0,
                               1e-2, SDE_PIN_GRID, paths, seed)
        assert len(out) == paths
        assert hashlib.sha256(b"".join(p.values.tobytes() for p in out)) \
            .hexdigest() == SDE_SHA256[case]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_start_is_a_domain_error(self, value):
        with pytest.raises(DomainError, match="initial value has a non-finite"):
            run_sde_ensemble(fixed_point_model(), [value, 0.0, 0.0], 1e-2,
                             [0.0, 0.1], 3, 0)

    @pytest.mark.parametrize("paths", ["3", 2.0, True, -1])
    def test_bad_path_count_is_a_domain_error(self, paths):
        with pytest.raises(DomainError, match="path count must be a "
                           "non-negative integer"):
            run_sde_ensemble(fixed_point_model(), None, 1e-2, [0.0, 0.1],
                             paths, 0)

    def test_rejects_zero_paths(self):
        with pytest.raises(DomainError):
            run_sde_ensemble(fixed_point_model(), None, 1e-2,
                             np.array([0.0]), 0, base_seed=0)


@given(seed=st.integers(min_value=0, max_value=2**31), n=st.sampled_from([3, 5, 8]))
@settings(max_examples=40)
def test_matrix_structure_properties(seed, n):
    u = np.random.default_rng(seed).dirichlet(np.ones(n))
    b = drift_matrix(u, 1.0)
    c = diffusion_matrix(u, 1.0)
    assert np.max(np.abs(b.sum(axis=0))) < 1e-13     # columns sum to zero
    assert np.max(np.abs(c.sum(axis=1))) < 1e-13     # rows sum to zero
    assert np.array_equal(c, c.T)
    assert np.linalg.eigvalsh(c)[0] >= -1e-12
