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
    rk4_step,
    rng_stream,
    run_sde_ensemble,
    vector_field,
    zero_sum_projector,
)

THIRD = np.full(3, 1 / 3)


def propagate_moments(b_of, c_of, sigma0, times, step):
    """Reference moment march: dS/dt = b(t)S + Sb(t)' + c(t) by RK4 with the
    coefficients injected as functions of time.

    Independent of the package's transition march, which evaluates b and c
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


def stage_coefficients(model):
    """b and c at the four RK4 stage states of every step of the model's
    path, each of shape (steps, 4, n, n)."""
    stages = []

    def field(x):
        stages.append(x)
        return vector_field(x, model.lam)

    rk4_step(field, model.path.step_states[:-1].T, model.path.step)
    x = np.stack([st.T for st in stages], axis=1)
    return drift_matrix(x, model.lam), diffusion_matrix(x, model.lam)


def stepwise_covariance(model, sigma0):
    """Reference: RK4 of dS/dt = bS + Sb' + c one step at a time at the
    path's step, b and c fixed per stage at the mean field's stage states, S
    symmetrized after every step; S at each grid time.  A step of it is not
    a congruence Phi S Phi' + Q, so at coarse steps it and the transitions
    differ at truncation level (2e-11 relative at step 1e-2)."""
    bs, cs = stage_coefficients(model)
    s = np.array(sigma0, dtype=float)
    after = [s]                             # after[k] is S after k steps
    for k in range(int(model.path.indices[-1])):
        coefficients = zip(bs[k], cs[k])

        def moment(sig):
            b, c = next(coefficients)
            return b @ sig + sig @ b.T + c

        s = rk4_step(moment, s, model.path.step)
        s = 0.5 * (s + s.T)
        after.append(s)
    return [after[k] for k in model.path.indices]


def stepwise_transition(model, coefficients_of_steps, first, last):
    """Reference (Phi, Q) over path steps ``first`` to ``last``: RK4 of
    dPhi/dt = b Phi and dQ/dt = bQ + Qb' + c, one step at a time, with b and
    c fixed per stage as in :func:`stepwise_covariance`."""
    bs, cs = coefficients_of_steps
    n = model.n
    x = np.stack([np.eye(n), np.zeros((n, n))])
    for k in range(first, last):
        coefficients = zip(bs[k], cs[k])

        def field(y):
            b, c = next(coefficients)
            return np.stack([b @ y[0], b @ y[1] + y[1] @ b.T + c])

        x = rk4_step(field, x, model.path.step)
    return x[0], 0.5 * (x[1] + x[1].T)


def reference_paths(model, v0, grid, paths, seed):
    """Each path one interval at a time, V <- Phi V + psd_sqrt(Q) xi, with
    n normals per grid time, grid-major, from rng_stream(seed, i)."""
    coefficients = stage_coefficients(model)
    ends = [0] + [round(t / model.path.step) for t in grid]
    steps = [stepwise_transition(model, coefficients, a, b)
             for a, b in zip(ends[:-1], ends[1:])]
    out = []
    for i in range(paths):
        xi = rng_stream(seed, i).standard_normal((len(grid), model.n))
        v = np.zeros(model.n) if v0 is None else np.array(v0, dtype=float)
        values = []
        for (phi, q), x in zip(steps, xi):
            v = phi @ v + psd_sqrt(q) @ x
            values.append(v)
        out.append(np.array(values))
    return out


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

    def test_keeps_the_null_vector_of_a_zero_sum_matrix(self):
        # the root of c's rounding-level null eigenvalue would put a term of
        # order sqrt(eps) along (1, ..., 1); that eigenvalue is set to zero
        rng = np.random.default_rng(6)
        for n in (3, 5, 8):
            for _ in range(50):
                root = psd_sqrt(diffusion_matrix(random_simplex(rng, n), 1.0))
                assert np.max(np.abs(root @ np.ones(n))) < 1e-14

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
        # the transition march evaluates coefficients at true RK4 stage states
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

    def test_transition_check_names_the_first_failing_interval(self,
                                                               monkeypatch):
        # a negated noise rate makes each Q indefinite; at the fixed point b
        # and c commute and b is antisymmetric, so Q over an interval of
        # length tau is -1e-5 tau c, with smallest eigenvalue -1e-5 tau / 3.
        # The first two intervals (tau = 2e-4) stay within -1e-9, and the
        # third (tau = 6e-4, three blocks of two steps) does not
        import rpsim.fluctuation as fl
        diffusion = fl.diffusion_matrix
        monkeypatch.setattr(fl, "diffusion_matrix",
                            lambda u, lam: -1e-5 * diffusion(u, lam))
        monkeypatch.setattr(fl, "_BLOCK", 2)
        model = fixed_point_model(t_end=0.01, step=1e-4,
                                  grid=np.array([0.0, 2e-4, 4e-4, 1e-3, 0.01]))
        with pytest.raises(NotPSD, match=r"^transition covariance eigenvalue "
                           r"-2\.000e-09 below -1e-09 over the steps to "
                           r"t=0\.001$"):
            propagate_covariance(model, np.zeros((3, 3)))
        with pytest.raises(NotPSD, match=r"t=0\.001$"):
            run_sde_ensemble(model, None, 1e-4, model.path.grid, 2, 0)

    def test_reported_states_are_held_to_the_strict_tolerance(self,
                                                              monkeypatch):
        # every reported state is a CovarianceState, held to -1e-9: a noise
        # rate negated and scaled by 1e-8 leaves the smallest eigenvalue of
        # S at -t/3 * 1e-8, within -1e-9 at t = 0.25, not at t = 0.4, while
        # each interval's Q, at most -0.15/3 * 1e-8, stays within it
        import rpsim.fluctuation as fl
        diffusion = fl.diffusion_matrix
        monkeypatch.setattr(fl, "diffusion_matrix",
                            lambda u, lam: -1e-8 * diffusion(u, lam))
        out = propagate_covariance(
            fixed_point_model(grid=np.array([0.0, 0.1, 0.25])),
            np.zeros((3, 3)))
        low = np.linalg.eigvalsh(out[-1].sigma)[0]
        assert -1e-9 < low < -8e-10
        with pytest.raises(NotPSD, match=r"^covariance eigenvalue -1\.333e-09 "
                           r"below -1e-09$"):
            propagate_covariance(
                fixed_point_model(grid=np.array([0.0, 0.1, 0.25, 0.4, 0.5])),
                np.zeros((3, 3)))

    @pytest.mark.parametrize("u0, t_end, step, grid, sigma0", [
        # the benchmark's scale: 10 000 steps, 100 intervals of two blocks
        ((0.5, 0.3, 0.2), 10.0, 1e-3, np.linspace(0.0, 10.0, 101), None),
        # one interval of many blocks, as validate's CLT check takes it
        ((0.5, 0.3, 0.2), 1.0, 1e-3, [0.0, 1.0], "eye"),
        # labels off the step, served by their nearest steps
        ((0.5, 0.3, 0.2), 1.0, 3.3e-3, [0.0, 0.5, 1.0], "eye"),
        # a label past the path's end, served by its last step
        ((0.5, 0.3, 0.2), 0.5, 0.5, [0.0, 0.75], None),
        ((0.3, 0.25, 0.2, 0.15, 0.1), 2.0, 1e-3, np.linspace(0.3, 2.0, 5),
         "eye"),
    ])
    def test_matches_the_stepwise_march(self, u0, t_end, step, grid, sigma0):
        path = integrate(np.array(u0), 1.0, t_end=t_end, step=step,
                         grid=np.asarray(grid))
        model = FluctuationModel.from_path(path, 1.0)
        n = len(u0)
        sigma0 = np.zeros((n, n)) if sigma0 is None else np.eye(n) / n
        out = propagate_covariance(model, sigma0)
        ref = stepwise_covariance(model, sigma0)
        assert [st.time for st in out] == path.grid.tolist()
        for state, s in zip(out, ref):
            assert np.max(np.abs(state.sigma - s)) \
                <= 1e-12 * np.max(np.abs(s))

    def test_block_length_does_not_change_results(self, monkeypatch):
        import rpsim.fluctuation as fl
        path = integrate(np.array([0.5, 0.3, 0.2]), 1.0, t_end=0.3,
                         step=1e-3, grid=np.linspace(0.0, 0.3, 7))
        model = FluctuationModel.from_path(path, 1.0)
        default = propagate_covariance(model, np.eye(3) / 3)
        for block in (1, 7):
            monkeypatch.setattr(fl, "_BLOCK", block)
            blocked = propagate_covariance(model, np.eye(3) / 3)
            assert [a.time for a in blocked] == [b.time for b in default]
            for a, b in zip(blocked, default):
                assert np.max(np.abs(a.sigma - b.sigma)) \
                    <= 1e-13 * np.max(np.abs(b.sigma))

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
    def test_sde_grid_times_snap_to_the_nearest_path_step(self):
        # grid times off the path's steps are served by their nearest steps,
        # never interpolated, and are reported verbatim
        path = integrate(np.array([0.5, 0.3, 0.2]), 1.0, t_end=1.0, step=1e-2)
        model = FluctuationModel.from_path(path, 1.0)
        odd = run_sde_ensemble(model, None, 1e-2, [0.0, 0.333, 0.999], 3, 4)
        even = run_sde_ensemble(model, None, 1e-2, [0.0, 0.33, 1.0], 3, 4)
        for a, b in zip(odd, even):
            assert a.grid.tolist() == [0.0, 0.333, 0.999]
            assert a.values.tobytes() == b.values.tobytes()

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
        a = one_path(model, None, 1e-3, grid, 1)
        b = one_path(model, None, 1e-3, grid, 1)
        assert a.values.tobytes() == b.values.tobytes()

    def test_zero_start_records_zero_at_time_zero(self):
        model = fixed_point_model()
        path = one_path(model, None, 1e-3, np.array([0.0, 1.0]), 1)
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
        path = one_path(model, v0, 1e-3, np.array([0.0, 0.5]), 3)
        assert np.array_equal(path.values[0], v0)
        ref = reference_paths(model, v0, path.grid, 1, 3)[0]
        assert np.allclose(path.values, ref, rtol=0, atol=1e-12)

    def test_shape_validation(self):
        model = fixed_point_model()
        with pytest.raises(DomainError):
            one_path(model, np.zeros(4), 1e-3, np.array([0.0]), 0)
        with pytest.raises(DomainError):
            one_path(model, None, 0.0, np.array([0.0]), 0)  # a bad step
        with pytest.raises(DomainError):
            one_path(model, None, 1e-3, np.array([-0.5, 0.0]), 0)


# run_sde_ensemble's values, bit for bit: the sha256 of every path's values
# bytes in path order, pinned when they were last known good.  Each case is
# (u0, v0, paths, base seed), on a path at step 1e-2 to t = 6, sampled on
# SDE_PIN_GRID: intervals of one step, and of 254, 255 and 87 steps, which
# fold four, four and two blocks
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
        "73e1cd9dc1d2fa8cf0a690327ad30723a1c79812b44cc2a59aaa74b00aa9132d",
    "n3-2-paths-v0":
        "2959d3e7fb61ef76cc7bfc3b23cfa1edcff23d2d4ed8ec06e771ec3ec12dfe41",
    "n3-64-paths-v0":
        "2e14d60f4aff9d451966f964ef14c38f18d6c083f8d5d2f1f90b136d73cc4272",
    "n5-2-paths-v0":
        "3fca4a3d73a8493a0c9c8848e98b463c5cf31cac7005a679263e924706716658",
    "n5-64-paths":
        "7e89d57ab55fdfcafe26d97feb076d17cea6c2b50f44fa9229eee7a567e08093",
}


class TestSdeEnsemble:
    @pytest.mark.parametrize("grid, v0", [
        ([0.2, 0.5, 1.0], None),    # the first interval starts at time 0
        ([0.0, 0.37, 1.0], (0.3, -0.1, -0.2)),
        ([0.0], (0.3, -0.1, -0.2)),  # no step at all
    ])
    def test_each_path_steps_by_the_interval_transitions(self, grid, v0):
        # path i is Phi_g V + psd_sqrt(Q_g) xi_g, with n normals per grid
        # time, grid-major, from rng_stream(seed, i), and (Phi_g, Q_g)
        # marched one step at a time; a one-path ensemble is its path 0
        path = integrate(np.array([0.5, 0.3, 0.2]), 1.0, t_end=1.0, step=1e-2)
        model = FluctuationModel.from_path(path, 1.0)
        paths = run_sde_ensemble(model, v0, 1e-2, grid, 5, 13)
        ref = reference_paths(model, v0, grid, 5, 13)
        for p, values in zip(paths, ref):
            assert np.allclose(p.values, values, rtol=0, atol=1e-12)
        assert np.allclose(paths[0].values,
                           one_path(model, v0, 1e-2, grid, 13).values,
                           rtol=0, atol=1e-12)

    def test_step_other_than_the_paths_is_a_domain_error(self):
        with pytest.raises(DomainError, match=r"^SDE step 0\.01 differs from "
                           r"the step 0\.001 of the model's mean-field path$"):
            run_sde_ensemble(fixed_point_model(), None, 1e-2, [0.0, 0.1], 3, 0)

    def test_mean_follows_the_drift(self):
        # from v0 off zero, the mean path is m(t) = Phi(t) v0, where
        # dm/dt = b m.  The reference marches (u, m) jointly by RK4, with
        # b m written out as the derivative of the field along m, not taken
        # from drift_matrix; with b transposed the mean misses it by far
        u0, v0 = np.array([0.5, 0.3, 0.2]), np.array([0.3, -0.1, -0.2])
        grid = np.linspace(0.0, 2.0, 11)
        path = integrate(u0, 1.0, t_end=2.0, step=1e-3, grid=grid)
        model = FluctuationModel.from_path(path, 1.0)

        def field(x):
            # the field is u * u+ - u- * u (lam = 1); b m is its derivative
            u, m = x
            up, down = np.roll(x, -1, axis=1), np.roll(x, 1, axis=1)
            return np.stack([vector_field(u, 1.0),
                             m * up[0] + u * up[1] - down[1] * u
                             - down[0] * m])

        x, means = np.stack([u0, v0]), [v0]
        for _ in range(path.indices[-1]):
            x = rk4_step(field, x, path.step)
            means.append(x[1])
        means = np.array(means)[path.indices]
        paths = run_sde_ensemble(model, v0, 1e-3, grid, 4000, 21)
        values = np.stack([p.values for p in paths])
        sigma = np.stack([st.sigma for st in propagate_covariance(
            model, np.zeros((3, 3)))])
        err = np.sqrt(np.diagonal(sigma, axis1=1, axis2=2) / len(paths))
        assert np.all(np.abs(values.mean(axis=0) - means) <= 5 * err + 1e-12)

    def test_benchmark_covariance_gate_holds_at_every_seed(self):
        # the benchmark's "SDE covariance within 10%" check at the
        # fluctuation-paths scale, for each of its 16 SDE seeds: the zero-sum
        # Frobenius error of the 2 000 paths' final covariance
        grid = np.linspace(0.0, 10.0, 101)
        path = integrate(np.array([0.5, 0.3, 0.2]), 1.0, t_end=10.0,
                         step=1e-3, grid=grid)
        model = FluctuationModel.from_path(path, 1.0)
        sigma = propagate_covariance(model, np.zeros((3, 3)))[-1].sigma
        p = zero_sum_projector(3)
        errors = {}
        for seed in range(16):
            sde = run_sde_ensemble(model, None, 1e-3, grid, 2000, seed)
            emp = np.cov(np.stack([x.values[-1] for x in sde]), rowvar=False)
            errors[seed] = float(np.linalg.norm(p @ (emp - sigma) @ p)
                                 / np.linalg.norm(p @ sigma @ p))
        assert max(errors.values()) < 0.10, errors

    @pytest.mark.parametrize("seed", [-1, 1.5, "7"])
    def test_bad_base_seed_is_a_domain_error(self, seed):
        with pytest.raises(DomainError, match="base seed must be a "
                           "non-negative integer"):
            run_sde_ensemble(fixed_point_model(), None, 1e-3, [0.0, 0.1], 3,
                             seed)

    def test_grid_past_the_path_end_raises(self):
        # b and c exist only along the stored path: a grid that needs them
        # past its end is refused, naming both ends
        model = fixed_point_model(t_end=1.0)
        with pytest.raises(DomainError,
                           match=r"runs to t=5, past the end t=1 "):
            run_sde_ensemble(model, None, 1e-3, np.array([0.0, 5.0]), 2, 0)
        run_sde_ensemble(model, None, 1e-3, np.array([0.0, 1.0]), 2, 0)

    @pytest.mark.parametrize("case", sorted(SDE_SHA256))
    def test_values_are_pinned(self, case):
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
            run_sde_ensemble(fixed_point_model(), [value, 0.0, 0.0], 1e-3,
                             [0.0, 0.1], 3, 0)

    @pytest.mark.parametrize("paths", ["3", 2.0, True, -1])
    def test_bad_path_count_is_a_domain_error(self, paths):
        with pytest.raises(DomainError, match="path count must be a "
                           "non-negative integer"):
            run_sde_ensemble(fixed_point_model(), None, 1e-3, [0.0, 0.1],
                             paths, 0)

    def test_rejects_zero_paths(self):
        with pytest.raises(DomainError):
            run_sde_ensemble(fixed_point_model(), None, 1e-3,
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
