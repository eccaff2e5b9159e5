import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpsim import (
    DomainError,
    NormalizationError,
    StepError,
    conserved_quantities,
    counts_from_fractions,
    integrate,
    rk4_step,
    vector_field,
)
from rpsim.meanfield import INTEGRATOR_TOL


def simplex(*vals):
    return np.array(vals, dtype=float)


def reference_march(u0, lam, step, n_steps):
    """Every state of ``n_steps`` steps of rk4_step through vector_field."""
    u = np.array(u0, dtype=float)
    out = [u]
    for _ in range(n_steps):
        u = rk4_step(lambda x: vector_field(x, lam), u, step)
        out.append(u)
    return np.array(out)


class TestVectorField:
    def test_hand_value(self):
        # du_i = u_i*(u_{i+1} - u_{i-1})
        f = vector_field(simplex(0.5, 0.5, 0.0), 1.0)
        assert np.allclose(f, [0.25, -0.25, 0.0])

    def test_rate_scales_linearly(self):
        u = simplex(0.5, 0.3, 0.2)
        assert np.allclose(vector_field(u, 3.0), 3.0 * vector_field(u, 1.0))

    def test_fixed_point(self):
        assert np.allclose(vector_field(simplex(*[1 / 3] * 3), 2.0), 0.0)

    def test_components_sum_to_zero(self):
        u = simplex(0.1, 0.2, 0.3, 0.25, 0.15)
        assert abs(vector_field(u, 1.7).sum()) < 1e-15


def test_conserved_quantities():
    s, p = conserved_quantities(simplex(*[1 / 3] * 3))
    assert s == pytest.approx(1.0)
    assert p == pytest.approx(1 / 27)


def test_rk4_step_stage_points():
    stages = []

    def field(x):
        stages.append(x.copy())
        return -x

    u = simplex(1.0, 2.0, 4.0)
    u_next = rk4_step(field, u, 0.1)
    assert len(stages) == 4
    assert np.array_equal(stages[0], u)
    assert np.allclose(stages[1], u * (1 - 0.05))
    # one step of y' = -y: classical RK4 polynomial in h
    h = 0.1
    factor = 1 - h + h**2 / 2 - h**3 / 6 + h**4 / 24
    assert np.allclose(u_next, u * factor, rtol=1e-15)


class TestIntegrate:
    def test_symmetric_point_is_stationary(self):
        path = integrate(simplex(*[1 / 3] * 3), 1.0, t_end=5.0, step=1e-2)
        for st_ in path.states:
            assert np.allclose(st_.u, 1 / 3, atol=1e-14)

    def test_invariants_hold_along_the_flow(self):
        path = integrate(simplex(0.5, 0.3, 0.2), 1.0, t_end=5.0, step=1e-3)
        audit = path.invariant_audit
        assert np.max(np.abs(audit.sums - 1.0)) < 1e-12
        assert np.max(np.abs(audit.products - 0.03)) < 1e-8

    @pytest.mark.parametrize("n", [3, 5, 8, 13])
    def test_audit_equals_the_conserved_quantities_of_each_state(self, n):
        u0 = np.random.default_rng(n).dirichlet(np.ones(n))
        path = integrate(u0, 1.0, t_end=0.5, step=1e-2)
        audit = path.invariant_audit
        pairs = np.array([conserved_quantities(u) for u in path.step_states])
        assert audit.sums.tobytes() == pairs[:, 0].tobytes()
        assert audit.products.tobytes() == pairs[:, 1].tobytes()

    def test_fourth_order_convergence(self):
        u0 = simplex(0.5, 0.3, 0.2)
        ends = {}
        for h in (0.04, 0.02, 0.01):
            ends[h] = integrate(u0, 1.0, t_end=1.0, step=h).states[-1].u
        e1 = np.linalg.norm(ends[0.04] - ends[0.02])
        e2 = np.linalg.norm(ends[0.02] - ends[0.01])
        assert 10.0 < e1 / e2 < 24.0  # ~16 for a 4th-order method

    def test_fine_steps_agree_tightly(self):
        u0 = simplex(0.5, 0.3, 0.2)
        a = integrate(u0, 1.0, t_end=1.0, step=1e-3).states[-1].u
        b = integrate(u0, 1.0, t_end=1.0, step=5e-4).states[-1].u
        assert np.max(np.abs(a - b)) < 1e-9

    def test_default_grid_is_every_step(self):
        path = integrate(simplex(0.5, 0.3, 0.2), 1.0, t_end=0.1, step=1e-2)
        assert len(path.states) == 11
        assert np.allclose(path.grid, np.arange(11) * 1e-2)

    def test_grid_labels_are_verbatim_and_snapped(self):
        u0 = simplex(0.5, 0.3, 0.2)
        requested = np.array([0.0, 0.2500004, 1.0])
        path = integrate(u0, 1.0, t_end=1.0, step=1e-3, grid=requested)
        assert np.array_equal(path.grid, requested)
        assert path.states[1].time == 0.2500004
        # value served from the nearest step, never interpolated
        assert np.array_equal(path.states[1].u, path.step_states[250])

    def test_grid_validation(self):
        u0 = simplex(0.5, 0.3, 0.2)
        with pytest.raises(DomainError):
            integrate(u0, 1.0, t_end=1.0, grid=np.array([0.5, 0.5]))
        with pytest.raises(DomainError):
            integrate(u0, 1.0, t_end=1.0, grid=np.array([0.0, 1.5]))
        # not numbers, which raised numpy's bare ValueError
        with pytest.raises(DomainError, match="^grid must be numeric: could "
                           "not convert string to float: 'x'$"):
            integrate(u0, 1.0, t_end=1.0, grid=[0.0, "x"])

    def test_input_validation(self):
        with pytest.raises(DomainError):
            integrate(simplex(0.5, 0.5), 1.0)
        with pytest.raises(DomainError):
            integrate(simplex(0.7, 0.5, -0.2), 1.0)
        with pytest.raises(NormalizationError):
            integrate(simplex(0.5, 0.3, 0.1), 1.0)
        with pytest.raises(DomainError, match="^fractions must be numeric: "
                           "could not convert string to float: 'a'$"):
            integrate(["a", "b", "c"], 1.0)
        with pytest.raises(DomainError):
            integrate(simplex(0.5, 0.3, 0.2), 1.0, step=0.0)
        with pytest.raises(DomainError):
            integrate(simplex(0.5, 0.3, 0.2), 1.0, t_end=-1.0)
        with pytest.raises(DomainError):
            integrate(simplex(0.5, 0.3, 0.2), None)  # no rate at all
        # a non-numeric step or end time, checked before it is compared
        for kwargs, message in (({"step": "abc"}, "step .* got 'abc'"),
                                ({"step": None}, "step .* got None"),
                                ({"t_end": "1"}, "t_end .* got '1'"),
                                ({"t_end": True}, "t_end .* got True"),
                                # float(10**400) overflows to inf
                                ({"t_end": 10**400}, "t_end .* got inf")):
            with pytest.raises(DomainError, match=f"^{message}$"):
                integrate(simplex(0.5, 0.3, 0.2), 1.0, **kwargs)

    @pytest.mark.parametrize("lam", [0.0, -1.0, float("nan"), float("inf"),
                                     True, "1"])
    def test_rejects_invalid_rate(self, lam):
        # the rule of a ModelSpec's rate: a real number, positive and finite
        message = "positive and finite" if isinstance(lam, float) else \
            f"a real number, got {lam!r}"
        with pytest.raises(DomainError, match=message):
            integrate(simplex(0.5, 0.3, 0.2), lam)

    def test_normalization_message_is_a_plain_number(self):
        for call in (lambda: integrate(simplex(0.5, 0.5, 0.2), 1.0),
                     lambda: counts_from_fractions([0.5, 0.5, 0.2], 10)):
            with pytest.raises(NormalizationError) as err:
                call()
            assert str(err.value) == "fractions sum to 1.2, expected 1"

    def test_oversized_step_raises_step_error(self):
        # one step of 10 time units overshoots the simplex near a vertex
        with pytest.raises(StepError, match="at t=10;"):
            integrate(simplex(0.98, 0.01, 0.01), 1.0, t_end=100.0, step=10.0)

    @given(
        weights=st.lists(st.integers(min_value=1, max_value=20),
                         min_size=3, max_size=6),
        lam=st.floats(min_value=0.1, max_value=4.0),
    )
    @settings(max_examples=30)
    def test_flow_stays_on_simplex(self, weights, lam):
        u0 = np.array(weights, dtype=float) / sum(weights)
        path = integrate(u0, lam, t_end=0.5, step=1e-2)
        audit = path.invariant_audit
        assert np.max(np.abs(audit.sums - 1.0)) < 1e-10
        assert np.min(path.step_states) > -1e-8


class TestCompiledMarch:
    # integrate marches in a loop compiled per species count, which must
    # give rk4_step's bits, and stop at rk4_step's first blow-up

    @given(data=st.data(), n=st.sampled_from([3, 4, 5, 7, 65]),
           lam=st.floats(min_value=0.1, max_value=4.0),
           h=st.floats(min_value=1e-4, max_value=0.05))
    @settings(max_examples=30, deadline=None)
    def test_bits_equal_the_rk4_step_march(self, data, n, lam, h):
        weights = data.draw(st.lists(st.integers(min_value=1, max_value=20),
                                     min_size=n, max_size=n))
        u0 = np.array(weights, dtype=float) / sum(weights)
        path = integrate(u0, lam, t_end=40 * h, step=h)
        ref = reference_march(path.step_states[0], lam, h,
                              len(path.step_states) - 1)
        assert np.array_equal(path.step_states.view(np.int64),
                              ref.view(np.int64))

    @pytest.mark.parametrize("n", [3, 65])
    @pytest.mark.parametrize("start, step, message", [
        # a finite step too long for the flow
        ("head", 10.0, r"component fell to -\S+ at t=10; "),
        # every component overflows to inf - inf = nan, which compares False
        ("ramp", 1e100, "component became nan at t=1e[+]100; "),
    ])
    def test_step_error_at_the_reference_blow_up(self, n, start, step,
                                                 message):
        weights = {"head": np.r_[5.0, 3.0, np.full(n - 2, 2.0 / (n - 2))],
                   "ramp": np.arange(1.0, n + 1)}[start]
        u0 = weights / weights.sum()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepError, match=message) as err:
                integrate(u0, 1.0, t_end=3 * step, step=step)
        # the first rk4_step state below the floor, or nan, is the one named
        with np.errstate(over="ignore", invalid="ignore"):
            ref = reference_march(u0, 1.0, step, 3)
        low = ref.min(axis=1)
        k = int(np.argmax(~(low >= -10 * INTEGRATOR_TOL)))
        assert k > 0
        what = ("became nan" if np.isnan(low[k])
                else f"fell to {low[k]:.3e}")
        assert str(err.value) == (f"component {what} at t={k * step:.6g}; "
                                  "integration left the simplex")

    def test_peak_memory_is_the_path_arrays(self):
        # steps go straight into the states array: no per-step Python
        # objects (a list of float tuples costs about 6x the array)
        integrate(simplex(0.5, 0.3, 0.2), 1.0, t_end=0.1, step=1e-2)  # compile
        tracemalloc.start()
        try:
            path = integrate(simplex(0.5, 0.3, 0.2), 1.0, t_end=100.0,
                             step=1e-3, grid=[0.0, 100.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        audit = path.invariant_audit
        kept = sum(a.nbytes for a in (path.step_states, audit.sums,
                                      audit.products))
        assert len(path.step_states) == 100_001
        assert peak <= kept + 64 * 1024
