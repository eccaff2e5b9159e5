"""Deterministic large-population limit of the cyclic collision model.

As the population grows, species fractions follow the cyclic ODE system

    du_i/dt = lam * (u_i*u_{i+1} - u_{i-1}*u_i)      (indices mod n)

with the same single collision rate lam as the exact simulator.

Two quantities are conserved by the flow: the total sum(u) and the product
prod(u).  The integrator audits both at every step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError, StepError, check_fractions, check_rate

__all__ = [
    "MeanFieldState",
    "MeanFieldPath",
    "ConservationAudit",
    "vector_field",
    "rk4_step",
    "snap_grid",
    "integrate",
    "conserved_quantities",
    "INTEGRATOR_TOL",
    "NEAR_BOUNDARY",
    "DEFAULT_STEP",
]

# tolerance backing the blow-up guard: StepError below -10*INTEGRATOR_TOL
INTEGRATOR_TOL = 1e-9
# near-boundary warning threshold for min u_i
NEAR_BOUNDARY = 1e-4
DEFAULT_STEP = 1e-3


@dataclass(frozen=True)
class MeanFieldState:
    """Species fractions at one time point."""

    u: np.ndarray
    time: float


@dataclass(frozen=True)
class ConservationAudit:
    """Per-integrator-step record of the two conserved quantities."""

    times: np.ndarray
    sums: np.ndarray
    products: np.ndarray


@dataclass(frozen=True, eq=False)
class MeanFieldPath:
    """Integrated mean-field solution.

    ``grid``/``states`` report the caller's requested sample times verbatim;
    for each one the value is taken at the nearest integrator step (snapping,
    never interpolation).  ``step_states`` keeps the full per-step solution,
    which downstream consumers (fluctuation coefficients) sample the same way
    via :meth:`u_at`.
    """

    grid: np.ndarray
    states: tuple[MeanFieldState, ...]
    step: float
    step_states: np.ndarray          # (n_steps + 1, n)
    invariant_audit: ConservationAudit
    warned_near_boundary: bool

    @property
    def n(self) -> int:
        return self.step_states.shape[1]

    @property
    def horizon(self) -> float:
        return (len(self.step_states) - 1) * self.step

    def step_index(self, t: float) -> int:
        """Integrator step nearest to time ``t`` (clipped to the horizon)."""
        idx = int(round(t / self.step))
        return min(max(idx, 0), len(self.step_states) - 1)

    def u_at(self, t: float) -> np.ndarray:
        return self.step_states[self.step_index(t)]


def vector_field(u, lam: float) -> np.ndarray:
    """Right-hand side du_i/dt = lam*(u_i*u_{i+1} - u_{i-1}*u_i)."""
    u = np.asarray(u, dtype=float)
    # the cyclic neighbours u_{i+1} and u_{i-1}; concatenate is several times
    # faster than np.roll on these short vectors
    return lam * (u * np.concatenate((u[1:], u[:1]))
                  - np.concatenate((u[-1:], u[:-1])) * u)


def conserved_quantities(u) -> tuple[float, float]:
    """The two constants of motion: (sum(u), prod(u))."""
    u = np.asarray(u, dtype=float)
    return float(u.sum()), float(u.prod())


def rk4_step(field, u: np.ndarray, h: float) -> np.ndarray:
    """One classical 4th-order Runge-Kutta step of du/dt = field(u).

    The package's only RK4 formula.  Its combination is elementwise, so a
    stack of states, one per column, marches each column exactly as its own
    call would; the covariance propagator takes the mean field's stage states
    that way, then marches S through it with coefficients fixed per stage.
    """
    k1 = field(u)
    k2 = field(u + (0.5 * h) * k1)
    k3 = field(u + (0.5 * h) * k2)
    k4 = field(u + h * k3)
    return u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def snap_grid(grid, step: float, horizon: float | None = None):
    """Serve each sample time from the nearest whole integrator step.

    Returns ``(grid, indices, n_steps)``: a float copy of the grid (every
    step when ``grid`` is None), the step index serving each time, and the
    number of steps to ``horizon`` (default: the last grid time).  Indices
    are clipped to ``[0, n_steps]``.
    """
    if not (step > 0 and math.isfinite(step)):
        raise DomainError(f"step must be positive and finite, got {step}")
    if grid is None:
        grid = np.arange(int(round(horizon / step)) + 1) * step
    grid = np.array(grid, dtype=float)
    if grid.ndim != 1:
        raise DomainError("grid must be one-dimensional")
    if horizon is None:
        horizon = grid[-1] if len(grid) else 0.0
    n_steps = int(round(horizon / step))
    indices = np.clip(np.rint(grid / step).astype(int), 0, n_steps)
    return grid, indices, n_steps


def integrate(u0, lam: float, t_end: float = 1.0,
              step: float = DEFAULT_STEP, grid=None) -> MeanFieldPath:
    """Fixed-step 4th-order integration of the cyclic system.

    ``u0`` holds initial fractions on the simplex and ``lam`` is the
    positive, finite collision rate.  The horizon ``t_end`` is snapped to a
    whole number of steps, and each time in ``grid`` (default: every step)
    is served by the nearest step.  Raises :class:`StepError` if any
    component falls below ``-10 * INTEGRATOR_TOL`` (blow-up).
    """
    u = check_fractions(u0)
    lam = check_rate(lam)
    if not (t_end >= 0 and np.isfinite(t_end)):
        raise DomainError(f"t_end must be non-negative and finite, got {t_end}")
    grid_arr, indices, n_steps = snap_grid(grid, step, t_end)
    if grid is not None and len(grid_arr):
        if np.any(np.diff(grid_arr) <= 0):
            raise DomainError("grid must be strictly increasing")
        if grid_arr[0] < -step / 2 or grid_arr[-1] > n_steps * step + step / 2:
            raise DomainError("grid must lie within [0, t_end]")

    def field(x):
        return vector_field(x, lam)

    states = np.empty((n_steps + 1, len(u)))
    states[0] = u
    for k in range(n_steps):
        u = rk4_step(field, u, step)
        low = float(u.min())
        if low < -10.0 * INTEGRATOR_TOL:
            raise StepError(
                f"component fell to {low:.3e} at t={(k + 1) * step:.6g}; "
                "integration left the simplex"
            )
        states[k + 1] = u

    # row by row, the audit equals conserved_quantities of each state
    audit = ConservationAudit(times=np.arange(n_steps + 1) * step,
                              sums=states.sum(axis=1),
                              products=states.prod(axis=1))
    return MeanFieldPath(
        grid=grid_arr,
        states=tuple(MeanFieldState(u=states[idx].copy(), time=float(t))
                     for idx, t in zip(indices, grid_arr)),
        step=float(step), step_states=states, invariant_audit=audit,
        warned_near_boundary=bool(states.min() < NEAR_BOUNDARY))
