"""Deterministic large-population limit of the cyclic collision model.

As the population grows, species fractions follow the cyclic ODE system

    du_i/dt = lam * (u_i*u_{i+1} - u_{i-1}*u_i)      (indices mod n)

with the same single collision rate lam as the exact simulator.

Two quantities are conserved by the flow: the total sum(u) and the product
prod(u).  The integrator audits both at every step.

:func:`rk4_step` through :func:`vector_field` is the reference RK4 march.
:func:`integrate` runs it as a loop generated and compiled once per species
count, with each fraction a local Python float and every operation of the
two functions written out per component, in their order.  Python floats and
numpy's elementwise float64 take the same IEEE operations, so the stored
steps are bit for bit those of the reference.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (DomainError, StepError, check_fractions, check_grid,
                   check_rate, check_real, compile_loop, per_species)

__all__ = [
    "MeanFieldState",
    "MeanFieldPath",
    "ConservationAudit",
    "vector_field",
    "rk4_step",
    "integrate",
    "conserved_quantities",
    "INTEGRATOR_TOL",
    "DEFAULT_STEP",
]

# the blow-up guard raises StepError below -10*INTEGRATOR_TOL, or at nan
INTEGRATOR_TOL = 1e-9
DEFAULT_STEP = 1e-3


@dataclass(frozen=True)
class MeanFieldState:
    """Species fractions at one time point."""

    u: np.ndarray
    time: float


@dataclass(frozen=True)
class ConservationAudit:
    """Per-integrator-step record of the two conserved quantities; row
    ``k`` is step ``k`` of the path's ``step_states``."""

    sums: np.ndarray
    products: np.ndarray


@dataclass(frozen=True, eq=False)
class MeanFieldPath:
    """Integrated mean-field solution.

    ``grid`` holds the caller's requested sample times verbatim, and
    ``indices`` the integrator step that serves each one, the nearest
    (snapping, never interpolation).  ``step_states`` keeps the full
    per-step solution, marched at ``step`` and the collision rate ``lam``,
    which the fluctuation layer takes from the path.
    """

    grid: np.ndarray
    indices: np.ndarray              # (len(grid),) step of each sample time
    step: float
    lam: float
    step_states: np.ndarray          # (n_steps + 1, n)
    invariant_audit: ConservationAudit

    @property
    def n(self) -> int:
        return self.step_states.shape[1]

    @functools.cached_property
    def states(self) -> tuple[MeanFieldState, ...]:
        """One :class:`MeanFieldState` per sample time, built on first use:
        the time verbatim and the state of the step that serves it."""
        return tuple(MeanFieldState(u=u, time=t) for u, t in
                     zip(self.step_states[self.indices], self.grid.tolist()))


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

    The package's RK4 formula, and the reference that :func:`integrate`'s
    compiled march is pinned to bit for bit.  Its combination is
    elementwise, so a stack of states, one per column, marches each column
    exactly as its own call would; the fluctuation layer takes the mean
    field's stage states that way, then marches the transitions (Phi, Q)
    through it with coefficients fixed per stage.
    """
    k1 = field(u)
    k2 = field(u + (0.5 * h) * k1)
    k3 = field(u + (0.5 * h) * k2)
    k4 = field(u + h * k3)
    return u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _left_simplex(u, k: int, h: float) -> StepError:
    """The blow-up guard's error: step ``k`` left a component ``u`` below
    the floor, or not a number."""
    low = float(np.min(u))
    what = "became nan" if math.isnan(low) else f"fell to {low:.3e}"
    return StepError(f"component {what} at t={(k + 1) * h:.6g}; "
                     "integration left the simplex")


# integrate's march, unrolled: fraction j is u{j}, the slopes of its four RK4
# stages are a{j}..d{j}, and v{j} holds each stage's state in turn.  Each
# line is rk4_step's and vector_field's elementwise operation, in their
# order, on Python floats: the same IEEE arithmetic, so the same bits.  Step
# k + 1 is stored at out[p:p + n] of the flat states array.
_MARCH = """\
def loop(u, lam, h, n_steps, out, floor):
    {u}, = u
    half, sixth = 0.5 * h, h / 6.0
    p = {n}
    for k in range(n_steps):
{a}
{v_a}
{b}
{v_b}
{c}
{v_c}
{d}
{update}
        if not ({guard}):
            raise _left_simplex(({u},), k, h)
{store}
        p += {n}
"""


def _field(slope: str, x: str) -> str:
    """vector_field's line for component j, writing ``slope`` from state
    ``x``."""
    return (f"        {slope}{{j}} = lam * ({x}{{j}} * {x}{{k}} "
            f"- {x}{{m}} * {x}{{j}})")


@functools.lru_cache(maxsize=16)
def _march(n: int):
    """integrate's RK4 march for ``n`` species, compiled on first use."""
    source = _MARCH.format(
        n=n, u=per_species("u{j}", n, ", "),
        a=per_species(_field("a", "u"), n),
        v_a=per_species("        v{j} = u{j} + half * a{j}", n),
        b=per_species(_field("b", "v"), n),
        v_b=per_species("        v{j} = u{j} + half * b{j}", n),
        c=per_species(_field("c", "v"), n),
        v_c=per_species("        v{j} = u{j} + h * c{j}", n),
        d=per_species(_field("d", "v"), n),
        update=per_species("        u{j} = u{j} + sixth * "
                           "(a{j} + 2.0 * b{j} + 2.0 * c{j} + d{j})", n),
        guard=per_species("u{j} >= floor", n, " and "),
        store=per_species("        out[p + {j}] = u{j}", n))
    return compile_loop(source, f"<integrate march, n={n}>",
                        _left_simplex=_left_simplex)


def integrate(u0, lam: float, t_end: float = 1.0,
              step: float = DEFAULT_STEP, grid=None) -> MeanFieldPath:
    """Fixed-step 4th-order integration of the cyclic system.

    ``u0`` holds initial fractions on the simplex and ``lam`` is the
    positive, finite collision rate, which the path records.  ``t_end`` and
    ``step`` are real numbers (:class:`DomainError` naming them otherwise),
    and the end time is snapped to a whole number of steps, and each time in
    ``grid`` (default: every step) is served by the nearest step.  Raises
    :class:`StepError` if any component falls below ``-10 * INTEGRATOR_TOL``
    or is not a number (blow-up), and :class:`DomainError` if the steps'
    states do not fit in memory.  The path keeps every step's state and the
    step serving each grid time, and builds its ``states`` when first read.

    The steps are marched by a loop compiled on first use per species
    count (the last 16 counts stay cached), at a cost of about 0.15 ms and
    40 kB per species: 0.4-0.7 ms at n = 3, 8-13 ms at n = 64, and
    0.13-0.19 s and 39 MB at ``MAX_SPECIES`` (1 024).  It writes each step
    straight into the returned ``step_states`` array, bit for bit what
    :func:`rk4_step` gives, in about 2 µs a step at n = 3 against 36-49 µs
    through numpy.
    """
    u = check_fractions(u0)
    lam = check_rate(lam)
    t_end, step = check_real(t_end, "t_end"), check_real(step, "step")
    if not (t_end >= 0 and np.isfinite(t_end)):
        raise DomainError(f"t_end must be non-negative and finite, got {t_end}")
    if not (step > 0 and math.isfinite(step)):
        raise DomainError(f"step must be positive and finite, got {step}")
    try:    # OverflowError: an infinite count; ValueError: numpy's size limit
        n_steps = int(round(t_end / step))
        grid_arr = check_grid(np.arange(n_steps + 1) * step if grid is None
                              else grid)
        states = np.empty((n_steps + 1, len(u)))
    except (MemoryError, OverflowError, ValueError):
        raise DomainError(f"t_end={t_end:g} takes {t_end / step:.3g} "
                          f"steps of {step:g}, too many states to hold in "
                          "memory") from None
    if grid is not None and len(grid_arr):
        if np.any(np.diff(grid_arr) <= 0):
            raise DomainError("grid must be strictly increasing")
        if grid_arr[0] < -step / 2 or grid_arr[-1] > n_steps * step + step / 2:
            raise DomainError("grid must lie within [0, t_end]")
    indices = np.clip(np.rint(grid_arr / step).astype(int), 0, n_steps)

    states[0] = u
    _march(len(u))(u.tolist(), lam, float(step), n_steps,
                   memoryview(states.reshape(-1)), -10.0 * INTEGRATOR_TOL)

    # row by row, the audit equals conserved_quantities of each state
    audit = ConservationAudit(sums=states.sum(axis=1),
                              products=states.prod(axis=1))
    return MeanFieldPath(grid=grid_arr, indices=indices, step=float(step),
                         lam=lam, step_states=states, invariant_audit=audit)
