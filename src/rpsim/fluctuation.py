"""Gaussian fluctuation machinery around the mean-field path.

Centered and rescaled by sqrt(M), the deviation of the finite-population
process from its deterministic limit converges to a linear Gaussian diffusion

    dV(t) = b(t) V(t) dt + c(t)^{1/2} dW(t),

where b(t) is the Jacobian of the cyclic vector field along u(t) and c(t)
collects the reaction intensities in a cyclic band (reaction j, at intensity
lam*u_j*u_{j+1}, contributes that intensity times the outer product of its
stoichiometric vector e_j - e_{j+1}).  This module builds b and c, propagates
the covariance of V through the moment ODE dS/dt = bS + Sb' + c, and
simulates the limiting SDE directly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError, NotPSD, NumericError, check_rate, rng_stream
from .meanfield import (MeanFieldPath, integrate, rk4_step, snap_grid,
                        vector_field)

__all__ = [
    "FluctuationModel",
    "CovarianceState",
    "GaussianPath",
    "drift_matrix",
    "diffusion_matrix",
    "psd_sqrt",
    "propagate_covariance",
    "simulate_limit_sde",
    "run_sde_ensemble",
]

# PSD tolerances: construction-time (strict) and propagation monitor (loose)
_PSD_EIG_TOL = 1e-9
_PSD_MONITOR_TOL = 1e-6
_SYMMETRY_TOL = 1e-12
# steps per block of the covariance march: bounds the memory of its stage
# coefficient tables and of its batched PSD monitor
_COV_BLOCK = 1024


def drift_matrix(u, lam: float) -> np.ndarray:
    """Jacobian of the cyclic vector field at fractions ``u``.

    For three species this is exactly

        [[lam*(u1-u2),  lam*u0,      -lam*u0     ],
         [-lam*u1,      lam*(u2-u0),  lam*u1     ],
         [ lam*u2,     -lam*u2,       lam*(u0-u1)]]

    (0-based indices).  Columns sum to zero: the fluctuation dynamics never
    move total population.  A stack ``u`` of shape (..., n) gives a stack of
    shape (..., n, n), each matrix bit-identical to its own call.
    """
    x = np.asarray(u, dtype=float)
    n = x.shape[-1]
    b = np.zeros(x.shape + (n,))
    for j in range(n):
        # edge j: intensity lam*x[j]*x[k] gains species j, loses species k
        k = (j + 1) % n
        dx, dy = lam * x[..., k], lam * x[..., j]
        b[..., j, j] += dx
        b[..., j, k] += dy
        b[..., k, j] -= dx
        b[..., k, k] -= dy
    return b


def diffusion_matrix(u, lam: float) -> np.ndarray:
    """Local covariance rate of the fluctuation noise at fractions ``u``.

    Diagonal entries are the total intensity touching a species, the cyclic
    off-diagonal band carries minus the shared edge intensity, and every
    entry with 2 <= |j-k| <= n-2 is zero.  Rows sum to zero, so (1,...,1) is
    an eigenvector with eigenvalue 0; the matrix is positive semi-definite by
    construction (a non-negative sum of rank-one terms).  Stacks as
    :func:`drift_matrix` does.
    """
    x = np.asarray(u, dtype=float)
    n = x.shape[-1]
    c = np.zeros(x.shape + (n,))
    for j in range(n):
        k = (j + 1) % n
        f = lam * x[..., j] * x[..., k]
        c[..., j, j] += f
        c[..., k, k] += f
        c[..., j, k] -= f
        c[..., k, j] -= f
    return c


def psd_sqrt(c: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via spectral decomposition.

    A non-finite or asymmetric (beyond 1e-12) input raises
    :class:`DomainError`.  Eigenvalues in ``[-1e-9, 0)`` are treated as
    rounding noise and clamped to zero; anything lower raises
    :class:`NotPSD`.  The result R is
    symmetric and satisfies ``max|R@R - c| < 1e-10 * (1 + max|c|)``.  A
    stack of shape (..., n, n) is rooted matrix by matrix in one batched
    call; each root is bit-identical to its own call, and an error names the
    first failing matrix exactly as its own call would.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim < 2 or c.shape[-1] != c.shape[-2]:
        raise DomainError(f"expected a square matrix, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise DomainError("matrix has a non-finite entry")
    if np.max(np.abs(c - c.swapaxes(-1, -2)), initial=0.0) > _SYMMETRY_TOL:
        raise DomainError("matrix is not symmetric within 1e-12")
    w, v = np.linalg.eigh(c)
    low = np.ravel(w[..., 0])
    bad = low < -_PSD_EIG_TOL
    if np.any(bad):
        raise NotPSD(f"eigenvalue {low[bad][0]:.3e} below -{_PSD_EIG_TOL}")
    w = np.clip(w, 0.0, None)
    root = (v * np.sqrt(w)[..., None, :]) @ v.swapaxes(-1, -2)
    root = 0.5 * (root + root.swapaxes(-1, -2))
    err = np.ravel(np.max(np.abs(root @ root - c), axis=(-2, -1)))
    bad = err >= 1e-10 * (1.0 + np.ravel(np.max(np.abs(c), axis=(-2, -1))))
    if np.any(bad):
        raise NumericError(f"square root multiply-back error {err[bad][0]:.3e}")
    return root


@dataclass(frozen=True, eq=False)
class CovarianceState:
    """Covariance of the limit fluctuation at one time."""

    sigma: np.ndarray
    time: float

    def __post_init__(self):
        s = np.asarray(self.sigma, dtype=float)
        if not np.all(np.isfinite(s)):
            raise DomainError("covariance has a non-finite entry")
        if np.max(np.abs(s - s.T)) > _SYMMETRY_TOL:
            raise DomainError("covariance is not symmetric within 1e-12")
        w = np.linalg.eigvalsh(s)
        if w[0] < -_PSD_EIG_TOL:
            raise NotPSD(f"covariance eigenvalue {w[0]:.3e} below -{_PSD_EIG_TOL}")
        object.__setattr__(self, "sigma", s)


@dataclass(frozen=True, eq=False)
class GaussianPath:
    """One simulated path of the limiting diffusion, sampled on a grid."""

    grid: np.ndarray
    values: np.ndarray            # (len(grid), n)
    seed: int | None = None

    def __post_init__(self):
        if self.values.shape[0] != len(self.grid):
            raise DomainError("values are not aligned with the grid")


@dataclass(frozen=True, eq=False)
class FluctuationModel:
    """Coefficients b(t), c(t) evaluated along a stored mean-field path.

    Times are served by snapping to the path's integrator steps, exactly as
    the path itself samples; nothing is interpolated.
    """

    path: MeanFieldPath
    lam: float

    def __post_init__(self):
        object.__setattr__(self, "lam", check_rate(self.lam))
        sums = self.path.step_states.sum(axis=1)
        if np.max(np.abs(sums - 1.0)) > 1e-6 or self.path.step_states.min() < -1e-6:
            raise DomainError("path states must lie on the simplex")

    @classmethod
    def from_path(cls, path: MeanFieldPath, lam: float):
        return cls(path=path, lam=lam)

    @property
    def n(self) -> int:
        return self.path.n

    def u_at(self, t: float) -> np.ndarray:
        return self.path.u_at(t)

    def drift_at(self, t: float) -> np.ndarray:
        return drift_matrix(self.path.u_at(t), self.lam)

    def diffusion_at(self, t: float) -> np.ndarray:
        return diffusion_matrix(self.path.u_at(t), self.lam)


def _rk4_stages(u: np.ndarray, lam: float, h: float):
    """One mean-field RK4 step from every column of ``u`` (n, steps) at
    once: the next states and the list of the four stage states."""
    stages = []

    def field(x):
        stages.append(x)
        return vector_field(x, lam)

    return rk4_step(field, u, h), stages


def propagate_covariance(model: FluctuationModel, sigma0,
                         step: float | None = None) -> list[CovarianceState]:
    """Propagate the fluctuation covariance along the model's path.

    The moment ODE dS/dt = bS + Sb' + c is marched by RK4 with b and c taken
    at the mean field's own RK4 stage states, not interpolated.  Those
    stages do not depend on S, so they come first for every step at once:
    from the stored path when ``step`` is its step, else from a fresh
    :func:`integrate` at ``step``.  The stored path must be an RK4 march at
    the model's rate (each step within 1e-12), or :class:`NumericError`.
    S is re-symmetrized after every step; a drop of its smallest eigenvalue
    below -1e-6 aborts with :class:`NotPSD` at the first such step.  Output
    is aligned with the path's sample grid.
    """
    path, n, lam = model.path, model.n, model.lam
    if step is None:
        step = path.step
    grid, indices, n_steps = snap_grid(path.grid, step)
    s = np.asarray(sigma0, dtype=float).copy()
    if s.shape != (n, n):
        raise DomainError(f"initial covariance must be {n}x{n}, got {s.shape}")
    s = CovarianceState(sigma=s, time=0.0).sigma  # symmetric and PSD
    stored = path.step_states
    marched, stages = _rk4_stages(stored[:-1].T, lam, path.step)
    if np.max(np.abs(marched - stored[1:].T), initial=0.0) > 1e-12:
        raise NumericError("the stored mean-field path is not an RK4 march "
                           f"at the model's rate {lam:g}")
    if step != path.step or n_steps >= len(stored):
        u = integrate(stored[0], lam, t_end=n_steps * step, step=step,
                      grid=[0.0]).step_states
        stages = _rk4_stages(u[:-1].T, lam, step)[1]

    # rk4_step calls the field once per stage, in stage order; each call
    # takes that stage's b and c
    coefficients = iter(())

    def moment_field(sig):
        b, c = next(coefficients)
        return b @ sig + sig @ b.T + c

    out = [CovarianceState(sigma=s.copy(), time=t)
           for t in grid[indices == 0].tolist()]
    for lo in range(0, n_steps, _COV_BLOCK):
        # b and c at the four stage states of each step, (steps, 4, n, n)
        x = np.stack([st[:, lo:min(lo + _COV_BLOCK, n_steps)].T
                      for st in stages], axis=1)
        bs, cs = drift_matrix(x, lam), diffusion_matrix(x, lam)
        sigmas = np.empty((len(x), n, n))  # sigmas[i] is S after step lo + i
        for i in range(len(x)):
            coefficients = zip(bs[i], cs[i])
            s = rk4_step(moment_field, s, step)
            sigmas[i] = s = 0.5 * (s + s.T)
        low = np.linalg.eigvalsh(sigmas)[:, 0]
        bad = np.flatnonzero(low < -_PSD_MONITOR_TOL)
        stop = lo + 1 + (bad[0] if len(bad) else len(x))
        while len(out) < len(grid) and indices[len(out)] < stop:
            k = indices[len(out)] - lo - 1
            out.append(CovarianceState(sigma=sigmas[k].copy(),
                                       time=float(grid[len(out)])))
        if len(bad):
            raise NotPSD(f"covariance lost positive semi-definiteness at "
                         f"t={stop * step:.6g}")
    return out


def _sde_setup(model: FluctuationModel, v0, step: float, grid):
    """Grid, step indices, start value and the per-step ``(drifts, roots)``
    table, each (n_steps, n, n), of one SDE run.  Step k is served by the
    path's step nearest to ``k * step``, rounded as
    :meth:`MeanFieldPath.step_index` rounds."""
    grid, indices, n_steps = snap_grid(grid, step)
    if len(grid) and grid[0] < 0:
        raise DomainError("grid must be non-negative")
    n, path = model.n, model.path
    v = np.zeros(n) if v0 is None else np.asarray(v0, dtype=float).copy()
    if v.shape != (n,):
        raise DomainError(f"initial value must have shape ({n},), got {v.shape}")
    nearest = np.rint(np.arange(n_steps) * step / path.step)
    u = path.step_states[np.clip(nearest, 0, len(path.step_states) - 1)
                         .astype(int)]
    return grid, indices, v, (drift_matrix(u, model.lam),
                              psd_sqrt(diffusion_matrix(u, model.lam)))


def _em_core(coefficients, v: np.ndarray, normals: np.ndarray,
             step: float, indices: np.ndarray) -> np.ndarray:
    """Euler-Maruyama march shared by the single-path and ensemble runners.

    ``coefficients`` is the ``(drifts, roots)`` table from
    :func:`_sde_setup`, computed once per run and shared by every
    block of paths.  ``v`` is (paths, n), ``normals`` is (paths, n_steps, n),
    ``indices`` is non-decreasing.  Returns samples (paths, len(indices), n):
    entry g is the value after ``indices[g]`` steps.
    """
    drifts, roots = coefficients
    n_paths, n_steps = normals.shape[0], normals.shape[1]
    sqrt_step = math.sqrt(step)
    out = np.empty((n_paths, len(indices), v.shape[1]))
    g = 0
    for k in range(n_steps + 1):
        while g < len(indices) and indices[g] == k:
            out[:, g, :] = v
            g += 1
        if k == n_steps:
            break
        v = v + (v @ drifts[k].T) * step + (normals[:, k, :] @ roots[k].T) * sqrt_step
    return out


def simulate_limit_sde(model: FluctuationModel, v0, step: float, grid,
                       rng: np.random.Generator, *,
                       seed: int | None = None) -> GaussianPath:
    """Euler-Maruyama simulation of the limiting linear SDE.

    One step: V <- V + b(t) V step + psd_sqrt(c(t)) sqrt(step) xi, with xi a
    standard normal vector.  ``v0`` is a vector, or None for the default
    point mass at zero.  Grid times are served by the nearest step, like
    every other grid in the package.
    """
    grid_arr, indices, v, coefficients = _sde_setup(model, v0, step, grid)
    normals = rng.standard_normal((1, len(coefficients[0]), model.n))
    values = _em_core(coefficients, v[None, :], normals, step, indices)[0]
    return GaussianPath(grid=grid_arr, values=values, seed=seed)


def run_sde_ensemble(model: FluctuationModel, v0, step: float, grid,
                     paths: int, base_seed: int, *,
                     block: int = 256) -> list[GaussianPath]:
    """Simulate ``paths`` independent limit-SDE paths.

    Path ``i`` consumes exactly the stream ``rng_stream(base_seed, i)`` in
    the same draw order as :func:`simulate_limit_sde`, so every draw matches
    the one-at-a-time runner; paths are marched in blocks for speed, which
    reassociates the matrix arithmetic, so values agree with the single-path
    runner to float rounding (~1e-13) rather than bit for bit.
    """
    if paths < 1:
        raise DomainError(f"need at least one path, got {paths}")
    grid_arr, indices, v, coefficients = _sde_setup(model, v0, step, grid)
    # one noise buffer, refilled for each block of paths
    normals = np.empty((min(block, paths), len(coefficients[0]), model.n))
    out: list[GaussianPath] = []
    for start in range(0, paths, block):
        stop = min(start + block, paths)
        rows = normals[:stop - start]
        for row, i in zip(rows, range(start, stop)):
            rng_stream(base_seed, i).standard_normal(out=row)
        values = _em_core(coefficients, np.tile(v, (stop - start, 1)), rows,
                          step, indices)
        for offset, i in enumerate(range(start, stop)):
            out.append(GaussianPath(grid=grid_arr.copy(), values=values[offset],
                                    seed=i))
    return out
