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
from .meanfield import MeanFieldPath, rk4_step, snap_grid, vector_field

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


def drift_matrix(u, lam: float) -> np.ndarray:
    """Jacobian of the cyclic vector field at fractions ``u``.

    For three species this is exactly

        [[lam*(u1-u2),  lam*u0,      -lam*u0     ],
         [-lam*u1,      lam*(u2-u0),  lam*u1     ],
         [ lam*u2,     -lam*u2,       lam*(u0-u1)]]

    (0-based indices).  Columns sum to zero: the fluctuation dynamics never
    move total population.
    """
    x = np.asarray(u, dtype=float).tolist()
    n = len(x)
    b = np.zeros((n, n))
    for j in range(n):
        # edge j: intensity lam*x[j]*x[k] gains species j, loses species k
        k = (j + 1) % n
        dx, dy = lam * x[k], lam * x[j]
        b[j, j] += dx
        b[j, k] += dy
        b[k, j] -= dx
        b[k, k] -= dy
    return b


def diffusion_matrix(u, lam: float) -> np.ndarray:
    """Local covariance rate of the fluctuation noise at fractions ``u``.

    Diagonal entries are the total intensity touching a species, the cyclic
    off-diagonal band carries minus the shared edge intensity, and every
    entry with 2 <= |j-k| <= n-2 is zero.  Rows sum to zero, so (1,...,1) is
    an eigenvector with eigenvalue 0; the matrix is positive semi-definite by
    construction (a non-negative sum of rank-one terms).
    """
    x = np.asarray(u, dtype=float).tolist()
    n = len(x)
    c = np.zeros((n, n))
    for j in range(n):
        k = (j + 1) % n
        f = lam * x[j] * x[k]
        c[j, j] += f
        c[k, k] += f
        c[j, k] -= f
        c[k, j] -= f
    return c


def psd_sqrt(c: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via spectral decomposition.

    Eigenvalues in ``[-1e-9, 0)`` are treated as rounding noise and clamped
    to zero; anything lower raises :class:`NotPSD`.  The result R is
    symmetric and satisfies ``max|R@R - c| < 1e-10 * (1 + max|c|)``.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {c.shape}")
    if np.max(np.abs(c - c.T)) > _SYMMETRY_TOL:
        raise DomainError("matrix is not symmetric within 1e-12")
    w, v = np.linalg.eigh(c)
    if w[0] < -_PSD_EIG_TOL:
        raise NotPSD(f"eigenvalue {w[0]:.3e} below -{_PSD_EIG_TOL}")
    w = np.clip(w, 0.0, None)
    root = (v * np.sqrt(w)) @ v.T
    root = 0.5 * (root + root.T)
    err = np.max(np.abs(root @ root - c))
    if err >= 1e-10 * (1.0 + np.max(np.abs(c))):
        raise NumericError(f"square root multiply-back error {err:.3e}")
    return root


@dataclass(frozen=True, eq=False)
class CovarianceState:
    """Covariance of the limit fluctuation at one time."""

    sigma: np.ndarray
    time: float

    def __post_init__(self):
        s = np.asarray(self.sigma, dtype=float)
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


def _validate_sigma0(sigma0, n: int) -> np.ndarray:
    s = np.asarray(sigma0, dtype=float).copy()
    if s.shape != (n, n):
        raise DomainError(f"initial covariance must be {n}x{n}, got {s.shape}")
    if np.max(np.abs(s - s.T)) > _SYMMETRY_TOL:
        raise DomainError("initial covariance is not symmetric within 1e-12")
    if np.linalg.eigvalsh(s)[0] < -_PSD_EIG_TOL:
        raise NotPSD("initial covariance is not positive semi-definite")
    return s


def propagate_covariance(model: FluctuationModel, sigma0,
                         step: float | None = None) -> list[CovarianceState]:
    """Propagate the fluctuation covariance along the model's path.

    Marches the joint vector (u, vec S) with one RK4 step, so b and c are
    evaluated at the RK4 stage states rather than interpolated, and at equal
    steps the u part reproduces the stored path bit for bit.  S is
    re-symmetrized after every step; a drop of its smallest eigenvalue below
    -1e-6 aborts with :class:`NotPSD`.  Output is aligned with the path's
    sample grid.
    """
    if step is None:
        step = model.path.step
    grid, indices, n_steps = snap_grid(model.path.grid, step)
    n, lam = model.n, model.lam
    z = np.concatenate([model.path.step_states[0],
                        _validate_sigma0(sigma0, n).ravel()])

    def field(z):
        u, s = z[:n], z[n:].reshape(n, n)
        b = drift_matrix(u, lam)
        ds = b @ s + s @ b.T + diffusion_matrix(u, lam)
        return np.concatenate([vector_field(u, lam), ds.ravel()])

    out: list[CovarianceState] = []
    for k in range(n_steps + 1):
        if k:
            z = rk4_step(field, z, step)
            s = z[n:].reshape(n, n)
            s[:] = 0.5 * (s + s.T)
            if np.linalg.eigvalsh(s)[0] < -_PSD_MONITOR_TOL:
                raise NotPSD(
                    f"covariance lost positive semi-definiteness at t={k * step:.6g}"
                )
        while len(out) < len(grid) and indices[len(out)] == k:
            label = float(grid[len(out)])
            # guard: the embedded march must track the stored path (catches a
            # model whose rate disagrees with the path it carries); only
            # meaningful when the label sits on a stored step
            on_step = abs(round(label / model.path.step) * model.path.step - label)
            if on_step < 1e-9 and np.max(np.abs(z[:n] - model.path.u_at(label))) > 1e-6:
                raise NumericError(
                    "covariance propagation diverged from the stored mean-field "
                    f"path at t={label:.6g}"
                )
            out.append(CovarianceState(sigma=z[n:].reshape(n, n).copy(), time=label))
    return out


def _sde_grid(grid, step: float):
    grid, indices, n_steps = snap_grid(grid, step)
    if len(grid) and (np.any(np.diff(grid) < 0) or grid[0] < 0):
        raise DomainError("grid must be ascending and non-negative")
    return grid, indices, n_steps


def _resolve_v0(v0, n: int) -> np.ndarray:
    if v0 is None:
        return np.zeros(n)
    v = np.asarray(v0, dtype=float).copy()
    if v.shape != (n,):
        raise DomainError(f"initial value must have shape ({n},), got {v.shape}")
    return v


def _sde_coefficients(model: FluctuationModel, step: float, n_steps: int):
    """Per-step drift matrices and noise square roots, each (n_steps, n, n)."""
    n = model.n
    drifts = np.empty((n_steps, n, n))
    roots = np.empty((n_steps, n, n))
    for k in range(n_steps):
        drifts[k] = model.drift_at(k * step)
        roots[k] = psd_sqrt(model.diffusion_at(k * step))
    return drifts, roots


def _em_core(coefficients, v: np.ndarray, normals: np.ndarray,
             step: float, indices: np.ndarray) -> np.ndarray:
    """Euler-Maruyama march shared by the single-path and ensemble runners.

    ``coefficients`` is the ``(drifts, roots)`` table from
    :func:`_sde_coefficients`, computed once per run and shared by every
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
    grid_arr, indices, n_steps = _sde_grid(grid, step)
    v = _resolve_v0(v0, model.n)
    normals = rng.standard_normal((1, n_steps, model.n))
    coefficients = _sde_coefficients(model, step, n_steps)
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
    grid_arr, indices, n_steps = _sde_grid(grid, step)
    v = _resolve_v0(v0, model.n)
    coefficients = _sde_coefficients(model, step, n_steps)
    # one noise buffer, refilled for each block of paths
    normals = np.empty((min(block, paths), n_steps, model.n))
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
