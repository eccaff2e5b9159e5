"""Gaussian fluctuation machinery around the mean-field path.

Centered and rescaled by sqrt(M), the deviation of the finite-population
process from its deterministic limit converges to a linear Gaussian diffusion

    dV(t) = b(t) V(t) dt + c(t)^{1/2} dW(t),

where b(t) is the Jacobian of the cyclic vector field along u(t) and c(t)
collects the reaction intensities in a cyclic band (reaction j, at intensity
lam*u_j*u_{j+1}, contributes that intensity times the outer product of its
stoichiometric vector e_j - e_{j+1}).  This module builds b and c, propagates
the covariance of V through the moment ODE dS/dt = bS + Sb' + c, and
simulates the limiting SDE directly.  Both consumers take b and c from one
stored mean-field march, which :class:`FluctuationModel` checks once, when
it is made.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError, NotPSD, NumericError, check_rate, rng_streams
from .meanfield import MeanFieldPath, rk4_step, snap_grid, vector_field

__all__ = [
    "FluctuationModel",
    "CovarianceState",
    "GaussianPath",
    "drift_matrix",
    "diffusion_matrix",
    "psd_sqrt",
    "propagate_covariance",
    "run_sde_ensemble",
]

# PSD tolerances: construction-time (strict) and propagation monitor (loose)
_PSD_EIG_TOL = 1e-9
_PSD_MONITOR_TOL = 1e-6
_SYMMETRY_TOL = 1e-12
# steps per block of the covariance march: bounds the memory of its stage
# coefficient tables and of its batched PSD monitor
_COV_BLOCK = 1024
# SDE steps whose normals are drawn at a time: bounds the noise buffer
_SDE_CHUNK = 256


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

    def __post_init__(self):
        if self.values.shape[0] != len(self.grid):
            raise DomainError("values are not aligned with the grid")


@dataclass(frozen=True, eq=False)
class FluctuationModel:
    """Coefficients b(t), c(t) evaluated along a stored mean-field path.

    Times are served by snapping to the path's integrator steps, exactly as
    the path itself samples; nothing is interpolated.  The path must lie on
    the simplex, with no nan state (:class:`DomainError`), and be an RK4
    march at ``lam``, each stored step within 1e-12 of one RK4 step from the
    one before (:class:`NumericError`).
    """

    path: MeanFieldPath
    lam: float

    def __post_init__(self):
        object.__setattr__(self, "lam", check_rate(self.lam))
        stored = self.path.step_states
        sums = stored.sum(axis=1)
        # written so that a nan fails each check: every comparison with it
        # is False
        if not (np.max(np.abs(sums - 1.0)) <= 1e-6 and stored.min() >= -1e-6):
            raise DomainError("path states must lie on the simplex")
        marched = _rk4_stages(stored[:-1].T, self.lam, self.path.step)[0]
        if not (np.max(np.abs(marched - stored[1:].T), initial=0.0) <= 1e-12):
            raise NumericError("the stored mean-field path is not an RK4 march "
                               f"at the model's rate {self.lam:g}")

    @classmethod
    def from_path(cls, path: MeanFieldPath, lam: float):
        return cls(path=path, lam=lam)

    @property
    def n(self) -> int:
        return self.path.n


def _rk4_stages(u: np.ndarray, lam: float, h: float):
    """One mean-field RK4 step from every column of ``u`` (n, steps) at
    once: the next states and the list of the four stage states."""
    stages = []

    def field(x):
        stages.append(x)
        return vector_field(x, lam)

    return rk4_step(field, u, h), stages


def propagate_covariance(model: FluctuationModel,
                         sigma0) -> list[CovarianceState]:
    """Propagate the fluctuation covariance along the model's path.

    The moment ODE dS/dt = bS + Sb' + c is marched by RK4 at the path's own
    step, with b and c taken at the mean field's RK4 stage states, not
    interpolated.  Those stages do not depend on S, so they are re-marched
    from the stored path for every step at once.  S is re-symmetrized after
    every step; a drop of its smallest eigenvalue below -1e-6 aborts with
    :class:`NotPSD` at the first such step.  Output is aligned with the
    path's sample grid, each label served by the step that serves it in the
    path.
    """
    path, n, lam, step = model.path, model.n, model.lam, model.path.step
    grid, indices = path.grid, path.indices
    n_steps = int(indices[-1]) if len(indices) else 0
    s = np.asarray(sigma0, dtype=float).copy()
    if s.shape != (n, n):
        raise DomainError(f"initial covariance must be {n}x{n}, got {s.shape}")
    s = CovarianceState(sigma=s, time=0.0).sigma  # symmetric and PSD
    stages = _rk4_stages(path.step_states[:-1].T, lam, step)[1]

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


def run_sde_ensemble(model: FluctuationModel, v0, step: float, grid,
                     paths: int, base_seed: int) -> list[GaussianPath]:
    """Euler-Maruyama simulation of ``paths`` paths of the limiting SDE.

    One step: V <- V + b V step + psd_sqrt(c) sqrt(step) xi, with xi a
    standard normal vector.  ``v0`` is a vector, or None for the default
    point mass at zero.  Grid times are served by the nearest step, like
    every other grid in the package.  Step k takes b and c at the path's
    step nearest to ``k * step``; a grid that needs the mean field past the
    path's end raises :class:`DomainError`.

    Path ``i`` consumes exactly the stream ``rng_stream(base_seed, i)``: one
    standard normal per species per step, step-major.  Every path is marched
    at once; each path's normals are drawn ``_SDE_CHUNK`` steps at a time,
    which takes them from its stream in the same order as one draw, so the
    chunk size never changes a value.
    """
    if paths < 1:
        raise DomainError(f"need at least one path, got {paths}")
    grid, indices, n_steps = snap_grid(grid, step)
    if len(grid) and grid[0] < 0:
        raise DomainError("grid must be non-negative")
    n, path = model.n, model.path
    v0 = np.zeros(n) if v0 is None else np.asarray(v0, dtype=float)
    if v0.shape != (n,):
        raise DomainError(f"initial value must have shape ({n},), got {v0.shape}")
    nearest = np.rint(np.arange(n_steps) * step / path.step).astype(int)
    if n_steps and nearest[-1] >= len(path.step_states):
        raise DomainError(
            f"the SDE grid runs to t={n_steps * step:.6g}, past the end "
            f"t={(len(path.step_states) - 1) * path.step:.6g} of the "
            "model's mean-field path")
    u = path.step_states[nearest]
    drifts = drift_matrix(u, model.lam)
    roots = psd_sqrt(diffusion_matrix(u, model.lam))
    sqrt_step = math.sqrt(step)
    fills = [gen.standard_normal for gen in rng_streams(base_seed, 0, paths)]
    # one noise buffer, refilled for each chunk of steps
    normals = np.empty((paths, min(_SDE_CHUNK, n_steps), n))
    v = np.tile(v0, (paths, 1))
    values = np.empty((paths, len(indices), n))
    g = 0  # values[:, g] is V after indices[g] steps
    for k in range(n_steps + 1):
        while g < len(indices) and indices[g] == k:
            values[:, g, :] = v
            g += 1
        if k == n_steps:
            break
        j = k % _SDE_CHUNK
        if j == 0:
            rows = normals[:, :min(_SDE_CHUNK, n_steps - k)]
            for fill, row in zip(fills, rows):
                fill(out=row)
        v = (v + (v @ drifts[k].T) * step
             + (rows[:, j, :] @ roots[k].T) * sqrt_step)
    return [GaussianPath(grid=grid.copy(), values=x) for x in values]
