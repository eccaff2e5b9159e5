"""Gaussian fluctuation machinery around the mean-field path.

Centered and rescaled by sqrt(M), the deviation of the finite-population
process from its deterministic limit converges to a linear Gaussian diffusion

    dV(t) = b(t) V(t) dt + c(t)^{1/2} dW(t),

where b(t) is the Jacobian of the cyclic vector field along u(t) and c(t)
collects the reaction intensities in a cyclic band (reaction j, at intensity
lam*u_j*u_{j+1}, contributes that intensity times the outer product of its
stoichiometric vector e_j - e_{j+1}).  This module builds b and c, and both
the covariance and the SDE sampler step by the exact transition of that
linear SDE between grid times, V(t_{g+1}) = Phi_g V(t_g) + Q_g^{1/2} xi_g
(dPhi/dt = b Phi from I, dQ/dt = bQ + Qb' + c from 0), taking b and c from
one stored mean-field march, which :class:`FluctuationModel` checks once,
when it is made.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (DomainError, NotPSD, NumericError, check_rate, check_seed,
                   rng_streams)
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

_PSD_EIG_TOL = 1e-9
_SYMMETRY_TOL = 1e-12
# most steps in one block of the transition march, and so in its loop
_BLOCK = 64


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
    :class:`DomainError`.  Eigenvalues from -1e-9 up to n * eps times the
    largest are rounding noise and set to zero, so R keeps the null vectors
    of c; anything lower raises :class:`NotPSD`.  The result R is
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
    noise = w.shape[-1] * np.finfo(float).eps * np.maximum(w[..., -1:], 0.0)
    w = np.where(w > noise, w, 0.0)
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


def _transitions(model: FluctuationModel, ends):
    """The transitions ``(Phi, Q)`` over each interval between consecutive
    path-step indices ``ends``, as two stacks; an empty interval's is (I, 0).

    Phi and Q are marched by RK4 at the path's step, with b and c at the
    mean field's RK4 stage states, in blocks of at most ``_BLOCK`` steps
    that never cross an end.  Step s of every block is taken at once; a
    block that has run out takes zero coefficients, which leave it as it is.
    Each interval folds its blocks in order, ``(Phi, Q) <- (Phi_b Phi,
    Phi_b Q Phi_b' + Q_b)``.  A Q with an eigenvalue below -1e-9, after
    symmetrizing, raises :class:`NotPSD` naming the end of its interval.
    """
    n, lam, h = model.n, model.lam, model.path.step
    firsts = [np.arange(a, b, _BLOCK) for a, b in zip(ends[:-1], ends[1:])]
    counts = np.array([len(f) for f in firsts], dtype=int)
    starts = np.concatenate([np.zeros(0, dtype=int)] + firsts)
    lengths = np.minimum(np.repeat(ends[1:], counts) - starts, _BLOCK)
    stages = _rk4_stages(model.path.step_states[:ends[-1]].T, lam, h)[1]
    x = np.zeros((len(starts), 2, n, n))   # x[:, 0] is Phi, x[:, 1] is Q
    x[:, 0] = np.eye(n)

    def field(x):
        # rk4_step calls this once per stage, in stage order: each call
        # takes that stage's b and c, for every block
        b, c = next(coefficients)
        y = b[:, None] @ x
        # Q stays exactly symmetric, so Q b' is the transpose of b Q
        y[:, 1] = y[:, 1] + y[:, 1].swapaxes(-1, -2) + c
        return y

    for s in range(int(lengths.max(initial=0))):
        live = lengths > s
        u = np.stack([st[:, np.where(live, starts + s, starts)].T
                      for st in stages])
        on = live[:, None, None]
        coefficients = zip(drift_matrix(u, lam) * on,
                           diffusion_matrix(u, lam) * on)
        x = rk4_step(field, x, h)

    phi = np.repeat(np.eye(n)[None], len(counts), axis=0)
    q = np.zeros_like(phi)
    block = np.cumsum(counts) - counts    # each interval's first block
    for j in range(int(counts.max(initial=0))):
        g = np.flatnonzero(counts > j)
        pb, qb = x[block[g] + j, 0], x[block[g] + j, 1]
        phi[g] = pb @ phi[g]
        q[g] = pb @ q[g] @ pb.swapaxes(-1, -2) + qb
    q = 0.5 * (q + q.swapaxes(-1, -2))
    low = np.linalg.eigvalsh(q)[:, 0]
    bad = np.flatnonzero(low < -_PSD_EIG_TOL)
    if len(bad):
        raise NotPSD(f"transition covariance eigenvalue {low[bad[0]]:.3e} "
                     f"below -{_PSD_EIG_TOL} over the steps to "
                     f"t={ends[bad[0] + 1] * h:.6g}")
    return phi, q


def propagate_covariance(model: FluctuationModel,
                         sigma0) -> list[CovarianceState]:
    """Propagate the fluctuation covariance along the model's path.

    The moment ODE dS/dt = bS + Sb' + c is solved from grid time to grid
    time by the interval's transition, S <- Phi S Phi' + Q, symmetrized.
    Output is aligned with the path's sample grid, each label served by the
    step that serves it in the path.  Every Q and every reported state (a
    :class:`CovarianceState`) must keep its smallest eigenvalue at or above
    -1e-9, or :class:`NotPSD` is raised; S stays PSD whenever S and Q are.
    """
    path, n = model.path, model.n
    s = np.asarray(sigma0, dtype=float).copy()
    if s.shape != (n, n):
        raise DomainError(f"initial covariance must be {n}x{n}, got {s.shape}")
    s = CovarianceState(sigma=s, time=0.0).sigma  # symmetric and PSD
    out = []
    phis, qs = _transitions(model, np.concatenate(([0], path.indices)))
    for phi, q, t in zip(phis, qs, path.grid.tolist()):
        s = phi @ s @ phi.T + q
        s = 0.5 * (s + s.T)
        out.append(CovarianceState(sigma=s, time=t))
    return out


def run_sde_ensemble(model: FluctuationModel, v0, step: float, grid,
                     paths: int, base_seed: int) -> list[GaussianPath]:
    """Sample ``paths`` paths of the limiting SDE, exact in law on ``grid``
    up to the RK4 march of the transitions.

    From grid time to grid time, V <- Phi V + psd_sqrt(Q) xi, with xi
    standard normal and (Phi, Q) the interval's transition, the one
    :func:`propagate_covariance` steps by; the first interval starts at
    time 0.  ``step`` must be the path's step (:class:`DomainError`
    naming both otherwise), and each grid time is served by the nearest
    path step.  ``v0`` is a finite vector, or None for zero.  A negative
    grid time, a grid past the path's end, or a ``paths`` that is not a
    positive integer raises :class:`DomainError`; a Q with an eigenvalue
    below -1e-9 raises :class:`NotPSD`.

    Path ``i`` consumes exactly the stream ``rng_stream(base_seed, i)``: n
    standard normals per grid time, grid-major, in one fill.
    """
    paths = check_seed(paths, "path count")
    if paths < 1:
        raise DomainError(f"need at least one path, got {paths}")
    n, path = model.n, model.path
    if step != path.step:
        raise DomainError(f"SDE step {step} differs from the step {path.step} "
                          "of the model's mean-field path")
    grid, indices, n_steps = snap_grid(grid, step)
    if len(grid) and grid[0] < 0:
        raise DomainError("grid must be non-negative")
    v0 = np.zeros(n) if v0 is None else np.asarray(v0, dtype=float)
    if v0.shape != (n,):
        raise DomainError(f"initial value must have shape ({n},), got {v0.shape}")
    if not np.all(np.isfinite(v0)):
        raise DomainError("initial value has a non-finite entry")
    if n_steps >= len(path.step_states):
        raise DomainError(f"the SDE grid runs to t={n_steps * step:.6g}, past "
                          f"the end t={(len(path.step_states) - 1) * step:.6g}"
                          " of the model's mean-field path")
    phis, qs = _transitions(model, np.concatenate(([0], indices)))
    roots = psd_sqrt(qs)
    normals = np.empty((paths, len(indices), n))
    for gen, row in zip(rng_streams(base_seed, 0, paths), normals):
        gen.standard_normal(out=row)
    v = np.repeat(v0[:, None], paths, axis=1)     # (n, paths)
    values = np.empty((paths, len(indices), n))
    for g, (phi, root) in enumerate(zip(phis, roots)):
        v = phi @ v + root @ normals[:, g].T
        values[:, g] = v.T
    return [GaussianPath(grid=grid.copy(), values=x) for x in values]
