"""Statistical harness confronting simulated ensembles with the model's
limit behavior.

Four checks are provided:

* law-of-large-numbers scaling of the sup deviation between scaled counts
  and the deterministic limit (``lln_test``),
* Gaussian-fluctuation covariance at a fixed time against the propagated
  moment ODE (``clt_test``),
* the compensated-counting martingale identities: zero mean, quadratic
  variation equal to the accumulated intensity, orthogonality across
  reactions (``martingale_test``),
* exactness of the event engine: the first event of each replica of a
  logged ensemble against the closed-form competing-exponentials law
  (``gillespie_equivalence_test``).

Each check returns its report as a plain dict of JSON values (lists, not
arrays; Python floats, ints and bools, not numpy scalars), the dict that
``rpsim validate`` writes to ``<check>.json``, with the verdict under
``"pass"``.  Every report is a pure function of its inputs.  Every pass
threshold is configuration, not a theorem constant; reports carry a
calibration note saying exactly that.  The p-values are computed here with
``math`` and numpy, the KS one as twice the exact one-sided tail (tests
check both against scipy), so importing the package does not import scipy.
"""
from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields

import numpy as np

from .core import (
    DomainError,
    GridMismatch,
    InsufficientReplicas,
    ModelSpec,
    _named,
    check_fractions,
    check_rate,
    check_seed,
    check_species,
    counts_from_fractions,
)
from .fluctuation import CovarianceState, FluctuationModel, propagate_covariance
from .meanfield import MeanFieldPath, integrate
from .simulate import DEFAULT_MAX_EVENTS, Ensemble, _run, run_ensemble

__all__ = [
    "ValidationConfig",
    "lln_test",
    "clt_test",
    "martingale_test",
    "gillespie_equivalence_test",
    "run_validation",
    "zero_sum_projector",
    "CALIBRATION_NOTE",
]

CALIBRATION_NOTE = (
    "pass thresholds are test calibration, not limit-theorem constants; "
    "the underlying statements are qualitative convergence results"
)
GRID_SUP_NOTE = (
    "sup deviation is evaluated on the sample grid only, a lower bound of "
    "the continuous-time sup; grid density is the caller's choice"
)

_TIME_MATCH_TOL = 1e-9
# replicas per block of an LLN record's temporaries
_LLN_BLOCK = 64
# the most samples, in bytes, of the LLN populations that run in one lockstep
# (3.9 MB at the defaults): more populations run in fewer, wider steps, and
# each group's samples are held until its last ensemble is checked
_LLN_GROUP_BYTES = 8 * 2**20


def zero_sum_projector(n: int) -> np.ndarray:
    """Orthogonal projector onto the zero-sum subspace of R^n."""
    return np.eye(n) - np.full((n, n), 1.0 / n)


def _frobenius_zero_sum(a: np.ndarray, ref: np.ndarray) -> float:
    """Frobenius relative error between two matrices restricted to the
    zero-sum subspace (the full matrices are singular along (1,...,1))."""
    p = zero_sum_projector(len(ref))
    num = np.linalg.norm(p @ (a - ref) @ p)
    den = np.linalg.norm(p @ ref @ p)
    if den == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return float(num / den)


def _match_times(haystack: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Index of each needle in haystack, matched within a tight tolerance."""
    idx = np.searchsorted(haystack, needles)
    out = np.empty(len(needles), dtype=int)
    for pos, (i, t) in enumerate(zip(idx, needles)):
        best = -1
        for j in (i - 1, i, i + 1):
            if 0 <= j < len(haystack) and abs(haystack[j] - t) <= \
                    _TIME_MATCH_TOL * max(1.0, abs(t)):
                best = j
                break
        if best < 0:
            raise GridMismatch(f"time {t!r} not present in the reference grid")
        out[pos] = best
    return out


def _check_bounds(bounds: dict, *, p_threshold: str | None = None,
                  band: tuple[str, str] | None = None) -> None:
    """Raise :class:`DomainError`, naming the key, unless each value of
    ``bounds`` is positive and finite (the one named ``p_threshold`` in
    (0, 1)) and the (low, high) keys ``band`` name a non-empty band."""
    for name, value in bounds.items():
        if name == p_threshold:
            if not 0.0 < value < 1.0:
                raise DomainError(f"{name} must lie in (0, 1), got {value}")
        elif not (math.isfinite(value) and value > 0):
            raise DomainError(f"{name} must be positive and finite, "
                              f"got {value}")
    if band and not bounds[band[0]] < bounds[band[1]]:
        raise DomainError(f"{band[0]} must be below {band[1]}, got "
                          f"{bounds[band[0]]} and {bounds[band[1]]}")


# --------------------------------------------------------------------------
# law of large numbers
# --------------------------------------------------------------------------

def lln_test(ensembles, meanfield: MeanFieldPath, t: float, *,
             median_bound: float = 0.05,
             ratio_band: tuple[float, float] | None = (1.6, 2.5)) -> dict:
    """Sup-deviation scaling check across increasing population sizes.

    Per replica the statistic is max over grid times s <= t of the l1 norm
    of counts/M - u(s).  The report passes when medians strictly decrease in
    M and the largest-M median is below ``median_bound``; when
    ``ratio_band`` is given, successive-median ratios must lie inside it
    (the square-root-of-M heuristic for a 4x population step is about 2).

    ``ensembles`` may be any iterable, a generator say, in increasing M.
    It is consumed one ensemble at a time: each is checked against the
    first (same species count, rate, initial fractions and sample grid),
    its record is made, and it is dropped before the next is asked for, so
    a generator that runs ensembles on demand holds only those it has made
    and not yet handed over.  A negative or NaN ``t``, a bound that is not
    positive and finite or an empty band raises :class:`DomainError` before
    the first is asked for.
    """
    if not t >= 0:
        raise DomainError(f"lln time t={t} must be non-negative")
    bounds, band = {"median_bound": median_bound}, None
    if ratio_band is not None:
        band = ("ratio_band[0]", "ratio_band[1]")
        bounds.update(zip(band, ratio_band))
    _check_bounds(bounds, band=band)
    records = []
    first = grid = None
    for e in ensembles:
        if first is None:
            first, grid = e.spec, e.grid
            if len(grid) == 0 or grid[-1] < t - _TIME_MATCH_TOL:
                raise GridMismatch(f"grid does not cover [0, {t}]")
            mask = grid <= t + _TIME_MATCH_TOL
            mf_idx = _match_times(meanfield.grid, grid[mask])
            u = meanfield.step_states[meanfield.indices[mf_idx]]
        elif e.spec.total <= records[-1]["M"]:
            sizes = [r["M"] for r in records] + [e.spec.total]
            raise DomainError(
                f"populations must be strictly increasing, got {sizes}")
        if e.spec.n != first.n or e.spec.lam != first.lam:
            raise DomainError("ensembles must share species count and rate")
        drift = np.max(np.abs(e.spec.fractions - first.fractions))
        if drift > 1.0 / min(e.spec.total, first.total) + 1e-12:
            raise DomainError("ensembles must share initial fractions")
        if not np.array_equal(e.grid, grid):
            raise GridMismatch("all ensembles must share one sample grid")
        records.append(_lln_record(e, mask, u))
        del e           # not held while the next one is produced
    if first is None:
        raise DomainError("need at least one ensemble")
    medians = [r["median"] for r in records]
    ratios = [
        medians[i] / medians[i + 1] if medians[i + 1] > 0 else math.inf
        for i in range(len(medians) - 1)
    ]
    monotone = all(a > b for a, b in zip(medians, medians[1:]))
    in_band = ratio_band is None or all(
        ratio_band[0] <= r <= ratio_band[1] for r in ratios
    )
    return {
        "check": "lln",
        "pass": bool(monotone and medians[-1] < median_bound and in_band),
        "t": t, "median_bound": median_bound,
        "ratio_band": list(ratio_band) if ratio_band else None,
        "monotone": monotone, "ratios": ratios,
        "ratios_in_band": in_band, "records": records,
        "notes": [CALIBRATION_NOTE, GRID_SUP_NOTE],
    }


def _lln_record(e: Ensemble, mask: np.ndarray, u: np.ndarray) -> dict:
    """One population's record: the sup deviation of each replica over the
    grid times in ``mask``, against the limit states ``u`` there.  It is
    made a block of replicas at a time, so its temporaries stay small next
    to the samples."""
    devs = np.concatenate([
        np.abs(block[:, mask].astype(float) / e.spec.total - u)
        .sum(axis=2).max(axis=1)
        for block in np.split(e.samples,
                              range(_LLN_BLOCK, e.replicas, _LLN_BLOCK))])
    ordered = np.sort(devs)
    return {"M": e.spec.total, "replicas": e.replicas,
            "median": _median(ordered), "q95": _quantile(ordered, 0.95),
            "deviations": devs.tolist()}


# np.median and np.quantile import numpy.ma on first use; these take numpy's
# own formulas on a sorted array, and give its values bit for bit

def _median(ordered: np.ndarray) -> float:
    """``np.median`` of the sorted, non-empty ``ordered``: its middle value,
    or the mean of its two middle ones."""
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return float((ordered[mid - 1] + ordered[mid]) / 2)


def _quantile(ordered: np.ndarray, q: float) -> float:
    """``np.quantile(..., q)`` (the linear method) of the sorted, non-empty
    ``ordered``: numpy's interpolation between the two values around
    ``(len - 1) * q``, taken from the upper one when ``g >= 0.5``."""
    v = (len(ordered) - 1) * q
    lo = math.floor(v)
    g = v - lo
    a, b = ordered[lo], ordered[min(lo + 1, len(ordered) - 1)]
    diff = b - a
    return float(b - diff * (1 - g) if g >= 0.5 else a + diff * g)


# --------------------------------------------------------------------------
# central limit behavior
# --------------------------------------------------------------------------

_CLT_MIN_REPLICAS = 100


def clt_test(ensemble: Ensemble, meanfield: MeanFieldPath,
             covariance: CovarianceState, *,
             frobenius_bound: float = 0.15) -> dict:
    """Empirical fluctuation covariance against the propagated reference.

    Forms Y = (counts - M*u(t)) / sqrt(M) per replica at the covariance's
    time, compares the sample covariance to the reference: per-entry
    z-scores use the asymptotic standard error of a covariance entry, and
    the aggregate verdict is the Frobenius relative error restricted to the
    zero-sum subspace (the full matrices are singular along (1,...,1)).
    The bound must be positive and finite (:class:`DomainError`).
    """
    _check_bounds({"frobenius_bound": frobenius_bound})
    replicas = ensemble.replicas
    if replicas < _CLT_MIN_REPLICAS:
        raise InsufficientReplicas(
            f"need at least {_CLT_MIN_REPLICAS} replicas for a covariance "
            f"estimate, got {replicas}"
        )
    t = covariance.time
    g_idx = _match_times(ensemble.grid, np.array([t]))[0]
    u_idx = _match_times(meanfield.grid, np.array([t]))[0]
    u = meanfield.step_states[meanfield.indices[u_idx]]
    m = ensemble.spec.total

    x = ensemble.samples[:, g_idx, :].astype(float)
    y = (x - m * u[None, :]) / math.sqrt(m)
    mean = y.mean(axis=0)
    cov = np.cov(y, rowvar=False, ddof=1)
    if np.linalg.eigvalsh(0.5 * (cov + cov.T))[0] < -1e-9:
        raise DomainError("sample covariance unexpectedly indefinite")

    ref = covariance.sigma
    degenerate = float(np.max(np.abs(cov))) < 1e-12
    se = np.sqrt(
        (np.outer(np.diag(ref), np.diag(ref)) + ref**2) / replicas
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(
            se > 0,
            (cov - ref) / np.where(se > 0, se, 1.0),
            np.where(cov == ref, 0.0, math.inf),
        )
    frob = _frobenius_zero_sum(cov, ref)
    return {
        "check": "clt",
        "pass": bool(not degenerate and frob < frobenius_bound),
        "t": t, "M": m, "replicas": replicas, "degenerate": degenerate,
        "frobenius_rel_err": frob, "frobenius_bound": float(frobenius_bound),
        "empirical_mean": mean.tolist(), "empirical_cov": cov.tolist(),
        "reference_cov": ref.tolist(), "z_scores": z.tolist(),
        "notes": [CALIBRATION_NOTE],
    }


# --------------------------------------------------------------------------
# martingale structure
# --------------------------------------------------------------------------

def _z_check(kind: str, reactions: tuple[int, ...], values: np.ndarray,
             z_bound: float) -> dict:
    est = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(len(values)))
    if se == 0.0:
        z = 0.0 if est == 0.0 else math.inf
    else:
        z = est / se
    return {"kind": kind, "reactions": list(reactions), "estimate": est,
            "se": se, "z": z, "pass": bool(abs(z) <= z_bound)}


def martingale_test(ensemble: Ensemble, t: float, *,
                    z_bound: float = 3.0) -> dict:
    """Compensated-counter identities across an ensemble at time ``t``.

    With N_j the number of firings of reaction j by time t and T_j the
    accumulated intensity, the differences D_j = N_j - T_j must average to
    zero, D_j^2 - T_j must average to zero, and D_j * D_k must average to
    zero for j != k.  Each identity is exact in expectation; the test
    z-scores each sample mean against its Monte Carlo standard error, which
    takes at least two replicas (:class:`InsufficientReplicas`).  The
    bound must be positive and finite (:class:`DomainError`).
    """
    _check_bounds({"z_bound": z_bound})
    n = ensemble.spec.n
    replicas = ensemble.replicas
    if replicas < 2:
        raise InsufficientReplicas(
            f"need at least 2 replicas for a standard error, got {replicas}")
    counts, times = ensemble.replay(t)
    counts = counts.astype(float)
    d = counts - times

    checks = []
    for j in range(n):
        checks.append(_z_check("mean", (j,), d[:, j], z_bound))
    for j in range(n):
        checks.append(_z_check("qv", (j,), d[:, j] ** 2 - times[:, j], z_bound))
    for j in range(n):
        for k in range(j + 1, n):
            checks.append(_z_check("cross", (j, k), d[:, j] * d[:, k], z_bound))
    return {
        "check": "martingale", "pass": all(c["pass"] for c in checks),
        "t": t, "replicas": replicas, "z_bound": z_bound,
        "mean_jump_counts": counts.mean(axis=0).tolist(),
        "mean_internal_times": times.mean(axis=0).tolist(),
        "checks": checks, "notes": [CALIBRATION_NOTE],
    }


# --------------------------------------------------------------------------
# goodness-of-fit statistics and p-values
# --------------------------------------------------------------------------

# B_2k / (2k (2k-1)) for k = 8..1, the Stirling series of log m!
_STIRLING = (-2.955065359477124183e-2, 6.4102564102564102564e-3,
             -1.9175269175269175269e-3, 8.4175084175084175084e-4,
             -5.952380952380952381e-4, 7.9365079365079365079e-4,
             -2.7777777777777777778e-3, 8.3333333333333333333e-2)
_STIRLING_SMALL = np.array([0.0] + [
    math.lgamma(m + 1) - (m * math.log(m) - m + 0.5 * math.log(2 * math.pi * m))
    for m in range(1, 10)])


def _ks_statistic(times: np.ndarray, scale: float, horizon: float) -> float:
    """Two-sided KS distance between ``times`` and Exp(mean ``scale``)
    truncated at ``horizon``: the CDF F(s) / F(horizon), F(s) = 1 -
    exp(-s/scale).  Where F(horizon) is 1.0 it is within one machine
    epsilon of ``scipy.stats.kstest(times, "expon", args=(0, scale))``'s
    statistic, whose CDF rounds differently by an ulp."""
    cdf = -np.expm1(-np.append(np.sort(times), horizon) / scale)
    cdf = cdf[:-1] / cdf[-1]
    n = len(cdf)
    d_plus = (np.arange(1.0, n + 1) / n - cdf).max()
    d_minus = (cdf - np.arange(0.0, n) / n).max()
    return float(d_plus if d_plus > d_minus else d_minus)


def _stirling_remainder(m):
    """log m! - (m log m - m + log(2 pi m) / 2) for integers m >= 1 (an
    array): tabulated below 10, the Stirling series (error < 1e-17) above."""
    r = 1.0 / m
    return np.where(m < 10, _STIRLING_SMALL[np.minimum(m, 9).astype(int)],
                    r * np.polyval(_STIRLING, r * r))


def _smirnov(n: int, x: float) -> float:
    """P(D+_n >= x) for the one-sided KS statistic, 0 < x < 1, by the
    Birnbaum-Tingey sum x * sum_j C(n,j) (x+j/n)^(j-1) (1-x-j/n)^(n-j).

    Term j is summed as its log, written as the log of the binomial pmf at
    its own mean, C(n,j) (j/n)^j (1-j/n)^(n-j), plus j log1p(nx/j) and
    (n-j) log1p(-nx/(n-j)).  Each part is of order nx, not n log n, so the
    sum keeps about 13 digits up to n = 2 * 10^5.
    """
    c = n * x
    j = np.arange(1.0, math.ceil(n - c))     # the terms with n - j > nx
    k = n - j
    logs = (0.5 * np.log(n / (2 * math.pi * j * k))
            + _stirling_remainder(n) - _stirling_remainder(j)
            - _stirling_remainder(k)
            + j * np.log1p(c / j) + k * np.log1p(-c / k) - np.log(x + j / n))
    logs = np.append(logs, n * math.log1p(-x) - math.log(x))   # j = 0
    top = float(logs.max())
    return math.exp(math.log(x) + top + math.log(np.exp(logs - top).sum()))


def _kstwo_sf(n: int, x: float) -> float:
    """P(D_n >= x) for the two-sided one-sample KS statistic of n samples,
    bounded above by P(D+_n >= x) + P(D-_n >= x) = 2 P(D+_n >= x).

    The bound is exact for x >= 1/2, where the two tails are disjoint, and
    is ``scipy.stats.kstwo.sf`` wherever scipy takes it too (n x^2 past 4,
    or past 2.2 for n > 140).  Elsewhere it lies above scipy's, by at most
    7.8e-7 where either is 0.05 or less.  Every sample has D_n >= 1/(2n).
    """
    if x >= 1.0:
        return 0.0
    if n * x <= 0.5:
        return 1.0
    return min(1.0, 2 * _smirnov(n, x))


def _chi2_sf(x: float, k: int) -> float:
    """P(X >= x) for X chi-square with k degrees of freedom: the regularised
    upper incomplete gamma Q(k/2, x/2) in closed form.  With y = x/2 it is
    sum_{i < k/2} e^-y y^i / i! for even k, and erfc(sqrt y) plus
    sum_{i < (k-1)/2} e^-y y^(i+1/2) / Gamma(i+3/2) for odd k."""
    if x <= 0.0:
        return 1.0
    y = 0.5 * x
    half = 0.5 * (k % 2)
    total = math.erfc(math.sqrt(y)) if k % 2 else 0.0
    for i in range(k // 2):
        total += math.exp((i + half) * math.log(y) - y
                          - math.lgamma(i + half + 1))
    return total


# --------------------------------------------------------------------------
# exactness of the event engine
# --------------------------------------------------------------------------

def gillespie_equivalence_test(ensemble: Ensemble, t: float, *,
                               p_threshold: float = 0.01) -> dict:
    """First-event law of the event engine against closed-form expectations.

    Each replica of the logged ``ensemble`` gives its first event by ``t``
    (``t`` takes ``ensemble.check_replay``'s rule), or is censored.  From
    the fixed initial state the first-event time must be exponential with
    the summed reaction rate R, truncated at ``t``, and the fired reaction
    categorical with probabilities proportional to the rates: KS and
    chi-square at the p threshold, in (0, 1).  An absorbing start raises
    :class:`DomainError`, and no event by ``t`` :class:`InsufficientReplicas`.
    """
    _check_bounds({"p_threshold": p_threshold}, p_threshold="p_threshold")
    ensemble.check_replay(t)
    spec = ensemble.spec
    x = np.array(spec.initial, dtype=float)
    rates = spec.lam / spec.total * x * np.roll(x, -1)
    total_rate = float(rates.sum())
    if total_rate == 0.0:
        raise DomainError("all reaction rates are zero in the initial state")
    off = ensemble.event_offsets
    first = off[:-1][off[:-1] < off[1:]]        # replicas that fired at all
    first = first[ensemble.event_times[first] <= t]
    samples = len(first)
    if samples == 0:
        raise InsufficientReplicas(f"no replica fired an event by t={t:g}")
    ks_stat = _ks_statistic(ensemble.event_times[first], 1.0 / total_rate, t)
    ks_p = _kstwo_sf(samples, ks_stat)
    observed = np.bincount(ensemble.event_reactions[first], minlength=spec.n)
    active = rates > 0
    expected = samples * rates[active] / total_rate
    chi2_stat = float(np.sum((observed[active] - expected) ** 2 / expected))
    chi2_p = _chi2_sf(chi2_stat, int(active.sum()) - 1)
    return {
        "check": "gillespie_equivalence",
        "pass": bool(ks_p > p_threshold and chi2_p > p_threshold),
        "t": t, "samples": samples, "censored": ensemble.replicas - samples,
        "model": spec.to_dict(), "total_rate": total_rate,
        "expected_probs": (rates / total_rate).tolist(),
        "observed_counts": observed.tolist(),
        "ks": {"stat": ks_stat, "pvalue": ks_p},
        "chi2": {"stat": chi2_stat, "pvalue": chi2_p},
        "p_threshold": p_threshold, "notes": [CALIBRATION_NOTE],
    }


# --------------------------------------------------------------------------
# configuration-driven orchestration
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationConfig:
    """Everything the ``validate`` subcommand needs, with documented defaults.

    Thresholds live here on purpose: they are calibration knobs, not
    constants of the theory.
    """

    # [model]
    n: int = 3
    lam: float = 1.0
    fractions: tuple[float, ...] = ()     # default: symmetric

    # [run]
    base_seed: int = 42

    # [validate]
    lln_populations: tuple[int, ...] = (100, 400, 1600, 6400)
    lln_replicas: int = 200
    lln_time: float = 2.0
    lln_grid_points: int = 201
    lln_median_bound: float = 0.05
    lln_ratio_low: float = 1.6
    lln_ratio_high: float = 2.5
    clt_population: int = 1000
    clt_replicas: int = 2000
    clt_time: float = 1.0
    clt_frobenius_bound: float = 0.15
    martingale_population: int = 100
    martingale_replicas: int = 5000
    martingale_time: float = 1.0
    martingale_z_bound: float = 3.0
    gillespie_p_threshold: float = 0.01

    def model_fractions(self) -> np.ndarray:
        if self.fractions:
            return np.asarray(self.fractions, dtype=float)
        return np.full(self.n, 1.0 / self.n)

    @classmethod
    def from_ini(cls, path) -> "ValidationConfig":
        """Read a config file: ``[model]``, ``[run]`` and ``[validate]``
        sections whose options are the field names (``lambda`` for ``lam``).
        The file is UTF-8 text, and a value is read as written (``%`` is no
        interpolation).  A file that is not UTF-8 or does not parse as INI
        (a repeated section or option, no section header), an unknown
        section or option, or a value that does not parse, is a
        :class:`DomainError`."""
        parser = configparser.ConfigParser(interpolation=None)
        try:
            read = parser.read(path, encoding="utf-8")
        except (configparser.Error, UnicodeDecodeError) as exc:
            # configparser's messages may span lines; the CLI prints one
            raise DomainError(f"{path}: not a valid config file: "
                              + " ".join(str(exc).split())) from None
        if not read:
            raise DomainError(f"could not read config file {path!r}")

        # field types are annotation strings here (postponed annotations)
        def value(section, option, type_name):
            text = parser.get(section, option)
            cast = int if type_name.startswith(("int", "tuple[int")) else float
            try:
                if type_name.startswith("tuple"):
                    return tuple(cast(v) for v in text.replace(",", " ").split())
                return cast(text)
            except ValueError:
                raise DomainError(
                    f"[{section}] {option}: cannot parse {text!r} as {type_name}"
                ) from None

        known = {
            (_INI_SECTIONS.get(f.name, "validate"),
             "lambda" if f.name == "lam" else f.name): f
            for f in fields(cls)
        }
        for section in parser.sections():
            if section not in ("model", "run", "validate"):
                raise DomainError(f"[{section}]: unknown section")
            for option in parser.options(section):
                if (section, option) not in known:
                    raise DomainError(f"[{section}] {option}: unknown option")

        kw = {}
        for (section, option), f in known.items():
            if parser.has_option(section, option):
                kw[f.name] = value(section, option, f.type)
        return cls(**kw)


# config-file section of each ValidationConfig field outside [validate]
_INI_SECTIONS = {"n": "model", "lam": "model", "fractions": "model",
                 "base_seed": "run"}


# deterministic sub-seed offsets so the checks' ensembles use unrelated streams
_SEED_LLN = 1          # + index of the population in lln_populations
_SEED_CLT = 101
_SEED_MARTINGALE = 102


def _check_config(config: ValidationConfig
                  ) -> tuple[list[ModelSpec], np.ndarray]:
    """Check every setting before any ensemble runs, and return the model of
    each ensemble in run order (each LLN population, CLT, martingale) and
    the LLN check's sample grid.

    Raises :class:`DomainError` for a base seed that is not a non-negative
    integer; a ``[model] lambda`` that is not a positive finite collision
    rate, a ``[model] n`` outside 3..``MAX_SPECIES`` (checked before
    anything of size n is built), or ``[model] fractions`` that are not
    ``n`` long or not finite and non-negative (each message names the key);
    a non-positive count or replica count, LLN populations that do not
    strictly increase or are more than 100 (so that no two ensembles share
    a base seed), fewer than two LLN grid points or more than memory holds, a
    time or pass bound that is not positive and finite, an LLN ratio band
    whose low end is not below its high end, a p threshold outside (0, 1),
    or a martingale start from which no reaction can fire;
    :class:`~rpsim.core.NormalizationError`, naming the key, for ``[model]
    fractions`` that do not sum to 1;
    :class:`InsufficientReplicas` for fewer CLT or martingale replicas
    than :func:`clt_test` or :func:`martingale_test` needs; and whatever :class:`~rpsim.core.ModelSpec`
    raises for a model as it is built.
    """
    check_seed(config.base_seed)
    _named("[model] lambda", check_rate, config.lam)
    _named("[model] n", check_species, config.n)
    for name in ("lln_replicas", "clt_replicas", "martingale_replicas",
                 "clt_population", "martingale_population"):
        if getattr(config, name) < 1:
            raise DomainError(f"{name} must be positive, "
                              f"got {getattr(config, name)}")
    pops = config.lln_populations
    if not pops or pops[0] < 1 or any(b <= a for a, b in zip(pops, pops[1:])):
        raise DomainError("lln_populations must be positive and strictly "
                          f"increasing, got {pops}")
    if len(pops) > _SEED_CLT - _SEED_LLN:
        raise DomainError(
            f"lln_populations holds at most {_SEED_CLT - _SEED_LLN} sizes, "
            f"got {len(pops)}: population k runs on base seed + "
            f"{_SEED_LLN} + k, and base seed + {_SEED_CLT} is the CLT "
            "check's")
    if config.lln_grid_points < 2:
        raise DomainError("lln_grid_points must be at least 2, "
                          f"got {config.lln_grid_points}")
    # the times take the same rule as the bounds
    _check_bounds({name: getattr(config, name) for name in (
        "lln_time", "clt_time", "martingale_time", "lln_median_bound",
        "lln_ratio_low", "lln_ratio_high", "clt_frobenius_bound",
        "martingale_z_bound", "gillespie_p_threshold")},
        p_threshold="gillespie_p_threshold",
        band=("lln_ratio_low", "lln_ratio_high"))
    try:
        grid = np.linspace(0.0, config.lln_time, config.lln_grid_points)
    except (MemoryError, ValueError):   # ValueError: past numpy's size limit
        raise DomainError(f"lln_grid_points {config.lln_grid_points}, too "
                          "many sample times to hold in memory") from None
    if config.clt_replicas < _CLT_MIN_REPLICAS:
        raise InsufficientReplicas(
            f"clt_replicas must be at least {_CLT_MIN_REPLICAS}, "
            f"got {config.clt_replicas}")
    if config.martingale_replicas < 2:
        raise InsufficientReplicas(
            "martingale_replicas must be at least 2, "
            f"got {config.martingale_replicas}")

    if config.fractions and len(config.fractions) != config.n:
        raise DomainError(f"[model] fractions has {len(config.fractions)} "
                          f"values but [model] n is {config.n}")
    fractions = _named("[model] fractions", check_fractions,
                       config.model_fractions())
    specs = [ModelSpec(n=config.n, lam=config.lam, total=m,
                       initial=counts_from_fractions(fractions, m))
             for m in (*pops, config.clt_population,
                       config.martingale_population)]
    if specs[-1].initial_total_rate() == 0.0:
        raise DomainError(
            f"martingale_population = {config.martingale_population} and "
            f"[model] fractions give the counts {specs[-1].initial}, from "
            "which no reaction can fire")
    return specs, grid


def _lln_ensembles(config: ValidationConfig, specs: list, grid: np.ndarray):
    """The LLN populations' ensembles, run in groups as they are asked for:
    each group in one lockstep, as many populations as keep its samples
    (R·G·n int64 values a population) within ``_LLN_GROUP_BYTES``, and at
    least one.  A failure names the population by its index in
    ``lln_populations``."""
    per = max(1, _LLN_GROUP_BYTES
              // (config.lln_replicas * len(grid) * config.n * 8))
    for k in range(0, len(specs), per):
        group = specs[k:k + per]
        labels = range(k, k + len(group))
        # yield from binds no name, so a finished group is not held
        yield from _run(group, config.lln_replicas, config.lln_time, grid,
                        [config.base_seed + _SEED_LLN + j for j in labels],
                        False, DEFAULT_MAX_EVENTS, labels)


def run_validation(config: ValidationConfig, *, echo=None) -> dict[str, dict]:
    """Run all four checks from one configuration.

    Returns their reports, ``{"lln": ..., "clt": ..., "martingale": ...,
    "gillespie": ...}``.  ``echo`` (e.g. ``print``) receives one status
    line per check.  Every setting is checked (see :func:`_check_config`),
    and the reference mean fields and covariance are built, before any
    ensemble runs.
    """
    (*lln_specs, clt_spec, mart_spec), grid = _check_config(config)
    say = echo or (lambda *_: None)
    reports = {}
    t = config.clt_time
    mf = _named("lln_time", integrate, config.model_fractions(), config.lam,
                t_end=config.lln_time, grid=grid)
    # from the exact finite-M fractions, so Y(0) = 0
    mf_clt = _named("clt_time", integrate, clt_spec.fractions, config.lam,
                    t_end=t, grid=np.array([0.0, t]))
    model = FluctuationModel.from_path(mf_clt, config.lam)
    sigma_t = propagate_covariance(model, np.zeros((config.n, config.n)))[-1]

    # -- law of large numbers -----------------------------------------------
    rep = reports["lln"] = lln_test(
        _lln_ensembles(config, lln_specs, grid), mf, config.lln_time,
        median_bound=config.lln_median_bound,
        ratio_band=(config.lln_ratio_low, config.lln_ratio_high))
    say(f"lln: {'PASS' if rep['pass'] else 'FAIL'} "
        f"(medians={[round(r['median'], 4) for r in rep['records']]})")

    # -- fluctuation covariance ----------------------------------------------
    ensemble = run_ensemble(clt_spec, config.clt_replicas, t,
                            np.array([0.0, t]), config.base_seed + _SEED_CLT,
                            record_events=False)
    rep = reports["clt"] = clt_test(
        ensemble, mf_clt, sigma_t, frobenius_bound=config.clt_frobenius_bound)
    del ensemble        # free its samples before the martingale run
    say(f"clt: {'PASS' if rep['pass'] else 'FAIL'} "
        f"(frobenius={rep['frobenius_rel_err']:.4f})")

    # -- martingale structure and engine exactness ----------------------------
    t = config.martingale_time
    ensemble = run_ensemble(mart_spec, config.martingale_replicas, t,
                            np.array([t]), config.base_seed + _SEED_MARTINGALE,
                            record_events=True)
    rep = reports["martingale"] = martingale_test(
        ensemble, t, z_bound=config.martingale_z_bound)
    worst = max(abs(c["z"]) for c in rep["checks"])
    say(f"martingale: {'PASS' if rep['pass'] else 'FAIL'} "
        f"(worst |z|={worst:.2f})")
    rep = reports["gillespie"] = gillespie_equivalence_test(
        ensemble, t, p_threshold=config.gillespie_p_threshold)
    say(f"gillespie_equivalence: {'PASS' if rep['pass'] else 'FAIL'} "
        f"(KS p={rep['ks']['pvalue']:.4f}, "
        f"chi2 p={rep['chi2']['pvalue']:.4f})")
    return reports
