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
* exactness of the event engine against the closed-form competing
  exponentials law for the first event (``gillespie_equivalence_test``).

Every report is a pure function of its inputs.  Every pass threshold is
configuration, not a theorem constant; reports carry a calibration note
saying exactly that.
"""
from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields

import numpy as np
from scipy import stats

from .core import (
    DomainError,
    GridMismatch,
    InsufficientReplicas,
    MissingEventLog,
    ModelSpec,
    SimState,
    counts_from_fractions,
    rng_stream,
    validate_spec,
)
from .fluctuation import CovarianceState, FluctuationModel, propagate_covariance
from .meanfield import DEFAULT_STEP, MeanFieldPath, integrate
from .simulate import Absorbed, Ensemble, next_event, run_ensemble

__all__ = [
    "LlnRecord",
    "LlnReport",
    "CltReport",
    "MartingaleCheck",
    "MartingaleReport",
    "GillespieReport",
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


# --------------------------------------------------------------------------
# law of large numbers
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LlnRecord:
    M: int
    replicas: int
    median: float
    q95: float
    deviations: np.ndarray


@dataclass(frozen=True, eq=False)
class LlnReport:
    t: float
    records: tuple[LlnRecord, ...]
    ratios: tuple[float, ...]
    monotone: bool
    median_bound: float
    ratio_band: tuple[float, float] | None
    ratios_in_band: bool
    passed: bool
    notes: tuple[str, ...] = (CALIBRATION_NOTE, GRID_SUP_NOTE)

    def to_dict(self) -> dict:
        return {
            "check": "lln",
            "pass": bool(self.passed),
            "t": self.t,
            "median_bound": self.median_bound,
            "ratio_band": list(self.ratio_band) if self.ratio_band else None,
            "monotone": bool(self.monotone),
            "ratios": [float(r) for r in self.ratios],
            "ratios_in_band": bool(self.ratios_in_band),
            "records": [
                {
                    "M": r.M,
                    "replicas": r.replicas,
                    "median": float(r.median),
                    "q95": float(r.q95),
                    "deviations": [float(d) for d in r.deviations],
                }
                for r in self.records
            ],
            "notes": list(self.notes),
        }


def lln_test(ensembles, meanfield: MeanFieldPath, t: float, *,
             median_bound: float = 0.05,
             ratio_band: tuple[float, float] | None = (1.6, 2.5)) -> LlnReport:
    """Sup-deviation scaling check across increasing population sizes.

    Per replica the statistic is max over grid times s <= t of the l1 norm
    of counts/M - u(s).  The report passes when medians strictly decrease in
    M and the largest-M median is below ``median_bound``; when
    ``ratio_band`` is given, successive-median ratios must lie inside it
    (the square-root-of-M heuristic for a 4x population step is about 2).
    """
    ensembles = list(ensembles)
    if not ensembles:
        raise DomainError("need at least one ensemble")
    sizes = [e.spec.total for e in ensembles]
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise DomainError(f"populations must be strictly increasing, got {sizes}")
    first = ensembles[0].spec
    grid = ensembles[0].grid
    for e in ensembles:
        if e.spec.n != first.n or e.spec.lam != first.lam:
            raise DomainError("ensembles must share species count and rate")
        drift = np.max(np.abs(e.spec.fractions - first.fractions))
        if drift > 1.0 / min(e.spec.total, first.total) + 1e-12:
            raise DomainError("ensembles must share initial fractions")
        if not np.array_equal(e.grid, grid):
            raise GridMismatch("all ensembles must share one sample grid")
    if len(grid) == 0 or grid[-1] < t - _TIME_MATCH_TOL:
        raise GridMismatch(f"grid does not cover [0, {t}]")

    mask = grid <= t + _TIME_MATCH_TOL
    used = grid[mask]
    mf_idx = _match_times(meanfield.grid, used)
    u = np.stack([meanfield.states[i].u for i in mf_idx])

    records = []
    for e in ensembles:
        x = e.sample_stack()[:, mask, :].astype(float) / e.spec.total
        devs = np.abs(x - u[None, :, :]).sum(axis=2).max(axis=1)
        records.append(
            LlnRecord(
                M=e.spec.total,
                replicas=e.replicas,
                median=float(np.median(devs)),
                q95=float(np.quantile(devs, 0.95)),
                deviations=devs,
            )
        )
    medians = [r.median for r in records]
    ratios = tuple(
        medians[i] / medians[i + 1] if medians[i + 1] > 0 else math.inf
        for i in range(len(medians) - 1)
    )
    monotone = all(a > b for a, b in zip(medians, medians[1:]))
    in_band = ratio_band is None or all(
        ratio_band[0] <= r <= ratio_band[1] for r in ratios
    )
    passed = monotone and medians[-1] < median_bound and in_band
    return LlnReport(
        t=t, records=tuple(records), ratios=ratios, monotone=monotone,
        median_bound=median_bound, ratio_band=ratio_band,
        ratios_in_band=in_band, passed=passed,
    )


# --------------------------------------------------------------------------
# central limit behavior
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CltReport:
    t: float
    M: int
    replicas: int
    empirical_mean: np.ndarray
    empirical_cov: np.ndarray
    reference_cov: np.ndarray
    z_scores: np.ndarray
    frobenius_rel_err: float
    frobenius_bound: float
    degenerate: bool
    passed: bool
    notes: tuple[str, ...] = (CALIBRATION_NOTE,)

    def to_dict(self) -> dict:
        return {
            "check": "clt",
            "pass": bool(self.passed),
            "t": self.t,
            "M": self.M,
            "replicas": self.replicas,
            "degenerate": bool(self.degenerate),
            "frobenius_rel_err": float(self.frobenius_rel_err),
            "frobenius_bound": float(self.frobenius_bound),
            "empirical_mean": self.empirical_mean.tolist(),
            "empirical_cov": self.empirical_cov.tolist(),
            "reference_cov": self.reference_cov.tolist(),
            "z_scores": self.z_scores.tolist(),
            "notes": list(self.notes),
        }


def clt_test(ensemble: Ensemble, meanfield: MeanFieldPath,
             covariance: CovarianceState, *,
             frobenius_bound: float = 0.15) -> CltReport:
    """Empirical fluctuation covariance against the propagated reference.

    Forms Y = (counts - M*u(t)) / sqrt(M) per replica at the covariance's
    time, compares the sample covariance to the reference: per-entry
    z-scores use the asymptotic standard error of a covariance entry, and
    the aggregate verdict is the Frobenius relative error restricted to the
    zero-sum subspace (the full matrices are singular along (1,...,1)).
    """
    replicas = ensemble.replicas
    if replicas < 100:
        raise InsufficientReplicas(
            f"need at least 100 replicas for a covariance estimate, got {replicas}"
        )
    t = covariance.time
    g_idx = _match_times(ensemble.grid, np.array([t]))[0]
    u_idx = _match_times(meanfield.grid, np.array([t]))[0]
    u = meanfield.states[u_idx].u
    m = ensemble.spec.total

    x = ensemble.sample_stack()[:, g_idx, :].astype(float)
    y = (x - m * u[None, :]) / math.sqrt(m)
    mean = y.mean(axis=0)
    cov = np.cov(y, rowvar=False, ddof=1)
    cov = np.atleast_2d(cov)
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
    passed = (not degenerate) and frob < frobenius_bound
    return CltReport(
        t=t, M=m, replicas=replicas, empirical_mean=mean, empirical_cov=cov,
        reference_cov=ref, z_scores=z, frobenius_rel_err=frob,
        frobenius_bound=frobenius_bound, degenerate=degenerate, passed=passed,
    )


# --------------------------------------------------------------------------
# martingale structure
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MartingaleCheck:
    kind: str                      # "mean", "qv", or "cross"
    reactions: tuple[int, ...]
    estimate: float
    se: float
    z: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "reactions": list(self.reactions),
            "estimate": float(self.estimate),
            "se": float(self.se),
            "z": float(self.z),
            "pass": bool(self.passed),
        }


@dataclass(frozen=True, eq=False)
class MartingaleReport:
    t: float
    replicas: int
    mean_jump_counts: np.ndarray
    mean_internal_times: np.ndarray
    checks: tuple[MartingaleCheck, ...]
    z_bound: float
    passed: bool
    notes: tuple[str, ...] = (CALIBRATION_NOTE,)

    def to_dict(self) -> dict:
        return {
            "check": "martingale",
            "pass": bool(self.passed),
            "t": self.t,
            "replicas": self.replicas,
            "z_bound": self.z_bound,
            "mean_jump_counts": self.mean_jump_counts.tolist(),
            "mean_internal_times": self.mean_internal_times.tolist(),
            "checks": [c.to_dict() for c in self.checks],
            "notes": list(self.notes),
        }


def _z_check(kind: str, reactions: tuple[int, ...], values: np.ndarray,
             z_bound: float) -> MartingaleCheck:
    est = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(len(values))) if len(values) > 1 \
        else 0.0
    if se == 0.0:
        z = 0.0 if est == 0.0 else math.inf
    else:
        z = est / se
    return MartingaleCheck(
        kind=kind, reactions=reactions, estimate=est, se=se, z=z,
        passed=abs(z) <= z_bound,
    )


def martingale_test(ensemble: Ensemble, t: float, *,
                    z_bound: float = 3.0) -> MartingaleReport:
    """Compensated-counter identities across an ensemble at time ``t``.

    With N_j the number of firings of reaction j by time t and T_j the
    accumulated intensity, the differences D_j = N_j - T_j must average to
    zero, D_j^2 - T_j must average to zero, and D_j * D_k must average to
    zero for j != k.  Each identity is exact in expectation; the test
    z-scores each sample mean against its Monte Carlo standard error.
    """
    n = ensemble.spec.n
    replicas = ensemble.replicas
    counts = np.empty((replicas, n))
    times = np.empty((replicas, n))
    for i, traj in enumerate(ensemble.trajectories):
        if not traj.has_event_log:
            raise MissingEventLog(
                f"replica {i} was run in samples-only mode; martingale checks "
                "need the event log"
            )
        counts[i] = traj.jump_counts(t)
        times[i] = traj.internal_times(t)
    d = counts - times

    checks = []
    for j in range(n):
        checks.append(_z_check("mean", (j,), d[:, j], z_bound))
    for j in range(n):
        checks.append(_z_check("qv", (j,), d[:, j] ** 2 - times[:, j], z_bound))
    for j in range(n):
        for k in range(j + 1, n):
            checks.append(_z_check("cross", (j, k), d[:, j] * d[:, k], z_bound))
    return MartingaleReport(
        t=t, replicas=replicas,
        mean_jump_counts=counts.mean(axis=0),
        mean_internal_times=times.mean(axis=0),
        checks=tuple(checks), z_bound=z_bound,
        passed=all(c.passed for c in checks),
    )


# --------------------------------------------------------------------------
# exactness of the event engine
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GillespieReport:
    spec: ModelSpec
    samples: int
    total_rate: float
    expected_probs: np.ndarray
    observed_counts: np.ndarray
    ks_stat: float
    ks_pvalue: float
    chi2_stat: float
    chi2_pvalue: float
    p_threshold: float
    passed: bool
    notes: tuple[str, ...] = (CALIBRATION_NOTE,)

    def to_dict(self) -> dict:
        return {
            "check": "gillespie_equivalence",
            "pass": bool(self.passed),
            "samples": self.samples,
            "model": {
                "n": self.spec.n,
                "lambda": self.spec.lam,
                "total": self.spec.total,
                "initial": list(self.spec.initial),
            },
            "total_rate": float(self.total_rate),
            "expected_probs": self.expected_probs.tolist(),
            "observed_counts": self.observed_counts.tolist(),
            "ks": {"stat": float(self.ks_stat), "pvalue": float(self.ks_pvalue)},
            "chi2": {"stat": float(self.chi2_stat), "pvalue": float(self.chi2_pvalue)},
            "p_threshold": self.p_threshold,
            "notes": list(self.notes),
        }


def gillespie_equivalence_test(spec: ModelSpec, samples: int, base_seed: int, *,
                               p_threshold: float = 0.01) -> GillespieReport:
    """First-event law of the engine against closed-form expectations.

    From a fixed initial state the first-event time must be exponential with
    the summed reaction rate, and the fired reaction must be categorical
    with probabilities proportional to the rates (competing exponentials).
    Kolmogorov-Smirnov and chi-square at the configured p threshold.
    """
    validate_spec(spec)
    if samples < 1:
        raise DomainError(f"need at least one sample, got {samples}")
    n = spec.n
    x = spec.initial
    rates = np.array(
        [spec.lam / spec.total * x[j] * x[(j + 1) % n] for j in range(n)]
    )
    total_rate = float(rates.sum())
    if total_rate == 0.0:
        raise DomainError("all reaction rates are zero in the initial state")

    rng = rng_stream(base_seed, 0)
    times = np.empty(samples)
    fired = np.empty(samples, dtype=int)
    for i in range(samples):
        state = SimState.initial(spec, rng)
        ev = next_event(state, spec, rng)
        assert not isinstance(ev, Absorbed)  # total_rate > 0
        times[i] = ev.time
        fired[i] = ev.reaction

    ks_stat, ks_p = stats.kstest(times, "expon", args=(0.0, 1.0 / total_rate))
    observed = np.bincount(fired, minlength=n)
    active = rates > 0
    if int(active.sum()) == 1:
        # a single active reaction carries all the mass; nothing to test
        chi2_stat, chi2_p = 0.0, 1.0
    else:
        chi2_stat, chi2_p = stats.chisquare(
            observed[active], samples * rates[active] / total_rate
        )
    passed = ks_p > p_threshold and chi2_p > p_threshold
    return GillespieReport(
        spec=spec, samples=samples, total_rate=total_rate,
        expected_probs=rates / total_rate, observed_counts=observed,
        ks_stat=float(ks_stat), ks_pvalue=float(ks_p),
        chi2_stat=float(chi2_stat), chi2_pvalue=float(chi2_p),
        p_threshold=p_threshold, passed=passed,
    )


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
    total: int = 1000
    fractions: tuple[float, ...] = ()     # default: symmetric

    # [run]
    base_seed: int = 42
    workers: int = 1

    # [validate]
    meanfield_step: float = DEFAULT_STEP
    lln_populations: tuple[int, ...] = (100, 400, 1600, 6400)
    lln_replicas: int = 200
    lln_time: float = 2.0
    lln_grid_points: int = 201
    lln_median_bound: float = 0.05
    lln_ratio_low: float = 1.6
    lln_ratio_high: float = 2.5
    clt_population: int = 10_000
    clt_replicas: int = 2000
    clt_time: float = 1.0
    clt_frobenius_bound: float = 0.15
    martingale_population: int = 100
    martingale_replicas: int = 5000
    martingale_time: float = 1.0
    martingale_z_bound: float = 3.0
    gillespie_counts: tuple[int, ...] = ()  # default: one of each species
    gillespie_lambda: float | None = None   # default: the model rate
    gillespie_samples: int = 10_000
    gillespie_p_threshold: float = 0.01

    def model_fractions(self) -> np.ndarray:
        if self.fractions:
            return np.asarray(self.fractions, dtype=float)
        return np.full(self.n, 1.0 / self.n)

    @classmethod
    def from_ini(cls, path) -> "ValidationConfig":
        """Read a config file: ``[model]``, ``[run]`` and ``[validate]``
        sections whose options are the field names (``lambda`` for ``lam``).
        ``[model] initial`` counts set both ``total`` and ``fractions``."""
        parser = configparser.ConfigParser()
        read = parser.read(path)
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

        kw = {}
        for f in fields(cls):
            section = _INI_SECTIONS.get(f.name, "validate")
            option = "lambda" if f.name == "lam" else f.name
            if parser.has_option(section, option):
                kw[f.name] = value(section, option, f.type)
        if parser.has_option("model", "initial"):
            counts = value("model", "initial", "tuple[int, ...]")
            kw["total"] = sum(counts)
            kw["fractions"] = tuple(c / kw["total"] for c in counts)
        return cls(**kw)


# config-file section of each ValidationConfig field outside [validate]
_INI_SECTIONS = {"n": "model", "lam": "model", "total": "model",
                 "fractions": "model", "base_seed": "run", "workers": "run"}


# deterministic sub-seed offsets so the four checks use unrelated streams
_SEED_GILLESPIE = 0
_SEED_LLN = 1          # + index of the population in lln_populations
_SEED_CLT = 101
_SEED_MARTINGALE = 102


def run_validation(config: ValidationConfig, *, workers: int | None = None,
                   echo=None) -> dict:
    """Run all four checks from one configuration.

    Returns ``{"gillespie": ..., "lln": ..., "clt": ..., "martingale": ...}``.
    ``echo`` (e.g. ``print``) receives one status line per check.
    """
    if workers is None:
        workers = config.workers
    say = echo or (lambda *_: None)
    fractions = config.model_fractions()
    reports: dict[str, object] = {}

    # -- engine exactness ---------------------------------------------------
    g_counts = config.gillespie_counts or (1,) * config.n
    g_spec = ModelSpec(
        n=config.n,
        lam=config.gillespie_lambda
        if config.gillespie_lambda is not None else config.lam,
        total=sum(g_counts),
        initial=tuple(g_counts),
    )
    rep = gillespie_equivalence_test(
        g_spec, config.gillespie_samples,
        config.base_seed + _SEED_GILLESPIE,
        p_threshold=config.gillespie_p_threshold,
    )
    reports["gillespie"] = rep
    say(f"gillespie_equivalence: {'PASS' if rep.passed else 'FAIL'} "
        f"(KS p={rep.ks_pvalue:.4f}, chi2 p={rep.chi2_pvalue:.4f})")

    # -- law of large numbers -----------------------------------------------
    grid = np.linspace(0.0, config.lln_time, config.lln_grid_points)
    mf = integrate(fractions, config.lam, t_end=config.lln_time,
                   step=config.meanfield_step, grid=grid)
    ensembles = []
    for k, m in enumerate(config.lln_populations):
        spec = ModelSpec(n=config.n, lam=config.lam, total=m,
                         initial=counts_from_fractions(fractions, m))
        ensembles.append(
            run_ensemble(spec, config.lln_replicas, config.lln_time, grid,
                         config.base_seed + _SEED_LLN + k, workers=workers,
                         record_events=False)
        )
    rep = lln_test(ensembles, mf, config.lln_time,
                   median_bound=config.lln_median_bound,
                   ratio_band=(config.lln_ratio_low, config.lln_ratio_high))
    reports["lln"] = rep
    say(f"lln: {'PASS' if rep.passed else 'FAIL'} "
        f"(medians={[round(r.median, 4) for r in rep.records]})")

    # -- fluctuation covariance ----------------------------------------------
    m = config.clt_population
    spec = ModelSpec(n=config.n, lam=config.lam, total=m,
                     initial=counts_from_fractions(fractions, m))
    u0 = spec.fractions          # exact finite-M fractions, so Y(0) = 0
    t = config.clt_time
    mf_clt = integrate(u0, config.lam, t_end=t, step=config.meanfield_step,
                       grid=np.array([0.0, t]))
    model = FluctuationModel.from_path(mf_clt, config.lam)
    sigma_t = propagate_covariance(model, np.zeros((config.n, config.n)))[-1]
    ensemble = run_ensemble(spec, config.clt_replicas, t, np.array([0.0, t]),
                            config.base_seed + _SEED_CLT, workers=workers,
                            record_events=False)
    rep = clt_test(ensemble, mf_clt, sigma_t,
                   frobenius_bound=config.clt_frobenius_bound)
    reports["clt"] = rep
    say(f"clt: {'PASS' if rep.passed else 'FAIL'} "
        f"(frobenius={rep.frobenius_rel_err:.4f})")

    # -- martingale structure -------------------------------------------------
    m = config.martingale_population
    spec = ModelSpec(n=config.n, lam=config.lam, total=m,
                     initial=counts_from_fractions(fractions, m))
    t = config.martingale_time
    ensemble = run_ensemble(spec, config.martingale_replicas, t,
                            np.array([t]), config.base_seed + _SEED_MARTINGALE,
                            workers=workers, record_events=True)
    rep = martingale_test(ensemble, t, z_bound=config.martingale_z_bound)
    reports["martingale"] = rep
    worst = max(abs(c.z) for c in rep.checks)
    say(f"martingale: {'PASS' if rep.passed else 'FAIL'} (worst |z|={worst:.2f})")
    return reports
