"""End-to-end acceptance gate.

One test per shipping criterion, each printing a single PASS/FAIL line
(run ``pytest tests/test_acceptance.py -v -s`` to see them live).  Criteria
cover: raw engine throughput with exact conservation, first-event law
exactness, the large-population limit, conservation of the deterministic
invariants, Gaussian fluctuation covariance, martingale structure of the
compensated counters, algebraic structure of the coefficient matrices,
the linear-noise sampler against the moment ODE, and byte determinism of
all serialized output.

Statistical criteria use fixed seeds chosen once; they are not tuned per
run.  Their margins to the thresholds vary (README lists the measured ones
of ``rpsim validate``).
"""
import math
import time

import numpy as np
import pytest

from rpsim import (
    FluctuationModel,
    ModelSpec,
    clt_test,
    counts_from_fractions,
    diffusion_matrix,
    drift_matrix,
    gillespie_equivalence_test,
    integrate,
    lln_test,
    martingale_test,
    propagate_covariance,
    rng_stream,
    run_ensemble,
    run_sde_ensemble,
    run_until,
    vector_field,
    zero_sum_projector,
)
from rpsim.cli import main as cli_main

WORKERS = 4


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} — {detail}",
          flush=True)
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_engine_throughput_and_exact_conservation():
    # one million events at M=1000, every single event conserving the
    # population exactly, in under five seconds; absorbed replicas are
    # restarted on fresh streams until the budget is met
    spec = ModelSpec(n=3, lam=1.0, total=1000, initial=(334, 333, 333))
    t0 = time.perf_counter()
    trajectories = []
    total_events = 0
    i = 0
    while total_events < 10**6:
        traj = run_until(spec, math.inf, np.array([]), rng_stream(2024, i),
                         seed=i, record_events=True)
        total_events += traj.n_events
        trajectories.append(traj)
        i += 1
    elapsed = time.perf_counter() - t0

    # replay each event log and check the invariant after every jump
    conserved = True
    for traj in trajectories:
        k = traj.n_events
        r = traj.event_reactions.astype(np.int64)
        deltas = np.zeros((k, 3), dtype=np.int64)
        deltas[np.arange(k), r] = 1
        deltas[np.arange(k), (r + 1) % 3] -= 1
        counts = np.array(spec.initial) + np.cumsum(deltas, axis=0)
        if not (np.all(counts.sum(axis=1) == 1000) and np.all(counts >= 0)):
            conserved = False
    ok = total_events >= 10**6 and conserved and elapsed < 5.0
    report(1, "event engine", ok,
           f"{total_events} events over {i} replicas in {elapsed:.2f}s "
           f"(< 5s), population == 1000 after every event: {conserved}")


def test_criterion_2_first_event_law_is_exact():
    # from (1,1,1) with lam=3, M=3 the first-event time is Exponential(3)
    # and the fired reaction uniform over the three pairs; by t = 40/3 a
    # replica is silent with probability e^-40
    spec = ModelSpec(n=3, lam=3.0, total=3, initial=(1, 1, 1))
    ens = run_ensemble(spec, 10_000, 40 / 3, (), 2222, record_events=True)
    rep = gillespie_equivalence_test(ens, 40 / 3, p_threshold=0.01)
    ok = rep["pass"] and rep["total_rate"] == 3.0
    report(2, "first-event law", ok,
           f"KS p={rep['ks']['pvalue']:.4f}, "
           f"chi2 p={rep['chi2']['pvalue']:.4f} "
           f"(both > 0.01), counts={rep['observed_counts']}")


def test_criterion_3_large_population_convergence():
    # scaled counts converge to the deterministic limit: medians of the sup
    # deviation drop monotonically, land below 0.05 at M=6400, and shrink
    # by ~2x per 4x population step, all inside two minutes
    fractions = np.array([0.5, 0.3, 0.2])
    grid = np.linspace(0.0, 2.0, 201)
    t0 = time.perf_counter()
    mf = integrate(fractions, 1.0, t_end=2.0, grid=grid)
    ensembles = []
    for k, m in enumerate((100, 400, 1600, 6400)):
        spec = ModelSpec(n=3, lam=1.0, total=m,
                         initial=counts_from_fractions(fractions, m))
        ensembles.append(
            run_ensemble(spec, 200, 2.0, grid, 3000 + k, workers=WORKERS,
                         record_events=False)
        )
    rep = lln_test(ensembles, mf, 2.0, median_bound=0.05,
                   ratio_band=(1.6, 2.5))
    elapsed = time.perf_counter() - t0
    ok = rep["pass"] and elapsed < 120.0
    report(3, "law of large numbers", ok,
           f"medians={[round(r['median'], 4) for r in rep['records']]} "
           f"(monotone={rep['monotone']}, last < 0.05), "
           f"ratios={[round(x, 2) for x in rep['ratios']]} in [1.6, 2.5], "
           f"{elapsed:.1f}s (< 120s)")


def test_criterion_4_deterministic_invariants():
    # over t in [0, 10] at step 1e-3 the integrator holds both conserved
    # quantities: total mass to 1e-10 and the species product to 1e-7
    path = integrate(np.array([0.5, 0.3, 0.2]), 1.0, t_end=10.0, step=1e-3)
    audit = path.invariant_audit
    sum_drift = float(np.max(np.abs(audit.sums - 1.0)))
    prod_drift = float(np.max(np.abs(audit.products - audit.products[0])))
    ok = sum_drift < 1e-10 and prod_drift < 1e-7
    report(4, "mean-field invariants", ok,
           f"max |sum - 1| = {sum_drift:.2e} (< 1e-10), "
           f"max product drift = {prod_drift:.2e} (< 1e-7) "
           f"over {len(audit.sums)} steps")


def test_criterion_5_fluctuation_covariance():
    # sqrt(M)-scaled deviations at t=1 must match the propagated second
    # moments within 15% in Frobenius norm on the zero-sum subspace
    m = 10_000
    spec = ModelSpec(
        n=3, lam=1.0, total=m,
        initial=counts_from_fractions(np.full(3, 1 / 3), m))
    grid = np.array([0.0, 1.0])
    t0 = time.perf_counter()
    mf = integrate(spec.fractions, 1.0, t_end=1.0, grid=grid)
    model = FluctuationModel.from_path(mf, 1.0)
    sigma = propagate_covariance(model, np.zeros((3, 3)))[-1]
    ens = run_ensemble(spec, 2000, 1.0, grid, 3100, workers=WORKERS,
                       record_events=False)
    rep = clt_test(ens, mf, sigma, frobenius_bound=0.15)
    elapsed = time.perf_counter() - t0
    ok = rep["pass"] and elapsed < 300.0
    report(5, "fluctuation covariance", ok,
           f"Frobenius rel err = {rep['frobenius_rel_err']:.4f} (< 0.15), "
           f"2000 replicas at M=10000 in {elapsed:.1f}s (< 300s)")


def test_criterion_6_martingale_identities():
    # compensated counters at t=1 over 5000 replicas: zero mean, quadratic
    # variation equal to accumulated intensity, zero cross-correlation,
    # every statistic within 3 standard errors
    spec = ModelSpec(n=3, lam=1.0, total=100,
                     initial=counts_from_fractions(np.full(3, 1 / 3), 100))
    ens = run_ensemble(spec, 5000, 1.0, np.array([1.0]), 3200,
                       workers=WORKERS, record_events=True)
    rep = martingale_test(ens, 1.0, z_bound=3.0)
    worst = max(abs(c["z"]) for c in rep["checks"])
    by_kind = {
        kind: max(abs(c["z"]) for c in rep["checks"] if c["kind"] == kind)
        for kind in ("mean", "qv", "cross")
    }
    report(6, "martingale identities", rep["pass"],
           f"worst |z| = {worst:.2f} (< 3) across "
           f"{len(rep['checks'])} checks; per family: "
           + ", ".join(f"{k}={v:.2f}" for k, v in by_kind.items()))


def test_criterion_7_coefficient_matrix_structure():
    # structural guarantees on 1000 random simplex points per size
    rng = np.random.default_rng(777)
    checked = 0
    ok = True
    msgs = []
    for n in (3, 5, 8):
        for _ in range(1000):
            u = rng.dirichlet(np.ones(n))
            b = drift_matrix(u, 1.0)
            c = diffusion_matrix(u, 1.0)
            if np.max(np.abs(c - c.T)) > 1e-14 \
                    or np.max(np.abs(c @ np.ones(n))) > 1e-14:
                ok, msgs = False, msgs + [f"c structure broke at n={n}"]
                break
            band_ok = all(
                c[j, k] == 0.0
                for j in range(n) for k in range(n)
                if min((j - k) % n, (k - j) % n) > 1
            )
            if not band_ok:
                ok, msgs = False, msgs + [f"band broke at n={n}"]
                break
            if np.linalg.eigvalsh(c)[0] < -1e-12:
                ok, msgs = False, msgs + [f"c indefinite at n={n}"]
                break
            if u.min() > 1e-3 and np.linalg.eigvalsh(c[:-1, :-1])[0] <= 0:
                ok, msgs = False, msgs + [f"leading block singular at n={n}"]
                break
            # drift must be the Jacobian: central differences with h=1e-5
            # are exact for the bilinear field up to roundoff
            h = 1e-5
            fd = np.empty((n, n))
            for k in range(n):
                e = np.zeros(n)
                e[k] = h
                fd[:, k] = (vector_field(u + e, 1.0)
                            - vector_field(u - e, 1.0)) / (2 * h)
            if np.max(np.abs(b - fd)) > 1e-6:
                ok, msgs = False, msgs + [f"jacobian mismatch at n={n}"]
                break
            checked += 1
    report(7, "coefficient matrices", ok and checked == 3000,
           f"{checked}/3000 points passed symmetry, band, zero row sums, "
           f"PSD, interior PD block, and Jacobian checks"
           + ("; " + "; ".join(msgs) if msgs else ""))


def test_criterion_8_linear_noise_sampler_matches_moments():
    # 5000 linear-noise SDE paths from the fixed point: their time-1 sample
    # covariance must match the moment ODE within 10% (zero-sum subspace)
    uf = np.full(3, 1 / 3)
    grid = np.array([0.0, 1.0])
    path = integrate(uf, 1.0, t_end=1.0, step=1e-3, grid=grid)
    model = FluctuationModel.from_path(path, 1.0)
    sigma_ref = propagate_covariance(model, np.zeros((3, 3)))[-1].sigma
    paths = run_sde_ensemble(model, None, 1e-3, grid, 5000, base_seed=3300)
    finals = np.stack([p.values[-1] for p in paths])
    emp = np.cov(finals, rowvar=False, ddof=1)
    p = zero_sum_projector(3)
    frob = float(np.linalg.norm(p @ (emp - sigma_ref) @ p)
                 / np.linalg.norm(p @ sigma_ref @ p))
    report(8, "linear-noise sampler", frob < 0.10,
           f"Frobenius rel err = {frob:.4f} (< 0.10) over 5000 paths")


def test_criterion_9_byte_determinism(tmp_path):
    # identical arguments must yield byte-identical CSV/JSON
    argv = ["simulate", "--initial", "334,333,333", "--replicas", "4",
            "--t-end", "1", "--grid-points", "5", "--base-seed", "77",
            "--events"]
    for name in ("s1", "s2", "s3"):
        assert cli_main(argv + ["--out", str(tmp_path / name)]) == 0
    same = True
    for fname in ("samples.csv", "events.csv", "manifest.json"):
        ref = (tmp_path / "s1" / fname).read_bytes()
        same &= (tmp_path / "s2" / fname).read_bytes() == ref
        same &= (tmp_path / "s3" / fname).read_bytes() == ref

    for name in ("m1", "m2"):
        cli_main(["meanfield", "--u0", "0.5,0.3,0.2", "--t-end", "2",
                  "--grid-points", "21", "--out",
                  str(tmp_path / f"{name}.csv")])
    same &= (tmp_path / "m1.csv").read_bytes() == \
        (tmp_path / "m2.csv").read_bytes()

    for name in ("f1", "f2"):
        cli_main(["fluctuation", "--u0", "0.4,0.3,0.3", "--t-end", "0.5",
                  "--step", "1e-2", "--grid-points", "6", "--paths", "3",
                  "--base-seed", "9", "--out", str(tmp_path / name)])
    for fname in ("meanfield.csv", "covariance.csv", "paths.csv"):
        same &= (tmp_path / "f1" / fname).read_bytes() == \
            (tmp_path / "f2" / fname).read_bytes()

    report(9, "byte determinism", same,
           "simulate (x3), meanfield (x2), "
           "fluctuation (x2): all CSV/JSON byte-identical")
