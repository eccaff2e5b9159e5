"""The benchmark workloads: inputs built from a seed, the timed job, and the
correctness operations run on the job's outputs after the clock stops.

Every call into rpsim goes through a module attribute (``rpsim.io.write_ensemble``
rather than a name bound at import), so the tracer's wrappers see it.

The seed selects one of ``POOL`` input sets (``seed % POOL``).  The outputs
that the checks compare against are pinned in ``golden.json`` by each
workload's ``reference``: the sha256 of every ``simulate-long`` output file
for each input set, and the final ``fluctuation-paths`` state and covariance,
which no seed changes.  The ``validate`` checks are statistical tests with a
nominal false-alarm rate of a few percent per base seed; all four passed on
every input set when the benchmark was defined, so a check that fails on one
of them is a change in behaviour, not a false alarm.
"""
from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

import rpsim
import rpsim.cli
import rpsim.fluctuation
import rpsim.io
import rpsim.meanfield
import rpsim.simulate
import rpsim.validate

POOL = 16
NPROC = os.cpu_count() or 1


def input_index(seed: int) -> int:
    return seed % POOL


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _close(value, reference, rtol: float) -> bool:
    value = np.asarray(value, dtype=float)
    reference = np.asarray(reference, dtype=float)
    return bool(np.max(np.abs(value - reference))
                <= rtol * max(1.0, float(np.max(np.abs(reference)))))


class Validate:
    """``rpsim validate`` at its default config through ``cli.main``.

    Only the base seed changes with the input set (42 + index, so index 0 is
    exactly the default config).  About 7 800 replicas in six ensembles;
    ``run_ensemble`` takes over 90 % of the time.
    """

    name = "validate"
    checks = ("gillespie", "lln", "clt", "martingale")
    # A run makes --seconds // nominal_s iterations, at least one.  Each
    # nominal_s is about one iteration's time on the 2-CPU Xeon VM the
    # benchmark was defined on, set so that --seconds 25 gives 1, 3 and 2
    # iterations of validate, simulate-long and fluctuation-paths.
    nominal_s = 36.0

    def prepare(self, seed: int, work: Path) -> dict:
        base_seed = 42 + input_index(seed)
        ini = work / "validate.ini"
        ini.write_text(f"[run]\nbase_seed = {base_seed}\n", encoding="utf-8")
        return {"index": input_index(seed), "config": ini}

    def run(self, inputs: dict, out: Path) -> int:
        return rpsim.cli.main(["validate", "--config", str(inputs["config"]),
                               "--out", str(out / "reports"),
                               "--workers", str(NPROC)])

    def operations(self, inputs, result, out: Path, golden: dict):
        summary = out / "reports" / "summary.json"
        for check in self.checks:
            yield f"{check} passes", \
                lambda c=check: json.loads(summary.read_text())[c] is True

    def margins(self, out: Path) -> dict[str, float]:
        """Headroom of each check, oriented so that above 1 passes."""
        def load(name):
            return json.loads((out / "reports" / f"{name}.json").read_text())

        g = load("gillespie")
        lln = load("lln")
        low, high = lln["ratio_band"]
        clt = load("clt")
        mart = load("martingale")
        worst_z = max(abs(c["z"]) for c in mart["checks"])
        return {
            "validate.gillespie.margin":
                min(g["ks"]["pvalue"], g["chi2"]["pvalue"]) / g["p_threshold"],
            "validate.lln.margin": min(
                [lln["median_bound"] / lln["records"][-1]["median"]]
                + [min(r / low, high / r) for r in lln["ratios"]]),
            "validate.clt.margin": clt["frobenius_bound"] / clt["frobenius_rel_err"],
            "validate.martingale.margin": mart["z_bound"] / worst_z,
        }


class SimulateLong:
    """A few long replicas with event logs: engine, then write, then read."""

    name = "simulate-long"
    replicas = 4
    total = 10_000
    t_end = 100.0
    grid_points = 1001
    files = ("samples.csv", "events.csv", "manifest.json")
    pinned_per_input_set = True
    nominal_s = 8.0

    def prepare(self, seed: int, work: Path) -> dict:
        spec = rpsim.ModelSpec(n=3, lam=1.0, total=self.total,
                               initial=rpsim.symmetric_counts(3, self.total))
        return {"index": input_index(seed), "spec": spec,
                "grid": np.linspace(0.0, self.t_end, self.grid_points)}

    def run(self, inputs: dict, out: Path):
        ens = rpsim.simulate.run_ensemble(
            inputs["spec"], self.replicas, self.t_end, inputs["grid"],
            inputs["index"], workers=NPROC, record_events=True)
        written = rpsim.io.write_ensemble(ens, out / "ensemble")
        return ens, rpsim.io.read_ensemble(written)

    @staticmethod
    def replay_ok(traj) -> bool:
        """Replaying the event log keeps the total and every count >= 0."""
        spec = traj.spec
        r = traj.event_reactions.astype(np.int64)
        delta = np.zeros((len(r), spec.n), dtype=np.int64)
        delta[np.arange(len(r)), r] = 1
        delta[np.arange(len(r)), (r + 1) % spec.n] -= 1
        counts = np.asarray(spec.initial) + np.cumsum(delta, axis=0)
        return bool(np.all(counts.sum(axis=1) == spec.total)
                    and counts.min(initial=0) >= 0
                    and (len(r) == 0 or tuple(counts[-1]) == traj.final_counts))

    def operations(self, inputs, result, out: Path, golden: dict):
        ens, back = result
        for i, (a, b) in enumerate(zip(ens.trajectories, back.trajectories)):
            yield f"replica {i} read back identical", \
                lambda a=a, b=b: rpsim.trajectories_identical(a, b)
            yield f"replica {i} event replay", lambda a=a: self.replay_ok(a)
        yield "replica count read back", \
            lambda: len(back.trajectories) == len(ens.trajectories)
        for fname in self.files:
            yield f"{fname} sha256", lambda f=fname: sha256(
                out / "ensemble" / f) == golden[self.name][str(inputs["index"])][f]

    def reference(self, inputs, result, out: Path) -> dict:
        return {f: sha256(out / "ensemble" / f) for f in self.files}


class FluctuationPaths:
    """Limit layers only: RK4 mean field, covariance, linear-noise SDE, io."""

    name = "fluctuation-paths"
    u0 = (0.5, 0.3, 0.2)
    lam = 1.0
    t_end = 10.0
    step = 1e-3
    paths = 2000
    grid_points = 101
    # the propagator's own PSD monitor tolerance
    psd_tol = 1e-6
    # only the SDE paths depend on the seed, and they are not pinned
    pinned_per_input_set = False
    nominal_s = 12.0

    def prepare(self, seed: int, work: Path) -> dict:
        return {"index": input_index(seed),
                "grid": np.linspace(0.0, self.t_end, self.grid_points)}

    def run(self, inputs: dict, out: Path):
        grid = inputs["grid"]
        path = rpsim.meanfield.integrate(self.u0, self.lam, t_end=self.t_end,
                                         step=self.step, grid=grid)
        model = rpsim.fluctuation.FluctuationModel.from_path(path, self.lam)
        states = rpsim.fluctuation.propagate_covariance(model, np.zeros((3, 3)))
        sde = rpsim.fluctuation.run_sde_ensemble(model, None, self.step, grid,
                                                 self.paths, inputs["index"])
        rpsim.io.write_meanfield(path, out / "meanfield.csv")
        rpsim.io.write_covariances(states, out / "covariance.csv")
        rpsim.io.write_gaussian_paths(sde, out / "paths.csv")
        return path, states, sde

    @staticmethod
    def sde_error(sigma, sde) -> float:
        """Criterion 8's statistic: Frobenius relative error of the empirical
        covariance at the last grid time, on the zero-sum subspace."""
        finals = np.stack([p.values[-1] for p in sde])
        emp = np.cov(finals, rowvar=False, ddof=1)
        p = rpsim.zero_sum_projector(len(sigma))
        return float(np.linalg.norm(p @ (emp - sigma) @ p)
                     / np.linalg.norm(p @ sigma @ p))

    def operations(self, inputs, result, out: Path, golden: dict):
        path, states, sde = result
        audit = path.invariant_audit
        sigma = states[-1].sigma
        scale = 1.0 + float(np.max(np.abs(sigma)))

        def expected(key):
            return golden[self.name][key]

        yield "sum invariant 1e-10", \
            lambda: float(np.max(np.abs(audit.sums - 1.0))) < 1e-10
        yield "product invariant 1e-7", lambda: float(
            np.max(np.abs(audit.products - audit.products[0]))) < 1e-7
        yield "covariance symmetric", \
            lambda: float(np.max(np.abs(sigma - sigma.T))) <= 1e-12
        yield "covariance zero row sums", \
            lambda: float(np.max(np.abs(sigma.sum(axis=1)))) <= 1e-10 * scale
        yield "covariance PSD", \
            lambda: float(np.linalg.eigvalsh(sigma)[0]) >= -self.psd_tol
        yield "SDE covariance within 10%", \
            lambda: self.sde_error(sigma, sde) < 0.10
        yield "final mean field matches reference", \
            lambda: _close(path.states[-1].u, expected("u_final"), 1e-9)
        yield "final covariance matches reference", \
            lambda: _close(sigma, expected("sigma_final"), 1e-9)

    def reference(self, inputs, result, out: Path) -> dict:
        path, states, _ = result
        return {"u_final": path.states[-1].u.tolist(),
                "sigma_final": states[-1].sigma.tolist()}


WORKLOADS = {w.name: w for w in (Validate(), SimulateLong(), FluctuationPaths())}


MARGINS = tuple(f"validate.{c}.margin" for c in Validate.checks)


def run_operations(workload, inputs, result, out: Path, golden: dict):
    """Evaluate every correctness operation; one that raises has failed.

    Returns a list of ``(name, passed)``.
    """
    results = []
    for name, op in workload.operations(inputs, result, out, golden):
        try:
            results.append((name, bool(op())))
        except Exception as exc:  # a raising operation counts as failed
            results.append((f"{name} ({type(exc).__name__}: {exc})", False))
    return results
