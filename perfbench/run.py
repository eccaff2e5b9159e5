#!/usr/bin/env python3
"""rpsim benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload validate --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --trace 1     # every workload, then
                                                          # the ROADMAP baseline rows
    python3 perfbench/run.py --regen-golden               # re-pin golden.json

Run from the repository root; rpsim is imported from ``src/``.  Workloads
(``BENCHMARK.json`` says why each was chosen and which layer it loads):

* ``validate``: ``rpsim validate`` at its default config through ``cli.main``.
* ``simulate-long``: 4 replicas, M=10^4, t=100, 1001-point grid, event logs
  kept; ``run_ensemble``, then ``write_ensemble``, then ``read_ensemble``.
* ``fluctuation-paths``: ``integrate`` (u0=(0.5,0.3,0.2), t=10, step 1e-3),
  ``propagate_covariance``, ``run_sde_ensemble`` (2000 paths, 101-point
  grid), then the three writers.

Load: a closed loop with one caller; each iteration starts when the previous
one and its checks are done.  ``workers`` is ``nproc``.  ``--seed`` selects
the input set (``seed % 16``, see ``workloads.py``); the same seed gives the
same inputs.

Each run starts the job in a child process, which runs a fixed number of
iterations (``--seconds`` divided by the workload's ``nominal_s``, at least
one) and checks the outputs after each iteration's clock stops.  While an
iteration runs, a timer interrupts it twenty times a second to time a slice of
a fixed calibration kernel in the same thread (``job.Calibrator``).  With
``--trace 0`` the run also times child processes that only set up, one
before the job and one after it, and reports end-to-end metrics:

* ``wall_norm``: median over iterations of the iteration's wall time (first
  rpsim call to last output written, less the time in calibration slices)
  divided by the mean slice time within it.  On the 2-CPU VM the benchmark
  was defined on, speed moved by up to 1.8x within seconds; the slices
  follow it on the job's own CPU.  Over 10 seeds of each workload there,
  the spread (quartile distance over median) of ``wall_norm`` was 0.03 to
  0.04 and that of the raw wall time 0.14 to 0.39, so ``wall_norm`` is the
  gated time;
* ``setup_s``: median over the job and probe processes of the time from
  process start to the first rpsim call (imports of rpsim, numpy, scipy, and
  the inputs);
* ``peak_rss_mb``: peak RSS of the job process plus its children.

It also prints figures that are not gated: ``wall_s``, the median raw wall
time of an iteration; ``calib_s``, the median over iterations of the mean
slice time; and ``fail_ratio``, which is 0 on a correct run and which the result carries as
``failed`` and ``attempted``.

With ``--trace 1`` the job runs one traced iteration and reports the
per-layer metrics (see ``spans.py``); ``tracing_overhead_s`` is the time the
tracer's wrappers spent outside the calls they wrap.  Either way the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; ``fail_ratio`` = ``failed / attempted`` is
printed above it.  Machine facts, every iteration's times and every
correctness operation go to ``.perfbench_out/result-*.json``.

A workload's processes share a budget of ``RUN_BUDGET_S``, so that a run
ends within 180 s: a probe after the job is skipped when it would not fit,
and a job that overruns the budget is stopped and the run exits with code 3
without a result.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("validate", "simulate-long", "fluctuation-paths")
# Set-up probes run before and after the job, so that their median spans the
# run rather than the few seconds after it.  More probes did not narrow the
# run-to-run spread of setup_s, which follows the host's speed over minutes.
PROBES_BEFORE = PROBES_AFTER = 1
RUN_BUDGET_S = 170
PROBE_TIMEOUT_S = 8


class OverBudget(Exception):
    """A child process did not end within the run's budget."""


def metric_specs() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def child(mode: str, args: dict, timeout: float | None) -> dict:
    """Run ``job.py`` in a fresh interpreter and return the JSON it wrote."""
    result_file = OUT / f"child-{os.getpid()}.json"
    args = dict(args, result_file=str(result_file), t_spawn=time.perf_counter())
    # the job's own printing (rpsim validate's report lines) goes to stderr,
    # so that the result stays the last line of standard output
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "job.py"), mode, json.dumps(args)],
            cwd=ROOT, stdout=sys.stderr, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        result_file.unlink(missing_ok=True)
        raise OverBudget(f"{mode} child did not end within {timeout:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} child exited with code {proc.returncode}")
    try:
        return json.loads(result_file.read_text())
    finally:
        result_file.unlink()


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    work = OUT / f"{name}-seed{seed}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    args = {"workload": name, "seed": seed, "seconds": seconds,
            "trace": trace, "work": str(work)}
    deadline = time.perf_counter() + RUN_BUDGET_S

    def probe(k: int) -> float:
        return child("probe", dict(args, work=str(work / f"probe{k}")),
                     PROBE_TIMEOUT_S)["setup_s"]

    setups = [] if trace else [probe(k) for k in range(PROBES_BEFORE)]
    job = child("job", args, deadline - time.perf_counter())
    setups.append(job["setup_s"])
    for k in range(0 if trace else PROBES_AFTER):
        if deadline - time.perf_counter() < PROBE_TIMEOUT_S:
            break
        setups.append(probe(PROBES_BEFORE + k))
    shutil.rmtree(work, ignore_errors=True)

    ops = job["ops"]
    failed = [op for op, ok in ops if not ok]
    metrics = {"calib_s": statistics.median(job["calib"]),
               "fail_ratio": len(failed) / len(ops),
               "wall_s": statistics.median(job["walls"]),
               "wall_norm": statistics.median(job["norms"])}
    if trace:
        metrics.update(job["layer"])
    else:
        metrics.update(setup_s=statistics.median(setups),
                       peak_rss_mb=job["peak_rss_mb"])
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "facts": job["facts"], "walls": job["walls"],
              "norms": job["norms"], "calib": job["calib"],
              "slices": job["slices"],
              "setups": setups, "peak_rss_mb": job["peak_rss_mb"],
              "operations": ops, "metrics": metrics}
    (OUT / f"result-{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for op in failed:
        print(f"FAILED {name}: {op}", file=sys.stderr)
    return record


def report(record: dict, units: dict) -> dict:
    """Print one workload's metrics by name with units; return the result
    object with exactly the metrics ``BENCHMARK.json`` lists for the mode."""
    m = record["metrics"]
    ops = record["operations"]
    failed = sum(not ok for _, ok in ops)
    facts = record["facts"]
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"iterations={len(record['walls'])} nproc={facts['nproc']} "
          f"cpu={facts['cpu_model']!r} python={facts['python']} "
          f"numpy={facts['numpy']} scipy={facts['scipy']}")
    print(f"  {failed} of {len(ops)} correctness operations failed")
    shown = {"fail_ratio": "ratio", "calib_s": "s", "wall_s": "s",
             "wall_norm": "ratio"}
    for name, unit in {**shown, **units}.items():
        print(f"  {name} = {m[name]:.6g} {unit}")
    chosen = {name: {"value": m[name], "unit": unit}
              for name, unit in units.items()}
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": chosen}


def baseline_rows(records: dict) -> list[str]:
    """ROADMAP baseline rows regenerated from traced records by workload."""
    v = records["validate"]
    s = records["simulate-long"]
    f = records["fluctuation-paths"]
    vm, sm, fm = v["metrics"], s["metrics"], f["metrics"]
    engine = sm["simulate.run_ensemble.wall_s"]
    write, read = sm["io.write_ensemble.wall_s"], sm["io.read_ensemble.wall_s"]
    return [
        "| layer / workload | figure |",
        "|---|---|",
        f"| `rpsim validate` defaults, end to end (traced) | "
        f"{v['walls'][0]:.1f} s, of which {vm['tracing_overhead_s']:.2f} s "
        f"tracer overhead; `run_ensemble` "
        f"{100 * vm['simulate.run_ensemble.share']:.0f} % |",
        f"| scalar engine, 4 reps x M=10^4 x t=100, workers={s['facts']['nproc']} | "
        f"{sm['simulate.events']:.0f} events in {engine:.2f} s = "
        f"{sm['simulate.events_per_s'] / 1e3:.0f} k events/s |",
        f"| `integrate` n=3, {fm['meanfield.rk4_steps']:.0f} RK4 steps | "
        f"{fm['meanfield.integrate.wall_s']:.2f} s "
        f"({fm['meanfield.steps_per_s']:.0f} steps/s) |",
        f"| `propagate_covariance` | "
        f"{fm['fluctuation.propagate_covariance.wall_s']:.2f} s "
        f"({fm['fluctuation.cov_steps_per_s']:.0f} steps/s) |",
        f"| `run_sde_ensemble` 2000 paths | "
        f"{fm['fluctuation.run_sde_ensemble.wall_s']:.2f} s "
        f"({fm['fluctuation.path_steps_per_s'] / 1e6:.2f} M path-steps/s); "
        f"`psd_sqrt` {fm['fluctuation.psd_sqrt.calls']:.0f} calls, "
        f"{fm['fluctuation.psd_sqrt.wall_s']:.2f} s |",
        f"| io on simulate-long: {sm['io.rows_written']:.0f} rows | "
        f"write {write:.2f} s, read {read:.2f} s, **vs {engine:.2f} s to "
        f"simulate** (io/engine = {sm['io.engine_ratio']:.2f}) |",
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--regen-golden", action="store_true",
                        help="re-pin golden.json from this commit's outputs")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rpsim" / "__init__.py").is_file():
        print(f"error: no rpsim sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.regen_golden:
        child("regen", {"work": str(OUT / "regen")}, None)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    units = metric_specs()["per_layer" if args.trace else "end_to_end"]
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    records, results = {}, {}
    for name in names:
        try:
            records[name] = run_workload(name, args.seed, args.seconds,
                                         args.trace)
        except OverBudget as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 3
        results[name] = report(records[name], units)
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    if args.trace:
        print("\n".join(baseline_rows(records)))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {n: r["metrics"] for n, r in results.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
