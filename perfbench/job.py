"""Child process of ``perfbench/run.py``; not meant to be run by hand.

    python3 perfbench/job.py job|probe|regen '<json arguments>'

``probe`` imports rpsim, numpy and scipy, builds the workload's inputs and
reports the set-up time, measured from the parent's spawn time on the
system-wide monotonic clock.  ``job`` does the same and then runs the
workload's job: ``seconds // nominal_s`` untraced iterations (at least one)
or, with tracing, one traced iteration.  Each iteration's outputs are checked
after its clock stops.  While an untraced iteration runs, a timer interrupts
it twenty times a second to time a slice of the calibration kernel in the same
thread (see ``Calibrator``); the mean slice time is that iteration's
calibration time, and the time spent in slices is left out of its wall time.
``regen`` re-pins ``golden.json`` from this commit's outputs.
"""
from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

GOLDEN = HERE / "golden.json"

# While a job runs, a timer interrupts its main thread every PERIOD_S to time
# one slice of the calibration kernel there: about 1.2 ms in 50 ms.  A slice
# stays well under the interpreter's 5 ms thread switch interval even when
# the host runs at half speed: a longer one, in a job with worker threads,
# loses the GIL to a worker now and then and times the worker too.
PERIOD_S = 0.05
# slices taken before and again after a traced iteration
TRACE_SLICES = 40
PY_ROUNDS = 1300
NP_ROUNDS = 20
_M = np.array([[2.0, 0.1, 0.3], [0.1, 1.0, 0.2], [0.3, 0.2, 3.0]])


def calibrate() -> float:
    """Time a fixed slice of work in two parts: a pure-Python loop of the
    event engine's inner-loop operations (list indexing, float arithmetic, a
    running minimum), and 3x3 symmetric eigendecompositions and products,
    the small numpy calls of the limit layers."""
    t0 = time.perf_counter()
    x = 12345
    vals = [1.0, 2.0, 3.0]
    best = 0.0
    for i in range(PY_ROUNDS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        j = x % 3
        v = vals[j] * 0.999 + (x & 1023) * 1e-3
        vals[j] = v
        if v < best or i == 0:
            best = v
    a = _M
    for _ in range(NP_ROUNDS):
        w, q = np.linalg.eigh(a)
        a = 0.5 * ((q * np.sqrt(np.abs(w))) @ q.T + _M)
    return time.perf_counter() - t0


class Calibrator:
    """Time a calibration slice in the job's own thread every ``PERIOD_S``.

    A ``SIGALRM`` handler runs the slice, so it runs on the CPU that runs the
    job, at that moment, and not beside it: on the 2-CPU VM the benchmark was
    defined on, a kernel timed in a second process ran up to 1.7 times
    slower while the job ran on the other CPU, by an amount that depended on
    what the job was doing.  An iteration's calibration time is the mean of
    its slices: its wall time is the integral of the host's slowness, which
    the mean follows and a median, snapping to the faster or the slower of
    the host's states, does not.  ``slices`` holds ``(start, duration)`` and
    ``spent`` the total time in ``tick``, which the job's wall time excludes.
    """

    def __init__(self):
        self.slices: list[tuple[float, float]] = []
        self.spent = 0.0

    def tick(self, *_signal) -> None:
        t0 = time.perf_counter()
        self.slices.append((t0, calibrate()))
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its children (Linux reports KiB)."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def run_job(wl, inputs, work: Path, seconds: float, trace: bool) -> dict:
    from spans import Tracer, layer_metrics
    from workloads import MARGINS, run_operations

    golden = load_golden()
    # a fixed amount of work for a given --seconds, so that every commit
    # measures the same iterations whatever its speed
    iterations = 1 if trace else max(1, int(seconds // wl.nominal_s))
    cal = Calibrator()
    walls, calib, ops = [], [], []
    layer = None
    for k in range(iterations):
        out = work / f"iter{k}"
        out.mkdir()
        first = len(cal.slices)
        # a slice just before the iteration, so that every iteration has one;
        # a traced iteration is calibrated only before and after it, so that
        # no slice lands in its spans
        tracer = Tracer() if trace else None
        for _ in range(TRACE_SLICES if trace else 1):
            cal.tick()
        spent = cal.spent
        with tracer or cal:
            t0 = time.perf_counter()
            result = wl.run(inputs, out)
            t1 = time.perf_counter()
        walls.append(t1 - t0 - (cal.spent - spent))
        for _ in range(TRACE_SLICES if trace else 0):
            cal.tick()
        calib.append(statistics.fmean(d for _, d in cal.slices[first:]))
        ops += run_operations(wl, inputs, result, out, golden)
        if tracer is not None:
            layer = layer_metrics(tracer.spans, t1 - t0)
            layer.update(dict.fromkeys(MARGINS, 0.0))
            if hasattr(wl, "margins"):
                layer.update(wl.margins(out))
            tracer.dump(work.parent / f"spans-{work.name}.jsonl")
        del result
        shutil.rmtree(out)
    return {"walls": walls, "calib": calib,
            "norms": [w / c for w, c in zip(walls, calib)],
            "slices": len(cal.slices), "ops": ops, "layer": layer,
            "peak_rss_mb": peak_rss_mb()}


def regen(work: Path) -> None:
    """Pin the outputs that the checks compare against: for every input set
    of a workload whose outputs depend on it, else once."""
    from workloads import POOL, WORKLOADS

    def pin(wl, index):
        out = work / f"{wl.name}-{index}"
        out.mkdir(parents=True)
        inputs = wl.prepare(index, out)
        result = wl.run(inputs, out)
        reference = wl.reference(inputs, result, out)
        print(f"pinned {wl.name} input set {index}", file=sys.stderr,
              flush=True)
        del result
        shutil.rmtree(out)
        return reference

    golden = {}
    for wl in WORKLOADS.values():
        if not hasattr(wl, "reference"):
            continue
        if wl.pinned_per_input_set:
            golden[wl.name] = {str(i): pin(wl, i) for i in range(POOL)}
        else:
            golden[wl.name] = pin(wl, 0)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def main() -> int:
    mode = sys.argv[1]
    args = json.loads(sys.argv[2])
    work = Path(args["work"])
    result = {}
    if mode == "regen":
        regen(work)
    else:
        from workloads import WORKLOADS

        wl = WORKLOADS[args["workload"]]
        work.mkdir(parents=True, exist_ok=True)
        inputs = wl.prepare(args["seed"], work)
        result["setup_s"] = time.perf_counter() - args["t_spawn"]
        if mode == "job":
            result.update(run_job(wl, inputs, work, args["seconds"],
                                  bool(args["trace"])))
            result["facts"] = machine_facts()
    Path(args["result_file"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
