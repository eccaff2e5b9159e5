#!/usr/bin/env python3
"""Run a fixed set of CLI commands and print the sha256 of every output.

The cases, listed in `CASES` with what each one reaches, cover every engine
path and writer of `simulate`, `meanfield`, `fluctuation` and `validate`,
and refused runs.  Every command runs in a scratch directory with
relative paths, so its console output is hashed too, and its error output
when there is any; a refused command that writes no output hashes only
those.
A `simulate` case's outputs include its `.npy` store next to the CSVs.

One line per file, `<sha256>  <case>/<file>`.  `tests/output_digest.txt`
holds this output, and the test suite runs the script and compares every
line with it.  A change that is meant to change output bytes regenerates
the file, and its diff is the record:

    PYTHONPATH=src python3 scripts/output_digest.py > tests/output_digest.txt

Each `simulate` case's ensemble is also read back from its store with
`read_ensemble` and written again, CSVs, store and manifest: if any file's
bytes differ, the script exits 1, naming the case and file on stderr.
"""
import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

from rpsim.cli import main as rpsim_main
from rpsim.io import read_ensemble, write_ensemble

U5 = "0.3,0.1,0.2,0.15,0.25"
# a base seed of five 32-bit words, one more than SeedSequence's pool
SEED_5_WORDS = str(2**130 + 3)
SIMULATE_SEED_5_WORDS = ["simulate", "--total", "60", "--t-end", "1",
                         "--grid-points", "3", "--base-seed", SEED_5_WORDS,
                         "--events"]
# the counts given, at 4 and at 40 replicas
SIMULATE_INITIAL = ["simulate", "--initial", "20,20,20", "--t-end", "2",
                    "--base-seed", "8", "--events"]
SIMULATE_64 = ["simulate", "--replicas", "64", "--total", "60", "--t-end", "2",
               "--grid-points", "5", "--base-seed", "5"]
# validate at small sizes, with the defaults' model and base seed
VALIDATE_SMALL = """\
[validate]
lln_populations = 50, 200
lln_replicas = 40
lln_time = 0.5
lln_grid_points = 11
lln_median_bound = 0.3
clt_population = 800
clt_replicas = 120
clt_time = 0.5
clt_frobenius_bound = 0.5
martingale_population = 50
martingale_replicas = 150
martingale_z_bound = 4.5
"""
# four species from an off-centre start, every check small; by t = 8, 80 of
# the 200 martingale replicas have absorbed, so the replay meets logs that
# end before t
VALIDATE_N4 = """\
[model]
n = 4
fractions = 0.4166666666666667, 0.25, 0.16666666666666666, 0.16666666666666666
[run]
base_seed = 7
[validate]
lln_populations = 20, 40
lln_replicas = 10
lln_time = 0.5
lln_grid_points = 6
clt_population = 40
clt_replicas = 100
clt_time = 0.5
martingale_population = 12
martingale_replicas = 200
martingale_time = 8
"""
# LLN populations of 6 and 24, 20 replicas each, at twice the default rate:
# their 40 columns take one lockstep chunk, and 6 of the smaller
# population's replicas absorb before lln_time and leave it early
VALIDATE_LLN_ABSORBING = """\
[model]
lambda = 2
fractions = 0.5, 0.3, 0.2
[run]
base_seed = 13
[validate]
lln_populations = 6, 24
lln_replicas = 20
lln_grid_points = 9
clt_population = 40
clt_replicas = 100
clt_time = 0.5
martingale_population = 24
martingale_replicas = 40
martingale_time = 0.5
"""
# every setting validate reads, each away from its default, at small sizes
VALIDATE_EVERY_SETTING = """\
[model]
n = 4
lambda = 1.5
fractions = 0.4, 0.3, 0.2, 0.1
[run]
base_seed = 11
[validate]
lln_populations = 40, 160
lln_replicas = 20
lln_time = 0.75
lln_grid_points = 7
lln_median_bound = 0.4
lln_ratio_low = 1.2
lln_ratio_high = 3.5
clt_population = 60
clt_replicas = 120
clt_time = 0.4
clt_frobenius_bound = 0.6
martingale_population = 30
martingale_replicas = 150
martingale_time = 0.6
martingale_z_bound = 3.5
gillespie_p_threshold = 0.005
"""


def validate_case(name: str, config: str) -> tuple:
    return name, ["validate", "--config", f"{name}.ini"], config


# (case, arguments, config file text for validate)
CASES = [
    # simulate below and above the 32 replicas at which ensembles step
    # together, with and without event logs, and with five species
    ("simulate-8", ["simulate", "--replicas", "8", "--total", "300",
                    "--t-end", "1", "--grid", "0,1e-5,0.5,1",
                    "--base-seed", "9", "--events"], None),
    ("simulate-64", SIMULATE_64 + ["--events"], None),
    ("simulate-64-no-events", SIMULATE_64 + ["--no-events"], None),
    ("simulate-initial-4", SIMULATE_INITIAL + ["--replicas", "4"], None),
    ("simulate-initial-40", SIMULATE_INITIAL + ["--replicas", "40"], None),
    ("simulate-n5", ["simulate", "--n", "5", "--initial", "9,3,5,7,1",
                     "--replicas", "40", "--t-end", "1", "--base-seed", "3",
                     "--events"], None),
    ("simulate-n5-scalar", ["simulate", "--n", "5", "--replicas", "4",
                            "--events"], None),
    # to absorption in lockstep, and in lockstep until every replica
    # absorbs (by t = 23.5) with grid times still to sample
    ("simulate-absorbing", ["simulate", "--replicas", "40", "--total", "30",
                            "--t-end", "inf", "--grid", "0",
                            "--base-seed", "2", "--events"], None),
    ("simulate-absorbing-grid", ["simulate", "--replicas", "40", "--total",
                                 "12", "--t-end", "50", "--grid-points",
                                 "11", "--base-seed", "6", "--events"],
     None),
    # one replica at a time (below 32 replicas): to absorption, and at the
    # largest total ModelSpec allows, where the counts are exact in float64
    ("simulate-scalar-absorbing", ["simulate", "--replicas", "12", "--total",
                                   "30", "--t-end", "inf", "--grid", "0",
                                   "--base-seed", "8", "--events"], None),
    ("simulate-largest-total", ["simulate", "--replicas", "3", "--total",
                                "9007199254740992", "--t-end", "1e-13",
                                "--grid-points", "4", "--base-seed", "10",
                                "--events"], None),
    # one replica at a time without an event log, each replica's 12 833 to
    # 13 527 events reading past three blocks of 4 096 draws
    ("simulate-scalar-no-events", ["simulate", "--replicas", "3", "--t-end",
                                   "40", "--grid-points", "9", "--base-seed",
                                   "12", "--no-events"], None),
    # 40 replicas in lockstep at a total of 10 000, where the first events
    # come before t = 1e-4 and print with an exponent
    ("simulate-early-events", ["simulate", "--replicas", "40", "--total",
                               "10000", "--t-end", "0.002", "--grid-points",
                               "5", "--base-seed", "4", "--events"], None),
    # a five-word base seed: streams made in bulk (40 replicas in lockstep)
    # and one per replica (4 replicas)
    ("simulate-seed-5-words", SIMULATE_SEED_5_WORDS + ["--replicas", "40"],
     None),
    ("simulate-seed-5-words-scalar",
     SIMULATE_SEED_5_WORDS + ["--replicas", "4"], None),
    # refused runs: a budget that ends at the first draw block's edge
    # (4 096 draws, 3 of them thresholds), one replica at a time and in
    # lockstep, and collision rates past the double range
    ("simulate-budget-scalar", ["simulate", "--replicas", "2", "--t-end",
                                "20", "--max-events", "4093"], None),
    ("simulate-budget-lockstep", ["simulate", "--replicas", "40", "--t-end",
                                  "20", "--max-events", "4093"], None),
    ("simulate-rate-overflow", ["simulate", "--rate", "1e308", "--total",
                                "30"], None),
    ("simulate-rate-underflow", ["simulate", "--rate", "5e-324"], None),
    # two lockstep chunks
    ("simulate-two-chunks", ["simulate", "--replicas", "3000", "--total",
                             "30", "--t-end", "1", "--grid-points", "3",
                             "--base-seed", "4", "--events"], None),
    ("meanfield-n3", ["meanfield", "--t-end", "10"], None),
    ("meanfield-n5", ["meanfield", "--u0", U5, "--t-end", "2"], None),
    ("meanfield-off-centre", ["meanfield", "--u0", "0.5,0.3,0.2", "--t-end",
                              "3", "--grid-points", "7"], None),
    # the benchmark's 2 000 paths
    ("fluctuation-paths", ["fluctuation", "--paths", "2000", "--t-end", "10",
                           "--grid-points", "101", "--base-seed", "1"], None),
    # a few paths at a coarse step, and the covariance alone at the
    # benchmark's scale: 10 000 RK4 steps, in 100 intervals
    ("fluctuation-coarse-step", ["fluctuation", "--u0", "0.5,0.3,0.2",
                                 "--t-end", "2", "--step", "1e-2",
                                 "--grid-points", "9", "--paths", "5",
                                 "--base-seed", "3"], None),
    ("fluctuation-covariance", ["fluctuation", "--u0", "0.5,0.3,0.2",
                                "--t-end", "10", "--step", "1e-3",
                                "--grid-points", "101", "--paths", "0"],
     None),
    # one path past a block of SDE streams
    ("fluctuation-stream-blocks", ["fluctuation", "--paths", "2049",
                                   "--grid-points", "3", "--base-seed", "3"],
     None),
    ("fluctuation-seed-5-words", ["fluctuation", "--paths", "3",
                                  "--grid-points", "3", "--base-seed",
                                  SEED_5_WORDS], None),
    # five species with off-step report times, and a given initial
    # covariance
    ("fluctuation-n5", ["fluctuation", "--u0", U5, "--t-end", "2",
                        "--paths", "300", "--grid", "0,1e-5,0.3333,1,2",
                        "--base-seed", "7"], None),
    ("fluctuation-sigma0", ["fluctuation", "--u0", "0.5,0.3,0.2",
                            "--t-end", "1", "--sigma0",
                            "0.02,-0.01,-0.01,-0.01,0.02,-0.01,-0.01,-0.01,"
                            "0.02"], None),
] + [validate_case(f"validate-{seed}", f"[run]\nbase_seed = {seed}\n")
     for seed in range(42, 58)] + [
    validate_case("validate-small", VALIDATE_SMALL),
    validate_case("validate-n4-absorbing", VALIDATE_N4),
    validate_case("validate-every-setting", VALIDATE_EVERY_SETTING),
    validate_case("validate-lln-absorbing", VALIDATE_LLN_ABSORBING),
    # refused: a config file that repeats its [run] section
    validate_case("validate-repeated-run",
                  "[run]\nbase_seed = 1\n[run]\nbase_seed = 2\n"),
]


def run_case(name: str, argv: list, work: Path,
             config: str | None) -> list[tuple[str, str]]:
    """``(sha256, case/file)`` of each output of one command, run in
    ``work`` with ``--out`` the case's name, of its console output and of
    its error output, if any; a ``validate`` case first writes its
    ``config`` file, and a refused command that made no output has none."""
    if config is not None:
        (work / argv[2]).write_text(config, encoding="utf-8")
    out = work / (name + (".csv" if argv[0] == "meanfield" else ""))
    console, errors = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(console), \
            contextlib.redirect_stderr(errors):
        code = rpsim_main(argv + ["--out", out.name])
    console.write(f"exit {code}\n")
    digests = [(hashlib.sha256(text.encode()).hexdigest(), f"{name}/{stream}")
               for text, stream in ((console.getvalue(), "stdout"),
                                    (errors.getvalue(), "stderr")) if text]
    paths = [] if not out.exists() else [out] if out.is_file() else \
        sorted(out.iterdir())
    for path in paths:
        digests.append((hashlib.sha256(path.read_bytes()).hexdigest(),
                        f"{name}/{path.name}"))
    return digests


def round_trip_differs(name: str, work: Path) -> list[str]:
    """``case/file`` for each file of ensemble ``name`` whose bytes change
    when it is read back from its store and written again."""
    again = work / "round-trip" / name
    write_ensemble(read_ensemble(work / name), again)
    return [f"{name}/{path.name}" for path in sorted(again.iterdir())
            if path.read_bytes() != (work / name / path.name).read_bytes()]


def main() -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    lines, differs = [], []
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, argv, config in CASES:
                lines += [f"{digest}  {label}" for digest, label
                          in run_case(name, argv, Path(tmp), config)]
                if argv[0] == "simulate" and Path(tmp, name).exists():
                    differs += round_trip_differs(name, Path(tmp))
        finally:
            os.chdir(home)
    print("\n".join(lines))
    for label in differs:
        print(f"read back and written again, {label} differs",
              file=sys.stderr)
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
