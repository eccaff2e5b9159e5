#!/usr/bin/env python3
"""Run a fixed set of CLI commands and print the sha256 of every output.

The set covers each engine path and writer: `simulate` below and above the
32 replicas at which ensembles step together, with five species, to
absorption both one replica at a time and in lockstep, in lockstep until
every replica absorbs with grid times still to sample, one replica at a
time at the largest total, in two lockstep chunks, without event logs,
in lockstep with event times that print with an exponent, and both in
lockstep and one replica at a time from a base seed of five 32-bit words;
`meanfield` at n = 3 and n = 5; five `fluctuation` runs (the benchmark's
2 000 paths, one path past a block of 2 048 random streams, three paths
from the five-word base seed, five species with off-step report times,
and a given initial covariance); and
`validate` at base seeds 42-57 and, small, with four species from an
off-centre start until some martingale replicas absorb, with every
setting away from its default, and with LLN populations whose merged
lockstep chunk loses replicas to absorption.  Each command runs in a fresh
directory with relative paths, so its console output is hashed too.
A `simulate` case's outputs include its `.npy` store next to the CSVs.
Each `simulate` case's ensemble is also read back from that store with
`read_ensemble` and written again, CSVs, store and manifest: if any file's
bytes differ, the script exits 1, naming the case and file on stderr.

One line per file, `<sha256>  <case>/<file>`, then a combined digest of
those lines.  Run it once against each tree to compare two commits:

    PYTHONPATH=ab/parent/src python3 scripts/output_digest.py > parent.txt
    PYTHONPATH=ab/change/src python3 scripts/output_digest.py > change.txt
    diff parent.txt change.txt

`--quick` runs the small cases only, in about a second.
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
SIMULATE_64 = ["simulate", "--replicas", "64", "--total", "60", "--t-end", "2",
               "--grid-points", "5", "--base-seed", "5"]
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
gillespie_samples = 200
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
gillespie_samples = 100
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
gillespie_samples = 300
gillespie_p_threshold = 0.005
"""


def validate_case(name: str, config: str, quick: bool) -> tuple:
    return name, ["validate", "--config", f"{name}.ini"], quick, config


# (case, arguments, in the quick subset, config file text for validate)
CASES = [
    ("simulate-8", ["simulate", "--replicas", "8", "--total", "300",
                    "--t-end", "1", "--grid", "0,1e-5,0.5,1",
                    "--base-seed", "9", "--events"], True, None),
    ("simulate-64", SIMULATE_64 + ["--events"], True, None),
    ("simulate-64-no-events", SIMULATE_64 + ["--no-events"], True, None),
    ("simulate-n5", ["simulate", "--n", "5", "--initial", "9,3,5,7,1",
                     "--replicas", "40", "--t-end", "1", "--base-seed", "3",
                     "--events"], True, None),
    ("simulate-absorbing", ["simulate", "--replicas", "40", "--total", "30",
                            "--t-end", "inf", "--grid", "0",
                            "--base-seed", "2", "--events"], True, None),
    # all 40 replicas absorb by t = 23.5 in lockstep, with grid times left
    ("simulate-absorbing-grid", ["simulate", "--replicas", "40", "--total",
                                 "12", "--t-end", "50", "--grid-points",
                                 "11", "--base-seed", "6", "--events"], True,
     None),
    # one replica at a time (below 32 replicas): to absorption, and at the
    # largest total ModelSpec allows, where the counts are exact in float64
    ("simulate-scalar-absorbing", ["simulate", "--replicas", "12", "--total",
                                   "30", "--t-end", "inf", "--grid", "0",
                                   "--base-seed", "8", "--events"], True,
     None),
    ("simulate-largest-total", ["simulate", "--replicas", "3", "--total",
                                "9007199254740992", "--t-end", "1e-13",
                                "--grid-points", "4", "--base-seed", "10",
                                "--events"], True, None),
    # 40 replicas in lockstep at a total of 10 000, where the first events
    # come before t = 1e-4 and print with an exponent
    ("simulate-early-events", ["simulate", "--replicas", "40", "--total",
                               "10000", "--t-end", "0.002", "--grid-points",
                               "5", "--base-seed", "4", "--events"], True,
     None),
    # a five-word base seed: streams made in bulk (40 replicas in lockstep)
    # and one per replica (4 replicas)
    ("simulate-seed-5-words", SIMULATE_SEED_5_WORDS + ["--replicas", "40"],
     True, None),
    ("simulate-seed-5-words-scalar",
     SIMULATE_SEED_5_WORDS + ["--replicas", "4"], True, None),
    ("simulate-two-chunks", ["simulate", "--replicas", "3000", "--total",
                             "30", "--t-end", "1", "--grid-points", "3",
                             "--base-seed", "4", "--events"], False, None),
    ("meanfield-n3", ["meanfield", "--t-end", "10"], True, None),
    ("meanfield-n5", ["meanfield", "--u0", U5, "--t-end", "2"], True, None),
    ("fluctuation-paths", ["fluctuation", "--paths", "2000", "--t-end", "10",
                           "--grid-points", "101", "--base-seed", "1"], False,
     None),
    # one path past a block of SDE streams
    ("fluctuation-stream-blocks", ["fluctuation", "--paths", "2049",
                                   "--grid-points", "3", "--base-seed", "3"],
     True, None),
    ("fluctuation-seed-5-words", ["fluctuation", "--paths", "3",
                                  "--grid-points", "3", "--base-seed",
                                  SEED_5_WORDS], True, None),
    ("fluctuation-n5", ["fluctuation", "--u0", U5, "--t-end", "2",
                        "--paths", "300", "--grid", "0,1e-5,0.3333,1,2",
                        "--base-seed", "7"], True, None),
    ("fluctuation-sigma0", ["fluctuation", "--u0", "0.5,0.3,0.2",
                            "--t-end", "1", "--sigma0",
                            "0.02,-0.01,-0.01,-0.01,0.02,-0.01,-0.01,-0.01,"
                            "0.02"], True, None),
] + [validate_case(f"validate-{seed}", f"[run]\nbase_seed = {seed}\n", False)
     for seed in range(42, 58)] + [
    validate_case("validate-n4-absorbing", VALIDATE_N4, True),
    validate_case("validate-every-setting", VALIDATE_EVERY_SETTING, True),
    validate_case("validate-lln-absorbing", VALIDATE_LLN_ABSORBING, True),
]


def run_case(name: str, argv: list, work: Path,
             config: str | None) -> list[tuple[str, str]]:
    """``(sha256, case/file)`` of each output of one command, run in
    ``work`` with ``--out`` the case's name, and of its console output;
    a ``validate`` case first writes its ``config`` file."""
    if config is not None:
        (work / argv[2]).write_text(config, encoding="utf-8")
    out = name + (".csv" if argv[0] == "meanfield" else "")
    console = io.StringIO()
    with contextlib.redirect_stdout(console):
        code = rpsim_main(argv + ["--out", out])
    console.write(f"exit {code}\n")
    digests = [(hashlib.sha256(console.getvalue().encode()).hexdigest(),
                f"{name}/stdout")]
    paths = [work / out] if argv[0] == "meanfield" else \
        sorted((work / out).iterdir())
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
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--quick", action="store_true",
                    help="run only the small cases")
    args = ap.parse_args()

    lines, differs = [], []
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, argv, quick, config in CASES:
                if quick or not args.quick:
                    lines += [f"{digest}  {label}" for digest, label
                              in run_case(name, argv, Path(tmp), config)]
                    if argv[0] == "simulate":
                        differs += round_trip_differs(name, Path(tmp))
        finally:
            os.chdir(home)
    combined = hashlib.sha256("".join(f"{line}\n" for line in lines)
                              .encode()).hexdigest()
    print("\n".join(lines))
    print(f"{combined}  combined")
    for label in differs:
        print(f"read back and written again, {label} differs",
              file=sys.stderr)
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
