import hashlib
import json

import numpy as np
import pytest

from rpsim import trajectories_identical
from rpsim.cli import main
from rpsim.io import read_ensemble


def test_no_command_exits_with_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


class TestSimulateCommand:
    def test_writes_ensemble(self, tmp_path, capsys):
        rc = main([
            "simulate", "--initial", "20,20,20", "--rate", "1.0",
            "--replicas", "3", "--t-end", "1.0", "--grid-points", "5",
            "--base-seed", "4", "--out", str(tmp_path / "out"),
        ])
        assert rc == 0
        assert "wrote 3 trajectories" in capsys.readouterr().out
        ens = read_ensemble(tmp_path / "out")
        assert ens.replicas == 3
        assert ens.spec.initial == (20, 20, 20)
        assert len(ens.grid) == 5

    def test_fractions_and_symmetric_defaults(self, tmp_path):
        main(["simulate", "--fractions", "0.5,0.3,0.2", "--total", "10",
              "--replicas", "1", "--out", str(tmp_path / "a")])
        assert read_ensemble(tmp_path / "a").spec.initial == (5, 3, 2)
        main(["simulate", "--n", "3", "--total", "10",
              "--replicas", "1", "--out", str(tmp_path / "b")])
        assert read_ensemble(tmp_path / "b").spec.initial == (4, 3, 3)
        # an explicit --n that agrees with the list is accepted
        main(["simulate", "--n", "3", "--fractions", "0.5,0.3,0.2",
              "--total", "10", "--replicas", "1", "--out", str(tmp_path / "c")])
        assert read_ensemble(tmp_path / "c").spec.initial == (5, 3, 2)

    @pytest.mark.parametrize("start", [[], ["--fractions", "0.5,0.3,0.2"]])
    def test_total_defaults_to_1000(self, tmp_path, start):
        assert main(["simulate", *start, "--t-end", "0",
                     "--out", str(tmp_path / "t")]) == 0
        assert read_ensemble(tmp_path / "t").spec.total == 1000

    @pytest.mark.parametrize("total", [[], ["--total", "500"]])
    def test_initial_and_fractions_are_refused_together(self, tmp_path,
                                                        capsys, total):
        out = tmp_path / "x"
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--initial", "1,1,1", "--fractions",
                  "0.5,0.3,0.2", *total, "--out", str(out)])
        assert err.value.code == 2
        assert capsys.readouterr().err.endswith(
            "error: argument --fractions: not allowed with argument "
            "--initial\n")
        assert not out.exists()

    # even a --total that equals the counts' sum is a second spelling
    @pytest.mark.parametrize("total", ["500", "3", "0"])
    def test_total_and_initial_are_refused_together(self, tmp_path, capsys,
                                                    total):
        out = tmp_path / "x"
        assert main(["simulate", "--initial", "1,1,1", "--total", total,
                     "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", "error: --total cannot be given "
                                       "with --initial, whose counts set "
                                       "the total\n")
        assert not out.exists()

    def test_the_ensemble_has_the_given_total(self, tmp_path):
        # the float split of this total once overshot it by 5, and the
        # ensemble ran a population the user had not asked for
        total = 8_410_993_739_469_404
        assert main(["simulate", "--n", "5", "--total", str(total),
                     "--t-end", "0", "--out", str(tmp_path / "t")]) == 0
        manifest = json.loads((tmp_path / "t" / "manifest.json").read_text())
        assert manifest["model"]["total"] == total
        assert sum(manifest["model"]["initial"]) == total

    def test_byte_identical_across_runs(self, tmp_path):
        outs = []
        for name in ("r1", "r2", "r3"):
            main(["simulate", "--initial", "20,20,20", "--replicas", "4",
                  "--base-seed", "8", "--events",
                  "--out", str(tmp_path / name)])
            outs.append(tmp_path / name)
        for name in ("samples.csv", "events.csv", "manifest.json"):
            ref = (outs[0] / name).read_bytes()
            assert (outs[1] / name).read_bytes() == ref
            assert (outs[2] / name).read_bytes() == ref

    def test_workers_is_not_an_option(self, tmp_path, capsys):
        # every replica runs in the calling thread; validate still accepts it
        out = tmp_path / "x"
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--workers", "2", "--out", str(out)])
        assert err.value.code == 2
        assert capsys.readouterr().err.endswith(
            "error: unrecognized arguments: --workers 2\n")
        assert not out.exists()

    def test_explicit_grid(self, tmp_path):
        main(["simulate", "--initial", "20,20,20", "--replicas", "1",
              "--grid", "0,0.25,1.0", "--out", str(tmp_path / "g")])
        ens = read_ensemble(tmp_path / "g")
        assert ens.grid.tolist() == [0.0, 0.25, 1.0]

    def test_domain_error_is_reported(self, tmp_path, capsys):
        rc = main(["simulate", "--initial", "1,1", "--replicas", "1",
                   "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


    def test_bad_grid_is_not_blamed_on_a_replica(self, tmp_path, capsys):
        rc = main(["simulate", "--initial", "3,3,3", "--replicas", "2",
                   "--grid", "0.5,0.2", "--out", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: grid must be ascending")


class TestBadListArguments:
    @pytest.mark.parametrize("argv, flag, token", [
        (["meanfield", "--u0", "a,b,c"], "--u0", "a"),
        (["fluctuation", "--u0", "0.5,0.5,x"], "--u0", "x"),
        (["simulate", "--initial", "1,x,1"], "--initial", "x"),
        (["simulate", "--initial", "1,1.5,1"], "--initial", "1.5"),
        (["simulate", "--fractions", "0.5,half,0"], "--fractions", "half"),
        (["simulate", "--grid", "0,1e,1"], "--grid", "1e"),
        (["meanfield", "--grid", "0;1"], "--grid", "0;1"),
        (["fluctuation", "--sigma0", "1,0,0,0,1,0,0,0,one"], "--sigma0", "one"),
    ])
    def test_non_numeric_token_is_a_domain_error(self, tmp_path, capsys,
                                                 argv, flag, token):
        rc = main(argv + ["--out", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag}: cannot parse {token!r}")


class TestBadNumbers:
    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--grid", "0,nan,1"], "grid times must be finite"),
        (["simulate", "--t-end", "inf"],
         "--t-end must be finite for the default grid"),
        (["simulate", "--t-end", "nan"],
         "--t-end must be finite for the default grid"),
        (["meanfield", "--t-end", "1", "--grid", "0,nan,1"],
         "grid times must be finite"),
        (["meanfield", "--t-end", "inf"],
         "--t-end must be finite for the default grid"),
        (["fluctuation", "--t-end", "1", "--grid", "0,nan,1"],
         "grid times must be finite"),
        (["fluctuation", "--t-end", "1", "--grid", "0,inf"],
         "grid times must be finite"),
        (["fluctuation", "--t-end", "inf"],
         "--t-end must be finite for the default grid"),
    ])
    def test_non_finite_grid_is_a_domain_error(self, tmp_path, capsys, argv,
                                               message):
        out = tmp_path / "x"
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag, value", [
        (["simulate", "--grid-points", "-3"], "--grid-points", -3),
        (["meanfield", "--grid-points", "-3"], "--grid-points", -3),
        (["fluctuation", "--grid-points", "-3"], "--grid-points", -3),
        (["fluctuation", "--paths", "-2"], "--paths", -2),
        (["simulate", "--max-events", "-1"], "--max-events", -1),
    ])
    def test_negative_count_is_a_domain_error(self, tmp_path, capsys, argv,
                                              flag, value):
        out = tmp_path / "x"
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            f"error: {flag} must be non-negative, got {value}\n"
        assert not out.exists()

    def test_rate_the_transitions_overflow_at_is_refused(self, tmp_path,
                                                        capsys):
        # the mean field stays at its fixed point; Phi and Q overflow, and
        # eigvalsh's LinAlgError escaped as a traceback before
        out = tmp_path / "x"
        assert main(["fluctuation", "--rate", "1e300", "--paths", "2",
                     "--out", str(out)]) == 1
        assert capsys.readouterr() == \
            ("", "error: transition (Phi, Q) is not finite over the steps to "
             "t=0.1\n")
        assert not out.exists()

    def test_total_past_2_to_the_53_is_refused(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["simulate", "--total", str(2**53 + 1),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            "error: population total must be at most 2**53")
        assert not out.exists()

    def test_total_past_the_double_range_is_refused(self, tmp_path, capsys):
        # the fractions' float products overflow before ModelSpec is built
        out = tmp_path / "x"
        assert main(["simulate", "--total", str(10**400),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            "error: population total must be at most 2**53")
        assert not out.exists()

    # sizes far past any machine's memory, so that nothing is allocated
    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--replicas", "10000000000000"],
         "10000000000000 replicas of 11 sample times, too many"),
        (["fluctuation", "--paths", "1000000000000"],
         "1000000000000 paths of 11 grid times, too many values"),
        (["simulate", "--grid-points", "1000000000000"],
         "--grid-points 1000000000000, too many sample times"),
        (["meanfield", "--grid-points", "1000000000000"],
         "--grid-points 1000000000000, too many sample times"),
    ])
    def test_count_past_memory_is_a_domain_error(self, tmp_path, capsys, argv,
                                                 message):
        out = tmp_path / "x"
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            f"error: {message} to hold in memory\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "meanfield",
                                         "fluctuation"])
    @pytest.mark.parametrize("n", [2, 0, -1])
    def test_too_few_species_names_the_flag(self, tmp_path, capsys, command,
                                            n):
        out = tmp_path / "x"
        assert main([command, "--n", str(n), "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            f"error: --n: need at least 3 species, got n={n}\n"
        assert not out.exists()

    # 10**12 species fail at once if anything of that size is built
    @pytest.mark.parametrize("command", ["simulate", "meanfield",
                                         "fluctuation"])
    @pytest.mark.parametrize("n", [32768, 10**12])
    def test_too_many_species_names_the_flag(self, tmp_path, capsys, command,
                                             n):
        out = tmp_path / "x"
        assert main([command, "--n", str(n), "--out", str(out)]) == 1
        assert capsys.readouterr() == \
            ("", "error: --n: at most 32767 species fit the int16 reaction "
             f"log, got n={n}\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag, given", [
        (["simulate", "--n", "5", "--fractions", "0.5,0.3,0.2"],
         "--fractions", 3),
        (["simulate", "--n", "4", "--initial", "9,3,5,7,1"], "--initial", 5),
        (["meanfield", "--n", "5", "--u0", "0.5,0.3,0.2"], "--u0", 3),
        (["fluctuation", "--n", "3", "--u0", "0.3,0.1,0.2,0.15,0.25"],
         "--u0", 5),
    ])
    def test_n_that_disagrees_with_the_list_names_both_flags(
            self, tmp_path, capsys, argv, flag, given):
        out = tmp_path / "x"
        assert main(argv + ["--out", str(out)]) == 1
        n = argv[argv.index("--n") + 1]
        assert capsys.readouterr().err == \
            f"error: {flag} has {given} values but --n is {n}\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_sigma0_is_a_domain_error(self, tmp_path, capsys,
                                                 value):
        out = tmp_path / "fl"
        rc = main(["fluctuation", "--t-end", "0.1",
                   f"--sigma0={value},0,0,0,1,0,0,0,1", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == \
            "error: covariance has a non-finite entry\n"
        assert not out.exists()


# sha256 of each output file at small fixed arguments, pinned when the files
# were last known good: any byte that changes fails here
SIMULATE_ARGS = ["simulate", "--initial", "20,20,20", "--replicas", "4",
                 "--t-end", "2", "--base-seed", "8", "--events"]
SIMULATE_SHA256 = {
    "samples.csv":
        "481cbb7296036fa376f415ddfcb2f81e749ded121944bf8dd46503dce86a4ea3",
    "events.csv":
        "8b512c902b868c57a0f741271208366a26095b2048a070ac38e2831a4356747d",
    "manifest.json":
        "1332e47730406a6e12a80dcefd8074ccbaf42f2158d0f4f2379c6a0e958f3a66",
    "grid.npy":
        "9e969e9bbc83848c2a5005d603abf45e9d4a217833cee0fafba2fa0a2a3f79a3",
    "samples.npy":
        "c864a0355d05287790822154a6e92d8c17d09fd708e0e00e4f0b75af49852401",
    "event_times.npy":
        "e69155237e56e82720a008fedf7eda38d52d27f26cbc1e935439ecf070735fc6",
    "event_reactions.npy":
        "17d7e1d0fc7da715a8b2531a41b2a36170322fd13907cc28f06ce9bd154b680b",
}
# 40 replicas take the lockstep engine, 4 take run_until once per replica
SIMULATE_40_SHA256 = {
    "samples.csv":
        "b6d0dd27ad077bd60923bbec98ce12a8d27a6970eb8df6ee88b60ae1fd25fda5",
    "events.csv":
        "cd0561987b9330b3d0aefd2e6effff6582178736a6bc669bcf84df0dd8a16d32",
    "manifest.json":
        "86a44cf91d3f8cc3efea6fa4ba6399c7f50e0b7bf787807a0b0defab58736ea0",
    "grid.npy":
        "9e969e9bbc83848c2a5005d603abf45e9d4a217833cee0fafba2fa0a2a3f79a3",
    "samples.npy":
        "8d4c27a6ee5ec8d62fcb549e710d435ec7450172242c66f36d3da74c8c1ee3d0",
    "event_times.npy":
        "8ae47bfa7bd9f141a0bb38f4b2ef19b213b9bcb841eadf642c0207219f898181",
    "event_reactions.npy":
        "66b2937b847b8fbed3fa5495f3f52747504110468e73a5bf76e04893f20249e4",
}
# five species: every pin above is at n = 3
SIMULATE_N5_ARGS = ["simulate", "--n", "5", "--replicas", "4", "--events"]
SIMULATE_N5_SHA256 = {
    "samples.csv":
        "a59f9fe6d5ab338d7e5a87b222f91fbe13a11de71439d27cf1a047ec4f1f2cd9",
    "events.csv":
        "35abc294ebb8005c20e1af72fd3903185ce80eedbf5708efd5c5494b5c6af3ec",
    "manifest.json":
        "579aa4fe9cb30dd78adef5c2e2d443eac7dc1eebad9e42d66f72990c10489e0c",
    "grid.npy":
        "aa96c42e615756b67be22d32e7420d34fc8d0305e1fa70093d696beadcb48488",
    "samples.npy":
        "cfe0d15892a7625ce0ea0bea53ba90afbb9dd3d24256a9b86bc0e8bd08a89839",
    "event_times.npy":
        "64b3e0586bc3d0b0ca1a62a19e3e0c5adc984d69a3033425f362c8471c62d061",
    "event_reactions.npy":
        "9675487d1095caf8585bfdc5cb65daa2382d9c8ac2fb1ff647fe0ffc2c4e393a",
}
MEANFIELD_ARGS = ["meanfield", "--u0", "0.5,0.3,0.2", "--t-end", "3",
                  "--grid-points", "7"]
MEANFIELD_SHA256 = \
    "c538289fe67cecd6a8156835ab84399f281c9be792ebce8288b5bb8c72578647"
FLUCTUATION_ARGS = ["fluctuation", "--u0", "0.5,0.3,0.2", "--t-end", "2",
                    "--step", "1e-2", "--grid-points", "9", "--paths", "5",
                    "--base-seed", "3"]
FLUCTUATION_SHA256 = {
    "meanfield.csv":
        "1eb1dba8a54b2ded80c65133676095aa30be91118a814aa88cf0f63c1076d563",
    "covariance.csv":
        "b107a4b14e7de60b9e8f63074c72ac9e2e5f0b9c765d4628fe008049f47beb5f",
    "paths.csv":
        "f03f86c2acdabe1682b7f0ac23fc3ade114c54c69b0ddd77d6cd928a83cfef4c",
}

# the covariance at the benchmark's scale: 10 000 RK4 steps, in 100
# intervals of two blocks each
COVARIANCE_ARGS = ["fluctuation", "--u0", "0.5,0.3,0.2", "--t-end", "10",
                   "--step", "1e-3", "--grid-points", "101", "--paths", "0"]
COVARIANCE_SHA256 = \
    "f377db95b3dd72c3f56451b7ee9806a8495901d71c7cf81b018908d4d7a59946"

# validate at small scales; 3000 Gillespie samples take the lockstep engine
# in two chunks
VALIDATE_INI = """\
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
gillespie_samples = 3000
"""
VALIDATE_SHA256 = {
    "gillespie.json":
        "9b5485e114209eaccea64929f8b27b286538e76cce8154768a9a7aa827df8770",
    "lln.json":
        "14caf5132cc9437e8cee1703deb2c71f2fb8f6459cfb84b17c34ea5e5bbf370e",
    "clt.json":
        "933c777db7e8a480305328a2fea9d39c0a7226ac23b2e9440346af4e8738a7c4",
    "martingale.json":
        "ac3b8b4ac5c57de51042a85b529272680ae004f78141a88a92ecaa46cc676e69",
    "summary.json":
        "8a357cb177a87a3c9399cc0e8f5db945aa952f28b4a62bf211fd38a13b3e5b9a",
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestPinnedOutput:
    def test_simulate(self, tmp_path):
        out = tmp_path / "sim"
        assert main(SIMULATE_ARGS + ["--out", str(out)]) == 0
        assert {name: sha256(out / name) for name in SIMULATE_SHA256} \
            == SIMULATE_SHA256

    def test_simulate_lockstep(self, tmp_path):
        out = tmp_path / "sim"
        args = SIMULATE_ARGS.copy()
        args[args.index("--replicas") + 1] = "40"
        assert main(args + ["--out", str(out)]) == 0
        assert {name: sha256(out / name) for name in SIMULATE_40_SHA256} \
            == SIMULATE_40_SHA256

    def test_simulate_five_species(self, tmp_path):
        out = tmp_path / "sim"
        assert main(SIMULATE_N5_ARGS + ["--out", str(out)]) == 0
        assert {name: sha256(out / name) for name in SIMULATE_N5_SHA256} \
            == SIMULATE_N5_SHA256

    def test_meanfield(self, tmp_path):
        out = tmp_path / "mf.csv"
        assert main(MEANFIELD_ARGS + ["--out", str(out)]) == 0
        assert sha256(out) == MEANFIELD_SHA256

    def test_fluctuation_paths(self, tmp_path):
        out = tmp_path / "fl"
        assert main(FLUCTUATION_ARGS + ["--out", str(out)]) == 0
        assert {name: sha256(out / name) for name in FLUCTUATION_SHA256} \
            == FLUCTUATION_SHA256

    def test_covariance(self, tmp_path):
        out = tmp_path / "fl"
        assert main(COVARIANCE_ARGS + ["--out", str(out)]) == 0
        assert sha256(out / "covariance.csv") == COVARIANCE_SHA256

    def test_validate(self, tmp_path):
        ini = tmp_path / "v.ini"
        ini.write_text(VALIDATE_INI)
        out = tmp_path / "rep"
        assert main(["validate", "--config", str(ini), "--out", str(out)]) == 0
        assert {name: sha256(out / name) for name in VALIDATE_SHA256} \
            == VALIDATE_SHA256


@pytest.mark.parametrize("argv", [
    ["simulate", "--replicas", "4"],
    ["simulate", "--replicas", "40"],
    ["fluctuation", "--paths", "2"],
    ["fluctuation", "--paths", "0"],
])
def test_negative_base_seed_is_a_domain_error(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main(argv + ["--base-seed", "-1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        "error: base seed must be a non-negative integer, got -1\n"
    assert not out.exists()


def test_validate_negative_base_seed_is_a_domain_error(tmp_path, capsys):
    ini = tmp_path / "v.ini"
    ini.write_text("[run]\nbase_seed = -3\n")
    out = tmp_path / "rep"
    assert main(["validate", "--config", str(ini), "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        "error: base seed must be a non-negative integer, got -3\n"
    assert not out.exists()


@pytest.mark.parametrize("command, argv, clash", [
    ("simulate", ["--replicas", "2"], "[Errno 17] File exists"),
    ("simulate", ["--replicas", "40"], "[Errno 17] File exists"),
    ("fluctuation", ["--t-end", "0.1", "--paths", "2"],
     "[Errno 17] File exists"),
    ("validate", [], "[Errno 17] File exists"),
    ("meanfield", ["--t-end", "0.1"], "[Errno 21] Is a directory"),
], ids=["simulate", "simulate-lockstep", "fluctuation", "validate",
        "meanfield"])
def test_out_that_clashes_with_the_filesystem_is_an_error(tmp_path, capsys,
                                                          command, argv,
                                                          clash):
    # a directory where a file goes, or a file where a directory goes
    out = tmp_path / "out"
    if command == "meanfield":
        out.mkdir()
    else:
        out.write_text("kept\n")
    if command == "validate":
        ini = tmp_path / "v.ini"
        ini.write_text(VALIDATE_INI)
        argv = ["--config", str(ini)]
    assert main([command, *argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {clash}: '{out}'\n"
    assert (out.read_text() == "kept\n" if out.is_file()
            else not any(out.iterdir()))


class TestMeanfieldCommand:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "mf.csv"
        rc = main(["meanfield", "--u0", "0.5,0.3,0.2", "--t-end", "2",
                   "--grid-points", "5", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "time,u1,u2,u3,sum,product"
        assert len(lines) == 6
        first = [float(v) for v in lines[1].split(",")]
        assert first[:4] == [0.0, 0.5, 0.3, 0.2]

    def test_symmetric_default(self, tmp_path):
        out = tmp_path / "mf.csv"
        main(["meanfield", "--n", "4", "--t-end", "1", "--grid-points", "2",
              "--out", str(out)])
        row = out.read_text().splitlines()[1].split(",")
        assert [float(v) for v in row[1:5]] == [0.25] * 4


    @pytest.mark.parametrize("rate", ["nan", "-1", "0"])
    def test_invalid_rate_is_rejected(self, tmp_path, capsys, rate):
        out = tmp_path / "mf.csv"
        rc = main(["meanfield", "--rate", rate, "--out", str(out)])
        assert rc == 1
        assert "collision rate must be positive and finite" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_too_many_steps_is_a_domain_error(self, tmp_path, capsys):
        # 10**12 steps: the (10**12 + 1, 3) state array cannot be allocated
        out = tmp_path / "mf.csv"
        rc = main(["meanfield", "--u0", "1,0,0", "--t-end", "1e9",
                   "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: t_end=1e+09 takes 1000000000000 steps of 0.001, too "
            "many states to hold in memory\n")
        assert not out.exists()


@pytest.mark.parametrize("command, out_name", [("meanfield", "mf.csv"),
                                               ("fluctuation", "fl")])
def test_blow_up_is_a_step_error(tmp_path, capsys, command, out_name):
    # one step of 1e30 overflows to nan, which the guard must not let pass
    out = tmp_path / out_name
    rc = main([command, "--u0", "0.5,0.3,0.2", "--step", "1e30",
               "--t-end", "3e30", "--grid-points", "3", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: component became nan at t=1e+30; integration left the "
        "simplex\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, table, time_column, rows", [
    (["simulate", "--replicas", "2"], "samples.csv", 1, 2),
    (["meanfield"], "", 0, 1),
    (["fluctuation"], "covariance.csv", 0, 1),
])
def test_zero_horizon_samples_time_zero_once(tmp_path, capsys, argv, table,
                                             time_column, rows):
    # at --t-end 0 the default grid is the one time 0, as --grid 0 gives
    outputs = []
    for grid in ([], ["--grid", "0"]):
        out = tmp_path / str(len(outputs))
        assert main(argv + ["--t-end", "0", "--out", str(out)] + grid) == 0
        outputs.append({f.relative_to(out): f.read_bytes()
                        for f in (out.iterdir() if out.is_dir() else [out])})
    capsys.readouterr()
    assert outputs[0] == outputs[1]
    lines = (tmp_path / "0" / table).read_bytes().splitlines()
    assert [line.split(b",")[time_column] for line in lines[1:]] == \
        [b"0"] * rows


class TestFluctuationCommand:
    def test_writes_covariance_and_paths(self, tmp_path):
        out = tmp_path / "fl"
        rc = main(["fluctuation", "--u0", "0.4,0.3,0.3", "--t-end", "0.5",
                   "--step", "1e-2", "--grid-points", "3", "--paths", "2",
                   "--base-seed", "5", "--out", str(out)])
        assert rc == 0
        assert (out / "meanfield.csv").exists()
        cov_lines = (out / "covariance.csv").read_text().splitlines()
        assert len(cov_lines) == 4
        paths_lines = (out / "paths.csv").read_text().splitlines()
        assert len(paths_lines) == 1 + 2 * 3

    def test_sigma0_parsing(self, tmp_path):
        out = tmp_path / "fl"
        main(["fluctuation", "--u0", "0.4,0.3,0.3", "--t-end", "0.1",
              "--step", "1e-2", "--grid-points", "2",
              "--sigma0", "1,0,0,0,1,0,0,0,1", "--out", str(out)])
        first = (out / "covariance.csv").read_text().splitlines()[1]
        vals = [float(v) for v in first.split(",")[1:]]
        assert np.allclose(np.array(vals).reshape(3, 3), np.eye(3))

    def test_empty_grid_is_a_domain_error(self, tmp_path, capsys):
        rc = main(["fluctuation", "--t-end", "0.1", "--grid-points", "0",
                   "--out", str(tmp_path / "fl")])
        assert rc == 1
        assert capsys.readouterr().err == \
            "error: no covariance states to write\n"

    @pytest.mark.parametrize("argv", [
        ["--grid-points", "0"],
        ["--grid-points", "0", "--paths", "3"],
        ["--sigma0", "1,0,0,0,-1,0,0,0,1"],
    ])
    def test_failure_leaves_no_file(self, tmp_path, argv):
        out = tmp_path / "fl"
        rc = main(["fluctuation", "--t-end", "0.1", "--out", str(out)] + argv)
        assert rc == 1
        assert not out.exists() or not any(out.iterdir())

    def test_sigma0_wrong_length_is_a_domain_error(self, tmp_path, capsys):
        rc = main(["fluctuation", "--t-end", "0.1", "--sigma0", "1,2,3",
                   "--out", str(tmp_path / "fl")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "initial covariance needs n² = 9 values, got 3" in err


class TestValidateCommand:
    def test_default_scales_are_too_slow_so_use_config(self, tmp_path):
        ini = tmp_path / "v.ini"
        ini.write_text(
            "[validate]\n"
            "lln_populations = 50, 200\nlln_replicas = 25\n"
            "lln_time = 0.5\nlln_grid_points = 11\nlln_median_bound = 0.3\n"
            "clt_population = 800\nclt_replicas = 120\nclt_time = 0.5\n"
            "clt_frobenius_bound = 0.5\n"
            "martingale_population = 50\nmartingale_replicas = 150\n"
            "martingale_z_bound = 4.5\n"
            "gillespie_samples = 1000\n"
        )
        rc = main(["validate", "--config", str(ini), "--workers", "2",
                   "--out", str(tmp_path / "rep")])
        assert rc == 0
        summary = json.loads((tmp_path / "rep" / "summary.json").read_text())
        assert summary["all"] is True
        for name in ("gillespie", "lln", "clt", "martingale"):
            assert (tmp_path / "rep" / f"{name}.json").exists()

    @pytest.mark.parametrize("setting, message", [
        (f"clt_population = {10**400}",
         "population total must be at most 2**53"),
        # past any machine's memory; refused as the LLN check's ensemble is
        # sized, after the Gillespie check has run
        ("lln_replicas = 10000000000000\ngillespie_samples = 1000",
         "10000000000000 replicas of 201 sample times, too many to hold in "
         "memory"),
        # refused with the other settings, before any ensemble runs
        ("lln_grid_points = 10000000000000",
         "lln_grid_points 10000000000000, too many sample times to hold in "
         "memory"),
    ])
    def test_too_large_a_setting_is_reported(self, tmp_path, capsys, setting,
                                             message):
        ini = tmp_path / "big.ini"
        ini.write_text(f"[validate]\n{setting}\n")
        rc = main(["validate", "--config", str(ini),
                   "--out", str(tmp_path / "rep")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_initial_counts_are_an_unknown_option(self, tmp_path, capsys):
        # the start state has one key, [model] fractions
        ini = tmp_path / "initial.ini"
        ini.write_text("[model]\ninitial = 5, 3, 2\n")
        rc = main(["validate", "--config", str(ini),
                   "--out", str(tmp_path / "rep")])
        assert rc == 1
        assert capsys.readouterr() == \
            ("", "error: [model] initial: unknown option\n")
        assert not (tmp_path / "rep").exists()

    def test_misspelt_config_option_is_reported(self, tmp_path, capsys):
        ini = tmp_path / "bad.ini"
        ini.write_text("[validate]\nlln_replica = 5\n")
        rc = main(["validate", "--config", str(ini),
                   "--out", str(tmp_path / "rep")])
        assert rc == 1
        assert capsys.readouterr().err == \
            "error: [validate] lln_replica: unknown option\n"

    @pytest.mark.parametrize("setting, message", [
        # ran all four checks, then failed the martingale check
        ("[validate]\nmartingale_z_bound = -1",
         "martingale_z_bound must be positive and finite, got -1.0"),
        ("[validate]\nlln_ratio_low = 3\nlln_ratio_high = 1",
         "lln_ratio_low must be below lln_ratio_high, got 3.0 and 1.0"),
        ("[model]\nlambda = -1",
         "[model] lambda: collision rate must be positive and finite, "
         "got -1.0"),
        # settings that no longer exist
        ("[validate]\ngillespie_counts = 1 1 1",
         "[validate] gillespie_counts: unknown option"),
        ("[validate]\ngillespie_lambda = 3.0",
         "[validate] gillespie_lambda: unknown option"),
        ("[validate]\nmeanfield_step = 1e-3",
         "[validate] meanfield_step: unknown option"),
        ("[run]\nworkers = 2", "[run] workers: unknown option"),
        # a species count is checked before anything of its size is built
        ("[model]\nn = 1000000000000",
         "[model] n: at most 32767 species fit the int16 reaction log, "
         "got n=1000000000000"),
    ])
    def test_bad_setting_fails_before_any_check(self, tmp_path, capsys,
                                                setting, message):
        ini = tmp_path / "bad.ini"
        ini.write_text(setting + "\n")
        rc = main(["validate", "--config", str(ini),
                   "--out", str(tmp_path / "rep")])
        assert rc == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_malformed_config_is_reported(self, tmp_path, capsys):
        ini = tmp_path / "bad.ini"
        ini.write_text("[model]\nn = abc\n")
        rc = main(["validate", "--config", str(ini),
                   "--out", str(tmp_path / "rep")])
        assert rc == 1
        assert "error: [model] n: cannot parse 'abc'" in capsys.readouterr().err
