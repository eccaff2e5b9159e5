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

    def test_byte_identical_across_runs_and_workers(self, tmp_path):
        outs = []
        for name, workers in (("r1", "1"), ("r2", "1"), ("r3", "4")):
            main(["simulate", "--initial", "20,20,20", "--replicas", "4",
                  "--workers", workers, "--base-seed", "8", "--events",
                  "--out", str(tmp_path / name)])
            outs.append(tmp_path / name)
        for name in ("samples.csv", "events.csv", "manifest.json"):
            ref = (outs[0] / name).read_bytes()
            assert (outs[1] / name).read_bytes() == ref
            assert (outs[2] / name).read_bytes() == ref

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

    def test_malformed_config_is_reported(self, tmp_path, capsys):
        ini = tmp_path / "bad.ini"
        ini.write_text("[model]\nn = abc\n")
        rc = main(["validate", "--config", str(ini),
                   "--out", str(tmp_path / "rep")])
        assert rc == 1
        assert "error: [model] n: cannot parse 'abc'" in capsys.readouterr().err
