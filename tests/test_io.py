import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
import rpsim.io
from hypothesis import given, settings
from hypothesis import strategies as st

from rpsim import (
    DomainError,
    ModelSpec,
    Trajectory,
    gillespie_equivalence_test,
    integrate,
    run_ensemble,
    run_until,
    rng_stream,
    trajectories_identical,
)
from rpsim.fluctuation import (
    CovarianceState,
    FluctuationModel,
    GaussianPath,
    propagate_covariance,
    run_sde_ensemble,
)
from rpsim.io import (
    fmt,
    read_ensemble,
    write_covariances,
    write_ensemble,
    write_gaussian_paths,
    write_json,
    write_meanfield,
    write_validation_reports,
)
from rpsim.meanfield import (ConservationAudit, MeanFieldPath,
                             conserved_quantities)
from rpsim.simulate import Ensemble

SPEC = ModelSpec(n=3, lam=1.0, total=60, initial=(20, 20, 20))
GRID = np.linspace(0.0, 1.0, 5)


class TestFmt:
    def test_known_renderings(self):
        assert fmt(0.1) == "0.10000000000000001"
        assert fmt(1.0) == "1"
        assert fmt(0.25) == "0.25"

    @pytest.mark.parametrize("x", [
        math.pi, 1e-17, 1 / 3, 2**-52, 1e300, -0.1, 123456789.123456789,
    ])
    def test_round_trips_exactly(self, x):
        assert float(fmt(x)) == x


def write_one(traj: Trajectory, out_dir):
    """Write ``traj`` as a one-replica ensemble; return its directory."""
    return write_ensemble(
        Ensemble.from_trajectories([dataclasses.replace(traj, seed=0)], 0),
        out_dir)


def read_one(out_dir) -> Trajectory:
    ens = read_ensemble(out_dir)
    assert ens.replicas == 1
    return ens.trajectories[0]


class TestTrajectoryRoundTrip:
    # a single trajectory is stored as a one-replica ensemble

    def test_with_event_log(self, tmp_path):
        traj = run_until(SPEC, 1.0, GRID, rng_stream(7, 0), seed=0,
                         record_events=True)
        back = read_one(write_one(traj, tmp_path / "t"))
        assert trajectories_identical(traj, back)

    def test_samples_only(self, tmp_path):
        traj = run_until(SPEC, 1.0, GRID, rng_stream(7, 0), seed=0,
                         record_events=False)
        back = read_one(write_one(traj, tmp_path / "t"))
        assert trajectories_identical(traj, back)
        assert not (tmp_path / "t" / "events.csv").exists()

    def test_absorbed_trajectory(self, tmp_path):
        spec = ModelSpec(n=3, lam=50.0, total=3, initial=(1, 1, 1))
        traj = run_until(spec, 100.0, np.linspace(0, 100, 6),
                         rng_stream(0, 0), seed=0, record_events=True)
        assert traj.absorbed is not None
        assert trajectories_identical(
            traj, read_one(write_one(traj, tmp_path / "t")))


class TestEnsembleRoundTrip:
    def test_with_logs(self, tmp_path):
        ens = run_ensemble(SPEC, 4, 1.0, GRID, base_seed=3,
                           record_events=True)
        write_ensemble(ens, tmp_path / "e")
        back = read_ensemble(tmp_path / "e")
        assert back.base_seed == 3
        assert back.spec == ens.spec
        for a, b in zip(ens.trajectories, back.trajectories):
            assert trajectories_identical(a, b)

    def test_without_logs(self, tmp_path):
        ens = run_ensemble(SPEC, 4, 1.0, GRID, base_seed=3,
                           record_events=False)
        write_ensemble(ens, tmp_path / "e")
        back = read_ensemble(tmp_path / "e")
        for a, b in zip(ens.trajectories, back.trajectories):
            assert trajectories_identical(a, b)

    def test_manifest_contents(self, tmp_path):
        ens = run_ensemble(SPEC, 4, 1.0, GRID, base_seed=3)
        write_ensemble(ens, tmp_path / "e")
        manifest = json.loads((tmp_path / "e" / "manifest.json").read_text())
        assert manifest["kind"] == "ensemble"
        assert manifest["replicas"] == 4
        assert manifest["model"]["initial"] == [20, 20, 20]
        assert len(manifest["trajectories"]) == 4


def test_writers_are_byte_deterministic(tmp_path):
    for d in ("a", "b"):
        ens = run_ensemble(SPEC, 3, 1.0, GRID, base_seed=5,
                           record_events=True)
        write_ensemble(ens, tmp_path / d)
    for name in ("samples.csv", "events.csv", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_write_meanfield(tmp_path):
    path = integrate(np.array([0.5, 0.3, 0.2]), 1.0, t_end=1.0,
                     grid=np.linspace(0, 1, 3))
    out = write_meanfield(path, tmp_path / "mf.csv")
    lines = out.read_text().splitlines()
    assert lines[0] == "time,u1,u2,u3,sum,product"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert [float(v) for v in first[:4]] == [0.0, 0.5, 0.3, 0.2]
    # conserved columns round-trip the actual invariants
    assert float(first[4]) == pytest.approx(1.0, abs=1e-15)
    assert float(first[5]) == pytest.approx(0.03, abs=1e-15)


def test_write_covariances(tmp_path):
    path = integrate(np.full(3, 1 / 3), 1.0, t_end=1.0,
                     grid=np.array([0.0, 1.0]))
    model = FluctuationModel.from_path(path, 1.0)
    states = propagate_covariance(model, np.zeros((3, 3)))
    out = write_covariances(states, tmp_path / "cov.csv")
    lines = out.read_text().splitlines()
    assert lines[0].startswith("time,s11,s12,s13,s21")
    assert len(lines) == 3
    row = [float(v) for v in lines[2].split(",")]
    assert row[0] == 1.0
    assert np.allclose(np.array(row[1:]).reshape(3, 3), states[1].sigma)


def test_write_gaussian_paths(tmp_path):
    path = integrate(np.full(3, 1 / 3), 1.0, t_end=0.5,
                     grid=np.array([0.0, 0.5]))
    model = FluctuationModel.from_path(path, 1.0)
    paths = run_sde_ensemble(model, None, 1e-3, np.array([0.0, 0.5]), 3,
                             base_seed=2)
    out = write_gaussian_paths(paths, tmp_path / "p.csv")
    lines = out.read_text().splitlines()
    assert lines[0] == "replica,time,v1,v2,v3"
    assert len(lines) == 1 + 3 * 2
    assert lines[1].split(",")[0] == "0"
    assert float(lines[2].split(",")[1]) == 0.5


def test_write_validation_reports(tmp_path):
    spec = ModelSpec(n=3, lam=3.0, total=3, initial=(1, 1, 1))
    rep = gillespie_equivalence_test(spec, 500, base_seed=1)
    out = write_validation_reports({"gillespie": rep}, tmp_path / "r")
    summary = json.loads((out / "summary.json").read_text())
    assert summary == {"gillespie": True, "all": True}
    detail = json.loads((out / "gillespie.json").read_text())
    assert detail["pass"] is True
    assert detail["samples"] == 500


@pytest.mark.parametrize("replicas", [3, 40])
def test_numpy_integers_write_the_same_bytes(tmp_path, replicas):
    # a numpy seed or spec field used to leave a manifest cut off mid-key
    spec = ModelSpec(n=np.int64(3), lam=np.float64(1.0), total=np.int32(60),
                     initial=np.array([20, 20, 20]))
    for d, args in (("py", (SPEC, replicas, 1.0, GRID, 5)),
                    ("np", (spec, np.int64(replicas), 1.0, GRID,
                            np.int64(5)))):
        write_ensemble(run_ensemble(*args, record_events=True), tmp_path / d)
    for name in ("samples.csv", "events.csv", "manifest.json"):
        assert (tmp_path / "py" / name).read_bytes() == \
            (tmp_path / "np" / name).read_bytes()


def test_unencodable_report_leaves_no_file(tmp_path):
    with pytest.raises(TypeError, match="not JSON serializable"):
        write_validation_reports({"lln": {"pass": True, "M": np.int64(5)}},
                                 tmp_path / "r")
    assert not (tmp_path / "r" / "lln.json").exists()


def test_write_json_sorts_keys(tmp_path):
    write_json({"b": 1, "a": 2}, tmp_path / "x.json")
    text = (tmp_path / "x.json").read_text()
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")


# -- the block formatter against ``%`` ---------------------------------------

def block_cells(values) -> list[str]:
    """The cells that the writers' block formatter renders for ``values``,
    one CSV column."""
    text = rpsim.io._csv_block([np.asarray(values)]).tobytes().decode()
    assert text.endswith("\n")
    return text[:-1].split("\n")


def as_double(bits: int) -> float:
    return float(np.uint64(bits).view(np.float64))


class TestBlockFormatter:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(
        # any bit pattern: nan payloads, infinities, subnormals, both zeros
        st.integers(0, 2**64 - 1).map(as_double),
        # the fixed-notation range and its ends
        st.floats(1e-5, 1e17).flatmap(lambda x: st.sampled_from([x, -x]))),
        min_size=1, max_size=64))
    def test_floats_match_percent_17g(self, values):
        assert block_cells(np.array(values)) == ["%.17g" % v for v in values]

    @staticmethod
    def edge_values() -> list[float]:
        values = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                  2.2250738585072014e-308, np.finfo(float).max, 2.0**53,
                  2.0**53 + 2, 2.0**54]
        for k in range(-5, 18):
            p = float(f"1e{k}")
            # 10^k and one ulp each side, where log10 may misjudge the
            # exponent and where (just below) the 17 digits come closest to
            # rounding up into the next one
            values += [p, np.nextafter(p, 0), np.nextafter(p, math.inf)]
        for p in (1e-4, 1e16):
            values += [np.nextafter(np.nextafter(p, 0), 0),
                       np.nextafter(np.nextafter(p, math.inf), math.inf)]
        # exact ties at the 17th digit, which round half to even
        values += [1 + 2.0**-17, 3 + 2.0**-17, 1 + 3 * 2.0**-17,
                   2.0**-17, 1 + 2.0**-20, 2.0**52 + 0.5, 2.0**51 + 0.25]
        return values + [-v for v in values]

    def test_edge_values_match_percent_17g(self):
        values = self.edge_values()
        assert block_cells(np.array(values)) == ["%.17g" % v for v in values]
        # each alone too: the layout of a block depends on all its cells
        for v in values:
            assert block_cells(np.array([v])) == ["%.17g" % v]

    @pytest.mark.parametrize("dtype", [np.int16, np.int64])
    def test_integers_match_str(self, dtype):
        info = np.iinfo(dtype)
        edges = [info.min, info.min + 1, -10000, -9999, -10, -9, -1, 0, 1,
                 9, 10, 99, 100, 9999, 10000, info.max - 1, info.max]
        rng = np.random.default_rng(0)
        x = np.concatenate([np.array(edges, dtype=dtype), rng.integers(
            info.min, info.max, 1000, dtype=dtype, endpoint=True)])
        assert block_cells(x) == [str(int(c)) for c in x]
        for c in edges:
            assert block_cells(np.array([c], dtype=dtype)) == [str(int(c))]


# -- block writers against the row-by-row writers they replaced ------------
#
# The reference below formats one row at a time with one ``%.17g`` per float
# and ``str(int(.))`` per count, as the writers did before they formatted
# blocks of rows; every writer must match it byte for byte.

def ref_fmt(x) -> str:
    return "%.17g" % float(x)


def ref_csv(header, rows) -> str:
    return "".join(",".join(cells) + "\n" for cells in [header, *rows])


def reference_ensemble_csvs(trajs) -> dict:
    """samples.csv and events.csv as the row-by-row writers rendered them."""
    n = trajs[0].spec.n
    files = {"samples.csv": ref_csv(
        ["replica", "time"] + [f"x{j + 1}" for j in range(n)],
        [[str(i), ref_fmt(t)] + [str(int(c)) for c in row]
         for i, tr in enumerate(trajs) for t, row in zip(tr.grid, tr.samples)])}
    if all(tr.has_event_log for tr in trajs):
        files["events.csv"] = ref_csv(
            ["replica", "time", "reaction"],
            [[str(i), ref_fmt(t), str(int(r))] for i, tr in enumerate(trajs)
             for t, r in zip(tr.event_times, tr.event_reactions)])
    return files


def reference_meanfield(path) -> str:
    rows = []
    for st in path.states:
        s, p = conserved_quantities(st.u)
        rows.append([ref_fmt(st.time)] + [ref_fmt(v) for v in st.u]
                    + [ref_fmt(s), ref_fmt(p)])
    return ref_csv(["time"] + [f"u{j + 1}" for j in range(path.n)]
                   + ["sum", "product"], rows)


def reference_covariances(states) -> str:
    n = states[0].sigma.shape[0]
    return ref_csv(
        ["time"] + [f"s{j + 1}{k + 1}" for j in range(n) for k in range(n)],
        [[ref_fmt(st.time)] + [ref_fmt(v) for v in st.sigma.ravel()]
         for st in states])


def reference_gaussian_paths(paths) -> str:
    n = paths[0].values.shape[1]
    return ref_csv(
        ["replica", "time"] + [f"v{j + 1}" for j in range(n)],
        [[str(i), ref_fmt(t)] + [ref_fmt(v) for v in row]
         for i, p in enumerate(paths) for t, row in zip(p.grid, p.values)])


SPECIAL = [-0.0, 5e-324, 1 / 3, 1e300]   # ascending, so also a valid grid
# crosses a reader chunk boundary and a writer block boundary (a block has
# at most _WRITE_CELLS cells, and so at most as many rows)
BLOCK = max(rpsim.io._CHUNK, rpsim.io._WRITE_CELLS) + 4


def replayed_final_counts(spec, reactions) -> tuple:
    counts = list(spec.initial)
    for r in reactions.tolist():
        counts[r] += 1
        counts[(r + 1) % spec.n] -= 1
    return tuple(counts)


def synthetic(spec, grid, event_times, seed=0) -> Trajectory:
    """A trajectory with the given grid and event times; the counts and
    reactions are random but valid, and the final counts replay the log."""
    rng = np.random.default_rng(seed)
    logged = event_times is not None
    samples = rng.multinomial(spec.total, np.full(spec.n, 1 / spec.n),
                              size=len(grid))
    reactions = (rng.integers(0, spec.n, len(event_times)).astype(np.int16)
                 if logged else None)
    return Trajectory(
        spec=spec, seed=seed, grid=np.asarray(grid, dtype=float),
        samples=samples,
        event_times=np.asarray(event_times, dtype=float) if logged else None,
        event_reactions=reactions, absorbed=None,
        final_counts=(replayed_final_counts(spec, reactions) if logged
                      else spec.initial),
        final_time=1.0)


def synthetic_ensemble(spec, grid, event_logs) -> Ensemble:
    return Ensemble.from_trajectories(
        [synthetic(spec, grid, ev, seed=i) for i, ev in enumerate(event_logs)],
        0)


SPEC4 = ModelSpec(n=4, lam=1.0, total=40, initial=(10, 10, 10, 10))
SPEC5 = ModelSpec(n=5, lam=2.0, total=25, initial=(9, 3, 5, 7, 1))
ENSEMBLES = {
    "special-values": lambda: synthetic_ensemble(
        SPEC, SPECIAL, [SPECIAL, SPECIAL[1:]]),
    "empty-grid": lambda: synthetic_ensemble(SPEC, [], [[0.5, 0.7], []]),
    "zero-event-replicas": lambda: synthetic_ensemble(
        SPEC, GRID, [[], [0.1, 0.2], []]),
    "all-zero-events": lambda: synthetic_ensemble(SPEC, GRID, [[], []]),
    "samples-only": lambda: synthetic_ensemble(SPEC, GRID, [None, None]),
    "n=4": lambda: run_ensemble(SPEC4, 3, 1.0, GRID, base_seed=1,
                                record_events=True),
    "n=5": lambda: run_ensemble(SPEC5, 3, 1.0, GRID, base_seed=1,
                                record_events=True),
    "over-one-chunk": lambda: synthetic_ensemble(
        SPEC, np.linspace(0.0, 1.0, BLOCK),
        [[], np.sort(np.random.default_rng(0).random(BLOCK))]),
}


def assert_same_bits(a: Trajectory, b: Trajectory) -> None:
    """``trajectories_identical``, plus dtypes and bits (so -0.0 != 0.0)."""
    assert trajectories_identical(a, b)
    for name in ("grid", "samples", "event_times", "event_reactions"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None), name
        if x is not None:
            assert (x.dtype, x.shape, x.tobytes()) == \
                (y.dtype, y.shape, y.tobytes()), name


def assert_files(out, expected: dict) -> None:
    assert sorted(p.name for p in out.glob("*.csv")) == sorted(expected)
    for name, text in expected.items():
        assert (out / name).read_bytes() == text.encode(), name


@pytest.mark.parametrize("case", ENSEMBLES)
class TestBlockWritersAndReaders:
    def test_ensemble_bytes_and_round_trip(self, tmp_path, case):
        ens = ENSEMBLES[case]()
        write_ensemble(ens, tmp_path / "e")
        assert_files(tmp_path / "e", reference_ensemble_csvs(ens.trajectories))
        back = read_ensemble(tmp_path / "e")
        assert back.replicas == ens.replicas
        for a, b in zip(ens.trajectories, back.trajectories):
            assert_same_bits(a, b)

    def test_trajectory_bytes_and_round_trip(self, tmp_path, case):
        # each replica alone, as a one-replica ensemble
        for i, traj in enumerate(ENSEMBLES[case]().trajectories):
            out = write_one(traj, tmp_path / f"t{i}")
            assert_files(out, reference_ensemble_csvs([traj]))
            assert_same_bits(dataclasses.replace(traj, seed=0), read_one(out))


def meanfield_path(times, rows, indices=None) -> MeanFieldPath:
    """A path whose step ``indices[k]`` (default: step k) of ``rows`` serves
    time ``times[k]``, audited as integrate audits its steps."""
    rows = np.asarray(rows, dtype=float)
    return MeanFieldPath(
        grid=np.asarray(times, dtype=float),
        indices=np.arange(len(times)) if indices is None else indices,
        step=1.0, step_states=rows,
        invariant_audit=ConservationAudit(
            times=np.arange(len(rows), dtype=float), sums=rows.sum(axis=1),
            products=rows.prod(axis=1)))


MEANFIELD_PATHS = {
    "special-values": lambda: meanfield_path(
        SPECIAL, [SPECIAL, SPECIAL[::-1], [0.25] * 4, [1e-300] * 4]),
    "empty-grid": lambda: meanfield_path([], np.empty((0, 3))),
    "n=5": lambda: integrate(np.array([0.3, 0.1, 0.2, 0.15, 0.25]), 1.0,
                             t_end=1.0, grid=np.linspace(0.0, 1.0, 11)),
    "over-one-chunk": lambda: meanfield_path(
        np.arange(BLOCK) / 3.0,
        np.random.default_rng(0).dirichlet(np.ones(3), 7), np.arange(BLOCK) % 7),
}


@pytest.mark.parametrize("case", MEANFIELD_PATHS)
def test_write_meanfield_matches_reference(tmp_path, case):
    path = MEANFIELD_PATHS[case]()
    write_meanfield(path, tmp_path / "mf.csv")
    assert (tmp_path / "mf.csv").read_bytes() == \
        reference_meanfield(path).encode()


def covariance_states(n_rows, n=3) -> list:
    """``n_rows`` states cycling through 7 distinct covariances."""
    rng = np.random.default_rng(0)
    cycle = []
    for k in range(7):
        a = rng.standard_normal((n, n))
        cycle.append(CovarianceState(sigma=a @ a.T, time=k / 3.0))
    return [cycle[i % 7] for i in range(n_rows)]


COVARIANCES = {
    "special-values": lambda: [
        CovarianceState(sigma=np.array([[1 / 3, -0.0, 0.0],
                                        [-0.0, 5e-324, 0.0],
                                        [0.0, 0.0, 1e300]]), time=t)
        for t in SPECIAL],
    "n=4": lambda: covariance_states(5, n=4),
    "n=5": lambda: covariance_states(5, n=5),
    "over-one-chunk": lambda: covariance_states(BLOCK, n=1),
}


@pytest.mark.parametrize("case", COVARIANCES)
def test_write_covariances_matches_reference(tmp_path, case):
    states = COVARIANCES[case]()
    write_covariances(states, tmp_path / "cov.csv")
    assert (tmp_path / "cov.csv").read_bytes() == \
        reference_covariances(states).encode()


GAUSSIAN_PATHS = {
    "special-values": lambda: [
        GaussianPath(grid=np.array(SPECIAL),
                     values=np.array([SPECIAL, SPECIAL[::-1], SPECIAL,
                                      [-1e300, -5e-324, -1 / 3, 0.0]]))] * 2,
    "empty-grid": lambda: [GaussianPath(grid=np.empty(0),
                                        values=np.empty((0, 3)))] * 3,
    "n=5": lambda: [GaussianPath(grid=np.linspace(0.0, 1.0, 4),
                                 values=np.random.default_rng(i)
                                 .standard_normal((4, 5)))
                    for i in range(3)],
    "over-one-chunk": lambda: [GaussianPath(
        grid=np.linspace(0.0, 1.0, BLOCK),
        values=np.random.default_rng(0).standard_normal((BLOCK, 3)))],
}


@pytest.mark.parametrize("case", GAUSSIAN_PATHS)
def test_write_gaussian_paths_matches_reference(tmp_path, case):
    paths = GAUSSIAN_PATHS[case]()
    write_gaussian_paths(paths, tmp_path / "p.csv")
    assert (tmp_path / "p.csv").read_bytes() == \
        reference_gaussian_paths(paths).encode()


def test_no_covariance_states_is_a_domain_error(tmp_path):
    # an empty grid leaves no states, and so no n for the header
    with pytest.raises(DomainError, match="no covariance states"):
        write_covariances([], tmp_path / "cov.csv")


def test_no_gaussian_paths_is_a_domain_error(tmp_path):
    # no paths, and so no n for the header
    with pytest.raises(DomainError, match="no paths to write"):
        write_gaussian_paths([], tmp_path / "p.csv")
    assert not (tmp_path / "p.csv").exists()


class TestMalformedInput:
    @pytest.fixture
    def ens_dir(self, tmp_path):
        ens = run_ensemble(SPEC, 3, 1.0, GRID, base_seed=3,
                           record_events=True)
        return write_ensemble(ens, tmp_path / "e")

    @staticmethod
    def corrupt(path, line: int, cells: str) -> None:
        lines = path.read_text().splitlines(keepends=True)
        lines[line] = cells + "\n"
        path.write_text("".join(lines))

    @pytest.mark.parametrize("name, line, cells, message", [
        ("samples.csv", 2, "0,0.25,20,19.5,21", "'19.5' to int64"),
        ("samples.csv", 2, "0,0.25,20,20.0,20", "'20.0' to int64"),
        ("samples.csv", 3, "0,abc,20,20,20", "'abc' to float64"),
        ("samples.csv", 3, "0,0.5,20,20", "requires 5 columns but 4"),
        ("samples.csv", 3, "0,0.5,20,20,20,0", "requires 5 columns but 6"),
        ("events.csv", 1, "0,0.01,1.0", "'1.0' to int16"),
        ("events.csv", 1, "0,0.01,x", "'x' to int16"),
        ("events.csv", 1, "0,0.01,40000", "'40000' to int16"),
        ("events.csv", 2, "0,1e,1", "'1e' to float64"),
        ("events.csv", 2, "0,0.01", "requires 3 columns but 2"),
        ("events.csv", 1, "7,0.01,1", "not grouped by replica 0..2"),
        ("events.csv", 1, "-1,0.01,1", "not grouped by replica 0..2"),
        ("samples.csv", 1, "2,0,20,20,20", "not grouped by replica 0..2"),
    ])
    def test_is_a_domain_error_naming_the_file(self, ens_dir, name, line,
                                              cells, message):
        self.corrupt(ens_dir / name, line, cells)
        with pytest.raises(DomainError) as err:
            read_ensemble(ens_dir)
        assert str(err.value).startswith(f"{ens_dir / name}: ")
        assert message in str(err.value)

    def test_truncated_event_log_is_a_domain_error(self, ens_dir):
        # the last replica loses 5 events: its count and its replayed final
        # counts both disagree with the manifest
        events = ens_dir / "events.csv"
        lines = events.read_text().splitlines(keepends=True)
        assert lines[-6].startswith("2,")
        events.write_text("".join(lines[:-5]))
        with pytest.raises(DomainError) as err:
            read_ensemble(ens_dir)
        n_events = json.loads((ens_dir / "manifest.json").read_text())[
            "trajectories"][2]["n_events"]
        assert str(err.value) == (f"{events}: replica 2 has {n_events - 5} "
                                  f"events, the manifest says {n_events}")

    @pytest.mark.parametrize("cells, message", [
        ("0,{t},{r}", "replica 0 replays to final counts"),
        ("0,{t},3", "replica 0 has a reaction outside 0..2"),
        ("0,{t},-1", "replica 0 has a reaction outside 0..2"),
    ])
    def test_altered_reaction_is_a_domain_error(self, ens_dir, cells,
                                                message):
        events = ens_dir / "events.csv"
        _, t, r = events.read_text().splitlines()[1].split(",")
        self.corrupt(events, 1, cells.format(t=t, r=(int(r) + 1) % 3))
        with pytest.raises(DomainError) as err:
            read_ensemble(ens_dir)
        assert str(err.value).startswith(f"{events}: {message}")

    def test_truncated_trajectory_log_is_a_domain_error(self, tmp_path):
        traj = run_until(SPEC, 1.0, GRID, rng_stream(7, 0), seed=0,
                         record_events=True)
        out = write_one(traj, tmp_path / "t")
        events = out / "events.csv"
        events.write_text("".join(
            events.read_text().splitlines(keepends=True)[:-1]))
        with pytest.raises(DomainError, match="replica 0 has"):
            read_ensemble(out)

    @pytest.mark.parametrize("edit, message", [
        (lambda m: m.update(kind="trajectory"),
         "kind is 'trajectory', expected 'ensemble'"),
        (lambda m: m.pop("kind"), "kind is None, expected 'ensemble'"),
        (lambda m: m["trajectories"][2].update(seed=5),
         "replica seeds are not 0..R-1, R >= 1"),
        (lambda m: m["trajectories"].reverse(),
         "replica seeds are not 0..R-1, R >= 1"),
        (lambda m: m["trajectories"][1].update(has_event_log=False),
         "replicas mix kept and dropped event logs"),
        (lambda m: m.update(trajectories=[]),
         "replica seeds are not 0..R-1, R >= 1"),
        (lambda m: m["model"].update(initial=[30, 30]),
         "model: initial counts have length 2, expected n=3"),
        (lambda m: m["model"].update({"lambda": -1.0}),
         "model: collision rate must be positive and finite, got -1.0"),
        (lambda m: m.pop("model"), "missing key 'model'"),
        (lambda m: m["model"].pop("total"), "missing key 'total'"),
        (lambda m: m["trajectories"][1].pop("final_time"),
         "missing key 'final_time'"),
        # fields of the wrong type, which were truncated, read as they were
        # or raised a bare TypeError or ValueError
        (lambda m: m["model"].update(total=60.0, initial=[20.5, 19.5, 20]),
         "model: population total must be an integer, got 60.0"),
        (lambda m: m["model"].update(initial=[20.5, 19.5, 20]),
         "model: initial counts must be integers, got [20.5, 19.5, 20]"),
        (lambda m: m["model"].update(initial=[20, None, 40]),
         "model: initial counts must be integers, got [20, None, 40]"),
        (lambda m: m["model"].update(initial="abc"),
         "model: initial counts must be integers, got 'abc'"),
        (lambda m: m["model"].update({"lambda": True}),
         "model: collision rate must be a real number, got True"),
        (lambda m: m["model"].update({"lambda": "1.0"}),
         "model: collision rate must be a real number, got '1.0'"),
        (lambda m: m["model"].update(total="60"),
         "model: population total must be an integer, got '60'"),
        (lambda m: m.update(model=5), "model: expected an object, got 5"),
        (lambda m: m.update(base_seed=-1),
         "base seed must be a non-negative integer, got -1"),
        (lambda m: m.update(base_seed="x"),
         "base seed must be a non-negative integer, got 'x'"),
        (lambda m: m.update(trajectories=5),
         "trajectories must be a list of objects"),
        (lambda m: m["trajectories"][1].update(absorbed="x"),
         "absorption and final times must be finite non-negative numbers"),
        (lambda m: m["trajectories"][1].update(final_time=None),
         "absorption and final times must be finite non-negative numbers"),
        (lambda m: m["trajectories"][1].update(final_time=-5.0),
         "absorption and final times must be finite non-negative numbers"),
        (lambda m: m["trajectories"][1].update(has_event_log=[]),
         "has_event_log must be true or false"),
        (lambda m: [t.update(has_event_log="yes") for t in m["trajectories"]],
         "has_event_log must be true or false"),
        # without event logs, nothing replays the final counts
        *((lambda m, c=c: [t.update(has_event_log=False, final_counts=c)
                           for t in m["trajectories"]],
           "final counts must be 3 non-negative integers summing to 60")
          for c in ([1, 2], "x", [99, 0, 0], [70, -10, 0], [20.0, 20, 20])),
        # the file's whole text
        ("[1, 2]", "not a JSON object"),
        ('{"kind": ',
         "not valid JSON: Expecting value: line 1 column 10 (char 9)"),
    ])
    def test_bad_manifest_is_a_domain_error(self, ens_dir, edit, message):
        path = ens_dir / "manifest.json"
        if isinstance(edit, str):
            path.write_text(edit)
        else:
            manifest = json.loads(path.read_text())
            edit(manifest)
            path.write_text(json.dumps(manifest))
        with pytest.raises(DomainError) as err:
            read_ensemble(ens_dir)
        assert str(err.value) == f"{path}: {message}"

    @pytest.mark.parametrize("name, line, cells, message", [
        # replica 1's first sample time moves off the shared grid
        ("samples.csv", 6, "1,0.125,{2},{3},{4}",
         "replicas do not share one grid"),
        ("samples.csv", 2, "0,nan,{2},{3},{4}",
         "grid times must be finite, got nan"),
        ("samples.csv", 2, "0,0.75,{2},{3},{4}", "grid must be ascending"),
        ("samples.csv", 2, "0,{1},{2},{3},7", "breaks population conservation"),
        ("events.csv", 1, "0,1.5,{2}", "replica 0 has event times out of order"),
    ])
    def test_bad_samples_or_events_are_a_domain_error(self, ens_dir, name,
                                                      line, cells, message):
        path = ens_dir / name
        old = path.read_text().splitlines()[line].split(",")
        self.corrupt(path, line, cells.format(*old))
        with pytest.raises(DomainError) as err:
            read_ensemble(ens_dir)
        assert str(err.value).startswith(f"{path}: ")
        assert message in str(err.value)

    def test_replica_with_a_missing_sample_is_a_domain_error(self, ens_dir):
        path = ens_dir / "samples.csv"
        lines = path.read_text().splitlines(keepends=True)
        assert lines[6].startswith("1,0,")
        path.write_text("".join(lines[:6] + lines[7:]))
        with pytest.raises(DomainError) as err:
            read_ensemble(ens_dir)
        assert str(err.value) == f"{path}: replicas do not share one grid"

    def test_loadtxt_row_is_named(self, ens_dir):
        self.corrupt(ens_dir / "samples.csv", 4, "0,0.75,20,x,20")
        with pytest.raises(DomainError, match=r"at row 3, column 4"):
            read_ensemble(ens_dir)

    @pytest.mark.parametrize("cells, message", [
        ("{0},x,{2}", "could not convert string 'x' to float64 at row 9,"),
        ("{0},{1}", "requires 3 columns but 2 were found at row 10;"),
    ])
    def test_row_past_the_first_block_is_named_by_its_file_row(
            self, ens_dir, monkeypatch, cells, message):
        # events.csv is read 4 rows at a time; line 10 is in the third block
        events = ens_dir / "events.csv"
        old = events.read_text().splitlines()[10].split(",")
        self.corrupt(events, 10, cells.format(*old))
        with pytest.raises(DomainError) as whole:
            read_ensemble(ens_dir)
        monkeypatch.setattr(rpsim.io, "_CHUNK", 4)
        with pytest.raises(DomainError) as blocked:
            read_ensemble(ens_dir)
        assert str(blocked.value) == str(whole.value)
        assert message in str(blocked.value)

    def test_blank_lines_between_blocks_are_skipped(self, ens_dir,
                                                    monkeypatch):
        # one row a block: each empty line comes where a block would start
        monkeypatch.setattr(rpsim.io, "_CHUNK", 1)
        expected = read_ensemble(ens_dir)
        events = ens_dir / "events.csv"
        lines = events.read_text().splitlines(keepends=True)
        events.write_text("".join(lines[:5] + ["\n", "\n"] + lines[5:]
                                  + ["\n"]))
        back = read_ensemble(ens_dir)
        assert np.array_equal(back.event_times, expected.event_times)
        assert np.array_equal(back.event_offsets, expected.event_offsets)

    @pytest.mark.parametrize("n_events, message", [
        (10**12, "the manifest counts 1000000000"),
        (-1, "n_events must be non-negative integers"),
        (2.5, "n_events must be non-negative integers"),
    ])
    def test_manifest_event_count_is_checked_before_allocating(
            self, ens_dir, n_events, message):
        # 10**12 events would be 10 TB of arrays; the file cannot hold them
        path = ens_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["trajectories"][1]["n_events"] = n_events
        path.write_text(json.dumps(manifest))
        with pytest.raises(DomainError) as err:
            read_ensemble(ens_dir)
        assert str(err.value).startswith(f"{ens_dir / 'events.csv'}: ")
        assert message in str(err.value)

    def test_empty_file_is_a_domain_error(self, ens_dir):
        (ens_dir / "events.csv").write_text("")
        with pytest.raises(DomainError, match="empty file"):
            read_ensemble(ens_dir)

    def test_header_only_events_read_as_empty_logs(self, ens_dir):
        # a run in which no replica fired leaves events.csv with its header
        ens = synthetic_ensemble(SPEC, GRID, [[], [], []])
        write_ensemble(ens, ens_dir)
        assert (ens_dir / "events.csv").read_text() == "replica,time,reaction\n"
        for traj in read_ensemble(ens_dir).trajectories:
            assert traj.event_times.dtype == np.float64
            assert traj.event_reactions.dtype == np.int16
            assert traj.n_events == 0


def test_read_holds_the_event_log_once_plus_one_block(tmp_path, monkeypatch):
    # events.csv is parsed a block of rows at a time into arrays sized from
    # the manifest, so the reader's peak above its result is one parsed
    # block (numpy.loadtxt allocates its max_rows up front), not the file
    monkeypatch.setattr(rpsim.io, "_CHUNK", 4096)
    spec = ModelSpec(n=3, lam=1.0, total=300, initial=(100, 100, 100))
    ens = run_ensemble(spec, 16, 30.0, np.linspace(0.0, 30.0, 11), 1,
                       record_events=True)
    assert len(ens.event_times) > 10 * rpsim.io._CHUNK
    write_ensemble(ens, tmp_path / "e")
    tracemalloc.start()
    try:
        back = read_ensemble(tmp_path / "e")
        result, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trajectories_identical(back.trajectories[3], ens.trajectories[3])
    # a samples.csv row, the widest: replica, time and n counts
    block = rpsim.io._CHUNK * 8 * (2 + spec.n)
    assert peak - result < 1.5 * block


def test_read_holds_the_samples_once_plus_one_block(tmp_path, monkeypatch):
    # samples.csv is parsed a block of rows at a time into the samples
    # array, sized once replica 0's rows have given the grid; the peak above
    # the result is one parsed block, loadtxt's own buffers, a few arrays of
    # one value per row and the manifest, where a reader that kept every
    # block peaked at 11 blocks above it
    monkeypatch.setattr(rpsim.io, "_CHUNK", 4096)
    spec = ModelSpec(n=3, lam=1.0, total=300, initial=(100, 100, 100))
    ens = run_ensemble(spec, 50, 1.0, np.linspace(0.0, 1.0, 401), 1,
                       record_events=False)
    assert ens.samples.shape[0] * ens.samples.shape[1] > 4 * rpsim.io._CHUNK
    write_ensemble(ens, tmp_path / "e")
    tracemalloc.start()
    try:
        back = read_ensemble(tmp_path / "e")
        result, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.samples, ens.samples)
    block = rpsim.io._CHUNK * 8 * (2 + spec.n)
    assert peak - result < 2 * block


def test_reading_a_small_ensemble_peaks_near_its_size(tmp_path):
    # loadtxt allocates its max_rows up front; capped by what the file can
    # hold, an 8-row ensemble is not parsed into a default block of
    # _CHUNK rows (2.6 MB for a samples.csv row)
    spec = ModelSpec(n=3, lam=1.0, total=30, initial=(10, 10, 10))
    ens = run_ensemble(spec, 1, 1.0, np.linspace(0.0, 1.0, 8), 0,
                       record_events=True)
    write_ensemble(ens, tmp_path / "e")
    size = sum(p.stat().st_size for p in (tmp_path / "e").iterdir())
    assert size < 1000
    read_ensemble(tmp_path / "e")   # warm up numpy's parser
    tracemalloc.start()
    try:
        back = read_ensemble(tmp_path / "e")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trajectories_identical(back.trajectories[0], ens.trajectories[0])
    assert peak < 64 * size


def test_write_peak_does_not_grow_with_rows(tmp_path, monkeypatch):
    # the writer formats one block of rows at a time, so four times the
    # event rows add less than one block's buffers (the whole peak of
    # writing a one-block log), where formatting every row at once would
    # add three times the shorter log's text and more
    monkeypatch.setattr(rpsim.io, "_WRITE_CELLS", 3 * 1024)
    block = 1024        # rows of events.csv: replica, time and reaction
    peaks = []
    for size in (block, 8 * block, 32 * block):
        times = np.sort(np.random.default_rng(size).random(size))
        ens = synthetic_ensemble(SPEC, GRID, [times[:size // 3],
                                              times[size // 3:]])
        write_ensemble(ens, tmp_path / "warm")
        tracemalloc.start()
        try:
            write_ensemble(ens, tmp_path / f"e{size}")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    one_block, short, long = peaks
    assert long - short < one_block
