import io
import json
import math
import re
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
    symmetric_counts,
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


def replica(ens: Ensemble, i: int) -> Ensemble:
    """Replica ``i`` of ``ens`` alone, as a one-replica ensemble whose
    arrays are views into those of ``ens``."""
    off = ens.event_offsets
    log = {} if off is None else dict(
        event_times=ens.event_times[off[i]:off[i + 1]],
        event_reactions=ens.event_reactions[off[i]:off[i + 1]],
        event_offsets=off[i:i + 2] - off[i])
    rows = slice(i, i + 1)
    return Ensemble(spec=ens.spec, grid=ens.grid, base_seed=0,
                    samples=ens.samples[rows],
                    final_counts=ens.final_counts[rows],
                    absorbed=ens.absorbed[rows],
                    final_time=ens.final_time[rows], **log)


def read_one(out_dir) -> Trajectory:
    ens = read_ensemble(out_dir)
    assert ens.replicas == 1
    return ens.trajectories[0]


class TestTrajectoryRoundTrip:
    # a single trajectory is stored as a one-replica ensemble, and reads
    # back as the trajectory run_until gives on its stream

    def test_with_event_log(self, tmp_path):
        traj = run_until(SPEC, 1.0, GRID, rng_stream(7, 0), seed=0,
                         record_events=True)
        ens = run_ensemble(SPEC, 1, 1.0, GRID, 7, record_events=True)
        back = read_one(write_ensemble(ens, tmp_path / "t"))
        assert trajectories_identical(traj, back)

    def test_samples_only(self, tmp_path):
        traj = run_until(SPEC, 1.0, GRID, rng_stream(7, 0), seed=0,
                         record_events=False)
        ens = run_ensemble(SPEC, 1, 1.0, GRID, 7, record_events=False)
        back = read_one(write_ensemble(ens, tmp_path / "t"))
        assert trajectories_identical(traj, back)
        assert not (tmp_path / "t" / "events.csv").exists()

    def test_absorbed_trajectory(self, tmp_path):
        spec = ModelSpec(n=3, lam=50.0, total=3, initial=(1, 1, 1))
        grid = np.linspace(0, 100, 6)
        traj = run_until(spec, 100.0, grid, rng_stream(0, 0), seed=0,
                         record_events=True)
        assert traj.absorbed is not None
        ens = run_ensemble(spec, 1, 100.0, grid, 0, record_events=True)
        assert trajectories_identical(
            traj, read_one(write_ensemble(ens, tmp_path / "t")))


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
        # run_until, which runs these replicas, holds its counts as floats;
        # the manifest holds JSON integers
        counts = [c for traj in manifest["trajectories"]
                  for c in traj["final_counts"]]
        assert len(counts) == 12 and all(type(c) is int for c in counts)
        assert sum(counts) == 4 * SPEC.total


def test_writers_are_byte_deterministic(tmp_path):
    for d in ("a", "b"):
        ens = run_ensemble(SPEC, 3, 1.0, GRID, base_seed=5,
                           record_events=True)
        write_ensemble(ens, tmp_path / d)
    for name in ("samples.csv", "events.csv", "manifest.json", "grid.npy",
                 "samples.npy", "event_times.npy", "event_reactions.npy"):
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
    # one read-only copy of the mean-field path's grid, shared by every path
    assert all(p.grid is paths[0].grid for p in paths)
    assert paths[0].grid is not path.grid
    assert not paths[0].grid.flags.writeable
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

    @staticmethod
    def reference_rows(columns) -> list[str]:
        """Row by row: ``%d`` per integer and ``%.17g`` per double."""
        cells = [[("%.17g" if x.dtype.kind == "f" else "%d") % v
                  for v in x.tolist()]
                 for column in columns
                 for x in (column.T if column.ndim == 2 else (column,))]
        return [",".join(row) for row in zip(*cells)]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_late_cells_land_in_any_column(self, data):
        # late cells (exponent form, non-finite, subnormal) drawn into any
        # float column, at a row's start or end and several to a row
        rows = data.draw(st.integers(1, 12))
        cell = st.one_of(st.sampled_from(self.edge_values()),
                         st.floats(-1e3, 1e3))
        floats = [data.draw(st.lists(cell, min_size=rows * k,
                                     max_size=rows * k)) for k in (1, 1, 3)]
        columns = [np.array(data.draw(st.lists(
                       st.integers(-2**63, 2**63 - 1), min_size=rows,
                       max_size=rows)), dtype=np.int64),
                   np.array(floats[0]), np.array(floats[1]),
                   np.array(floats[2]).reshape(rows, 3)]
        columns = data.draw(st.permutations(columns))
        text = rpsim.io._csv_block(columns).tobytes().decode()
        assert text.split("\n")[:-1] == self.reference_rows(columns)

    def test_every_row_has_a_late_cell(self):
        rows, late = 50, [1e-5, -math.inf, math.nan, 5e-324, -1e300, 1e16]
        values = np.random.default_rng(0).standard_normal((rows, 4))
        values[np.arange(rows), np.arange(rows) % 4] = np.resize(late, rows)
        columns = [np.arange(rows), values, np.resize(late[::-1], rows)]
        text = rpsim.io._csv_block(columns).tobytes().decode()
        assert text.split("\n")[:-1] == self.reference_rows(columns)

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
# crosses a writer block boundary (a block has at most _WRITE_CELLS cells,
# and so at most as many rows)
BLOCK = rpsim.io._WRITE_CELLS + 4


def replayed_final_counts(spec, reactions) -> tuple:
    counts = list(spec.initial)
    for r in reactions.tolist():
        counts[r] += 1
        counts[(r + 1) % spec.n] -= 1
    return tuple(counts)


def synthetic_ensemble(spec, grid, event_logs, t_end=1.0) -> Ensemble:
    """One replica per entry of ``event_logs``, its event times (all of
    them None: no log), on ``grid``, each ending at ``t_end``.  The counts
    and reactions are random but valid, and the final counts replay the
    log."""
    grid = np.asarray(grid, dtype=float)
    rngs = [np.random.default_rng(i) for i in range(len(event_logs))]
    even = np.full(spec.n, 1 / spec.n)
    samples = np.stack([rng.multinomial(spec.total, even, size=len(grid))
                        for rng in rngs])
    log, final = {}, [spec.initial] * len(rngs)
    if event_logs[0] is not None:
        reactions = [rng.integers(0, spec.n, len(ev)).astype(np.int16)
                     for rng, ev in zip(rngs, event_logs)]
        final = [replayed_final_counts(spec, r) for r in reactions]
        log = dict(event_times=np.concatenate(
                       [np.asarray(ev, dtype=float) for ev in event_logs]),
                   event_reactions=np.concatenate(reactions),
                   event_offsets=np.cumsum([0] + list(map(len, event_logs))))
    return Ensemble(spec=spec, grid=grid, base_seed=0, samples=samples,
                    final_counts=np.array(final, dtype=np.int64),
                    absorbed=np.full(len(rngs), math.nan),
                    final_time=np.full(len(rngs), t_end), **log)


SPEC4 = ModelSpec(n=4, lam=1.0, total=40, initial=(10, 10, 10, 10))
SPEC5 = ModelSpec(n=5, lam=2.0, total=25, initial=(9, 3, 5, 7, 1))
ENSEMBLES = {
    # the run ends at its last event, which the reader requires
    "special-values": lambda: synthetic_ensemble(
        SPEC, SPECIAL, [SPECIAL, SPECIAL[1:]], t_end=SPECIAL[-1]),
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
    "exponent-grid": lambda: synthetic_ensemble(
        SPEC, [0.0, 1e-5, 2e-5], [[1e-6, 1.5e-5], []]),
    # the writer's blocks end inside replicas of the shared grid
    "grid-over-one-block": lambda: synthetic_ensemble(
        SPEC, np.linspace(0.0, 1.0, rpsim.io._WRITE_CELLS // 7), [None] * 5),
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
        ens = ENSEMBLES[case]()
        for i in range(ens.replicas):
            one = replica(ens, i)
            out = write_ensemble(one, tmp_path / f"t{i}")
            assert_files(out, reference_ensemble_csvs(one.trajectories))
            assert_same_bits(one.trajectories[0], read_one(out))


def meanfield_path(times, rows, indices=None) -> MeanFieldPath:
    """A path whose step ``indices[k]`` (default: step k) of ``rows`` serves
    time ``times[k]``, audited as integrate audits its steps."""
    rows = np.asarray(rows, dtype=float)
    return MeanFieldPath(
        grid=np.asarray(times, dtype=float),
        indices=np.arange(len(times)) if indices is None else indices,
        step=1.0, lam=1.0, step_states=rows,
        invariant_audit=ConservationAudit(sums=rows.sum(axis=1),
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


def shared_grid_paths(paths, points, n) -> list:
    """``paths`` paths of ``n`` standard normals on one shared grid."""
    grid = np.linspace(0.0, 1.0, points)
    values = np.random.default_rng(0).standard_normal((paths, points, n))
    return [GaussianPath(grid=grid, values=v) for v in values]


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
    "exponent-grid": lambda: [GaussianPath(
        grid=np.array([0.0, 1e-5, 2e-5]),
        values=np.random.default_rng(i).standard_normal((3, 3)) * 1e-5)
        for i in range(3)],
    "grid-over-one-block": lambda: shared_grid_paths(
        5, rpsim.io._WRITE_CELLS // 7, 3),
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


@pytest.mark.parametrize("grid", [[0.0, 2.0], [0.0, 1.0, 2.0], [-0.0, 1.0]])
def test_paths_on_different_grids_are_a_domain_error(tmp_path, grid):
    # -0.0 equals 0.0 but prints as -0: only a grid equal bit for bit is
    # shared
    paths = [GaussianPath(grid=np.array(g), values=np.zeros((len(g), 3)))
             for g in ([0.0, 1.0], [0.0, 1.0], grid)]
    with pytest.raises(DomainError, match="^paths must share one grid: "
                       "path 2's differs from path 0's$"):
        write_gaussian_paths(paths, tmp_path / "p.csv")
    assert not (tmp_path / "p.csv").exists()


def test_the_grid_is_formatted_once_per_file(tmp_path, monkeypatch):
    # P paths of n species on G grid times: P*G*n values and G times, not
    # P*G*(n + 1); the rows span several blocks
    monkeypatch.setattr(rpsim.io, "_WRITE_CELLS", 3 * 1024)
    counts, float_cells = [], rpsim.io._float_cells

    def counting(x):        # the doubles the block formatter formats
        counts.append(len(x))
        return float_cells(x)

    monkeypatch.setattr(rpsim.io, "_float_cells", counting)
    paths = shared_grid_paths(40, 101, 3)
    write_gaussian_paths(paths, tmp_path / "p.csv")
    assert sum(counts) == 40 * 101 * 3 + 101
    assert (tmp_path / "p.csv").read_bytes() == \
        reference_gaussian_paths(paths).encode()
    # samples.csv formats its grid once and its counts as integers
    counts.clear()
    ens = synthetic_ensemble(SPEC, np.linspace(0.0, 1.0, 101), [None] * 40)
    write_ensemble(ens, tmp_path / "e")
    assert sum(counts) == 101
    assert_files(tmp_path / "e", reference_ensemble_csvs(ens.trajectories))


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
    def edit(out, name: str, edit):
        """Save store array ``name`` of ``out`` again as ``edit`` leaves it
        or, if it returns one, as the array it returns."""
        path = out / f"{name}.npy"
        a = np.load(path)
        new = edit(a)
        np.save(path, a if new is None else new)
        return path

    @staticmethod
    def last_of_replica(out, i: int) -> int:
        """The index, in the flat log, of replica ``i``'s last event."""
        trajs = json.loads((out / "manifest.json").read_text())["trajectories"]
        return sum(t["n_events"] for t in trajs[:i + 1]) - 1

    def refused(self, out, path, message: str) -> None:
        with pytest.raises(DomainError) as err:
            read_ensemble(out)
        assert str(err.value) == f"{path}: {message}"

    @pytest.mark.parametrize("name, edit, message", [
        # the sum holds, but no run writes a negative count
        ("samples", lambda a: a.__setitem__((0, 1), (61, -1, 0)),
         "a sample has a negative count"),
        ("samples", lambda a: a.__setitem__((0, 1, 2), 7),
         "a sample breaks population conservation"),
        ("samples", lambda a: a.__setitem__((2, 4, 0), a[2, 4, 0] + 1),
         "a sample breaks population conservation"),
        ("grid", lambda a: a.__setitem__(1, math.nan),
         "grid times must be finite, got nan"),
        ("grid", lambda a: a.__setitem__(1, 0.75), "grid must be ascending"),
        # still one ascending grid, but run_ensemble refuses it for t_end = 1
        ("grid", lambda a: a.__setitem__(0, -1.0),
         "grid must lie within [0, t_end] = [0, 1.0]"),
        ("grid", lambda a: a.__setitem__(4, 7.0),
         "grid must lie within [0, t_end] = [0, 1.0]"),
        ("event_times", lambda a: a.__setitem__(0, 0.5 * (a[1] + a[2])),
         "replica 0 has event times out of order"),
        # replaying would integrate the intensities from t = -5; an event at
        # -0.0, as in the special-values ensemble, reads back
        ("event_times", lambda a: a.__setitem__(0, -5.0),
         "replica 0 logs an event at -5.0, before time 0"),
        ("event_reactions", lambda a: a.__setitem__(0, 3),
         "replica 0 has a reaction outside 0..2"),
        ("event_reactions", lambda a: a.__setitem__(0, -1),
         "replica 0 has a reaction outside 0..2"),
    ])
    def test_bad_value_is_a_domain_error(self, ens_dir, name, edit, message):
        self.refused(ens_dir, self.edit(ens_dir, name, edit), message)

    def test_event_after_the_final_time_is_a_domain_error(self, ens_dir):
        # replica 0's last event moves past the run's end, still in order;
        # replaying to the final time would miss it
        last = self.last_of_replica(ens_dir, 0)
        path = self.edit(ens_dir, "event_times",
                         lambda a: a.__setitem__(last, 5.0))
        self.refused(ens_dir, path,
                     "replica 0 logs an event at 5.0, after its final time "
                     "1.0")

    def test_altered_reaction_is_a_domain_error(self, ens_dir):
        path = self.edit(ens_dir, "event_reactions",
                         lambda a: a.__setitem__(0, (a[0] + 1) % 3))
        with pytest.raises(DomainError) as err:
            read_ensemble(ens_dir)
        assert str(err.value).startswith(
            f"{path}: replica 0 replays to final counts ")

    @pytest.mark.parametrize("name", ["event_times", "event_reactions"])
    @pytest.mark.parametrize("change", [1, -1, -5])
    def test_extra_or_missing_event_is_a_domain_error(self, ens_dir, name,
                                                      change):
        # the manifest's n_events cut the log: a log with more or fewer
        # events has another shape
        total = self.last_of_replica(ens_dir, 2) + 1
        path = self.edit(ens_dir, name, lambda a: np.resize(a, total + change))
        self.refused(ens_dir, path, f"has shape ({total + change},), "
                                    f"expected ({total},)")

    def test_event_moved_to_another_replica_is_a_domain_error(self,
                                                               ens_dir):
        # the manifest gives replica 0 one event more and replica 1 one
        # fewer: replica 0's log then ends with replica 1's first event,
        # which comes before its own last
        path = ens_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["trajectories"][0]["n_events"] += 1
        manifest["trajectories"][1]["n_events"] -= 1
        path.write_text(json.dumps(manifest))
        self.refused(ens_dir, ens_dir / "event_times.npy",
                     "replica 0 has event times out of order")

    @pytest.mark.parametrize("replica", [1, 2])
    @pytest.mark.parametrize("name, edit, message", [
        ("event_times", lambda a, lo, hi: a.__setitem__(
            lo, 0.5 * (a[lo + 1] + a[lo + 2])),
         "replica {i} has event times out of order"),
        ("event_times", lambda a, lo, hi: a.__setitem__(hi, 5.0),
         "replica {i} logs an event at 5.0, after its final time 1.0"),
        ("event_reactions", lambda a, lo, hi: a.__setitem__(lo, 3),
         "replica {i} has a reaction outside 0..2"),
        ("event_reactions",
         lambda a, lo, hi: a.__setitem__(lo, (a[lo] + 1) % 3),
         "replica {i} replays to final counts "),
    ], ids=["out-of-order", "after-the-end", "outside", "replay"])
    def test_bad_log_names_its_replica(self, ens_dir, replica, name, edit,
                                       message):
        # the manifest's n_events cut the flat log into replicas: an event
        # of replica i's slice is refused as replica i's
        lo = self.last_of_replica(ens_dir, replica - 1) + 1
        hi = self.last_of_replica(ens_dir, replica)
        assert hi - lo >= 2
        path = self.edit(ens_dir, name, lambda a: edit(a, lo, hi))
        with pytest.raises(DomainError) as err:
            read_ensemble(ens_dir)
        assert str(err.value).startswith(
            f"{path}: {message.format(i=replica)}")

    def test_truncated_trajectory_log_is_a_domain_error(self, tmp_path):
        ens = run_ensemble(SPEC, 1, 1.0, GRID, 7, record_events=True)
        out = write_ensemble(ens, tmp_path / "t")
        n = len(ens.event_times)
        path = self.edit(out, "event_times", lambda a: a[:-1])
        self.refused(out, path, f"has shape ({n - 1},), expected ({n},)")

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
        # final times that contradict absorption: a replica ends where it
        # absorbs, or else at the one t_end of the run
        (lambda m: m["trajectories"][1].update(absorbed=0.5),
         "replica 1 absorbed at 0.5, but its final time is 1.0"),
        (lambda m: m["trajectories"][2].update(absorbed=0.5, final_time=0.75),
         "replica 2 absorbed at 0.5, but its final time is 0.75"),
        (lambda m: m["trajectories"][1].update(final_time=0.5),
         "unabsorbed replicas do not share one final time"),
        (lambda m: m["trajectories"][1].update(has_event_log=[]),
         "has_event_log must be true or false"),
        (lambda m: [t.update(has_event_log="yes") for t in m["trajectories"]],
         "has_event_log must be true or false"),
        # without event logs, nothing replays the final counts
        *((lambda m, c=c: [t.update(has_event_log=False, final_counts=c)
                           for t in m["trajectories"]],
           "final counts must be 3 non-negative integers summing to 60")
          for c in ([1, 2], "x", [99, 0, 0], [70, -10, 0], [20.0, 20, 20])),
        # keys the writer writes and the reader read unchecked
        (lambda m: m.update(format_version=2),
         "format_version is 2, expected 1"),
        (lambda m: m.update(format_version="x"),
         "format_version is 'x', expected 1"),
        (lambda m: m.update(format_version=True),
         "format_version is True, expected 1"),
        (lambda m: m.pop("format_version"), "missing key 'format_version'"),
        (lambda m: m.update(replicas=5),
         "replicas is 5, but 3 trajectories are listed"),
        (lambda m: m.update(replicas=-1),
         "replicas is -1, but 3 trajectories are listed"),
        (lambda m: m.update(replicas=3.0),
         "replicas is 3.0, but 3 trajectories are listed"),
        (lambda m: m.pop("replicas"), "missing key 'replicas'"),
        (lambda m: m.update(absorbed_fraction=0.7),
         "absorbed_fraction is 0.7, but the trajectories give 0.0"),
        (lambda m: m.update(absorbed_fraction="0.0"),
         "absorbed_fraction is '0.0', but the trajectories give 0.0"),
        (lambda m: m.pop("absorbed_fraction"),
         "missing key 'absorbed_fraction'"),
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

    @pytest.mark.parametrize("final_time", [0.5, 7.0])
    def test_absorbed_replica_ends_at_its_absorption(self, tmp_path,
                                                     final_time):
        # each replica logs its last event where it absorbs, which the
        # manifest's final time must repeat
        spec = ModelSpec(n=3, lam=1.0, total=6, initial=(2, 2, 2))
        ens = run_ensemble(spec, 5, math.inf, np.array([0.0]), 4,
                           record_events=True)
        out = write_ensemble(ens, tmp_path / "e")
        path = out / "manifest.json"
        manifest = json.loads(path.read_text())
        assert all(m["absorbed"] == m["final_time"]
                   for m in manifest["trajectories"])
        manifest["trajectories"][1]["final_time"] = final_time
        path.write_text(json.dumps(manifest))
        with pytest.raises(DomainError) as err:
            read_ensemble(out)
        assert str(err.value) == (
            f"{path}: replica 1 absorbed at {ens.absorbed[1].item()!r}, "
            f"but its final time is {final_time!r}")

    @pytest.mark.parametrize("name, edit, message", [
        # one replica short of a sample, a species or a replica
        ("samples", lambda a: a[:, 1:],
         "has shape (3, 4, 3), expected (3, 5, 3)"),
        ("samples", lambda a: a[..., :2],
         "has shape (3, 5, 2), expected (3, 5, 3)"),
        ("samples", lambda a: a[1:], "has shape (2, 5, 3), expected (3, 5, 3)"),
        ("samples", lambda a: a[0], "has shape (5, 3), expected (3, 5, 3)"),
        ("grid", lambda a: a[None], "has shape (1, 5), expected (-1,)"),
        ("grid", lambda a: np.float64(0.5), "has shape (), expected (-1,)"),
        ("event_times", lambda a: a[:, None], None),
        # each array in its own dtype, and native byte order
        ("samples", lambda a: a.astype(np.int32), "holds int32, expected int64"),
        ("samples", lambda a: a.astype(np.float64),
         "holds float64, expected int64"),
        ("grid", lambda a: a.astype(np.float32),
         "holds float32, expected float64"),
        ("event_times", lambda a: a.astype(">f8"), "holds >f8, expected float64"),
        ("event_reactions", lambda a: a.astype(np.int64),
         "holds int64, expected int16"),
        ("event_reactions", lambda a: np.zeros(len(a), dtype=[("r", "<i2")]),
         "holds [('r', '<i2')], expected int16"),
    ])
    def test_wrong_shape_or_dtype_is_a_domain_error(self, ens_dir, name,
                                                    edit, message):
        path = self.edit(ens_dir, name, edit)
        if message is None:
            n = len(np.load(path))
            message = f"has shape ({n}, 1), expected ({n},)"
        self.refused(ens_dir, path, message)

    def test_grid_longer_than_the_samples_is_a_domain_error(self, ens_dir):
        # the grid gives the samples' second length
        self.edit(ens_dir, "grid", lambda a: np.append(a, 1.0))
        self.refused(ens_dir, ens_dir / "samples.npy",
                     "has shape (3, 5, 3), expected (3, 6, 3)")

    @pytest.mark.parametrize("name", ["grid", "samples", "event_times",
                                      "event_reactions"])
    def test_missing_store_file_is_a_domain_error(self, ens_dir, name):
        (ens_dir / f"{name}.npy").unlink()
        self.refused(ens_dir, ens_dir / f"{name}.npy",
                     "missing (an ensemble written without the .npy store "
                     "has only CSVs, which are not read back)")

    def test_csvs_without_a_store_are_a_domain_error(self, ens_dir):
        # a directory as an rpsim without the store wrote it: the CSVs and
        # the same manifest
        for path in ens_dir.glob("*.npy"):
            path.unlink()
        with pytest.raises(DomainError, match=re.escape(
                f"{ens_dir / 'grid.npy'}: missing")):
            read_ensemble(ens_dir)

    # into the data, to the end of the header, into the header, all of it
    @pytest.mark.parametrize("cut", [8, 40, 100, 168])
    def test_truncated_store_file_is_a_domain_error(self, ens_dir, cut):
        path = ens_dir / "grid.npy"
        data = path.read_bytes()
        assert len(data) == 168     # a 128-byte header and 5 doubles
        path.write_bytes(data[:-cut])
        with pytest.raises(DomainError) as err:
            read_ensemble(ens_dir)
        assert str(err.value).startswith(f"{path}: not a .npy array file: ")

    @pytest.mark.parametrize("name", ["samples", "event_times",
                                      "event_reactions"])
    def test_each_truncated_store_file_is_named(self, ens_dir, name):
        # a file one element short, its header intact
        path = ens_dir / f"{name}.npy"
        data = path.read_bytes()
        path.write_bytes(data[:-np.dtype(rpsim.io._STORE[name]).itemsize])
        with pytest.raises(DomainError) as err:
            read_ensemble(ens_dir)
        assert str(err.value).startswith(f"{path}: not a .npy array file: ")

    def test_object_array_is_not_unpickled(self, ens_dir):
        # loading a pickle can run any code; the store holds no object array
        path = ens_dir / "event_times.npy"
        n = len(np.load(path))
        np.save(path, np.array([0.0] * n, dtype=object), allow_pickle=True)
        self.refused(ens_dir, path, "not a .npy array file: Object arrays "
                                    "cannot be loaded when allow_pickle=False")

    def test_file_that_is_not_npy_is_a_domain_error(self, ens_dir):
        # say, a CSV saved under the store's name; np.load would unpickle
        # any file without the .npy magic, were pickles allowed
        path = ens_dir / "samples.npy"
        path.write_bytes((ens_dir / "samples.csv").read_bytes())
        with pytest.raises(DomainError) as err:
            read_ensemble(ens_dir)
        assert str(err.value).startswith(
            f"{path}: not a .npy array file: This file contains pickled "
            "(object) data.")

    def test_header_past_memory_is_a_domain_error(self, ens_dir):
        # a forged header of 10**16 doubles (80 PB, past any address space)
        # over a short file: the array is allocated from the header
        path = ens_dir / "grid.npy"
        data = path.read_bytes()
        header = io.BytesIO()
        np.lib.format.write_array_header_1_0(header, {
            "descr": "<f8", "fortran_order": False, "shape": (10**16,)})
        path.write_bytes(header.getvalue() + data[128:])
        self.refused(ens_dir, path, "its header gives an array too large to "
                                    "hold")

    @pytest.mark.parametrize("n_events, path, message", [
        # nothing is sized from the manifest: 10**12 events, which would be
        # 10 TB, are only compared with the log's length
        (10**12, "event_times.npy", "has shape ({total},), expected "
                                    "({total_forged},)"),
        (-1, "manifest.json", "n_events must be non-negative integers"),
        (2.5, "manifest.json", "n_events must be non-negative integers"),
    ])
    def test_manifest_event_count_is_checked_before_allocating(
            self, ens_dir, n_events, path, message):
        path = ens_dir / path
        manifest = json.loads((ens_dir / "manifest.json").read_text())
        trajs = manifest["trajectories"]
        total = sum(t["n_events"] for t in trajs)
        total_forged = total - trajs[1]["n_events"] + n_events
        trajs[1]["n_events"] = n_events
        (ens_dir / "manifest.json").write_text(json.dumps(manifest))
        self.refused(ens_dir, path, message.format(
            total=total, total_forged=total_forged))

    def test_header_only_events_read_as_empty_logs(self, ens_dir):
        # a run in which no replica fired leaves events.csv with its header
        # and an empty log in the store
        ens = synthetic_ensemble(SPEC, GRID, [[], [], []])
        write_ensemble(ens, ens_dir)
        assert (ens_dir / "events.csv").read_text() == "replica,time,reaction\n"
        assert np.load(ens_dir / "event_times.npy").shape == (0,)
        for traj in read_ensemble(ens_dir).trajectories:
            assert traj.event_times.dtype == np.float64
            assert traj.event_reactions.dtype == np.int16
            assert traj.n_events == 0


def assert_same_ensemble(a: Ensemble, b: Ensemble) -> None:
    """Every field of ``a`` and ``b`` equal, each array in dtype, shape and
    bytes."""
    assert (a.spec, a.base_seed) == (b.spec, b.base_seed)
    for name in ("grid", "samples", "final_counts", "absorbed", "final_time",
                 "event_times", "event_reactions", "event_offsets"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None), name
        if x is not None:
            assert (x.dtype, x.shape, x.tobytes()) == \
                (y.dtype, y.shape, y.tobytes()), name


@pytest.mark.parametrize("events", [True, False])
def test_the_csvs_are_not_read_back(tmp_path, events):
    # the store alone gives the ensemble back; a CSV, deleted or edited,
    # changes nothing that is read
    ens = run_ensemble(SPEC, 3, 1.0, GRID, base_seed=3, record_events=events)
    out = write_ensemble(ens, tmp_path / "e")
    for path in out.glob("*.csv"):
        path.unlink()
    assert_same_ensemble(read_ensemble(out), ens)


CSV_EDITS = {
    "crlf": lambda data: data.replace(b"\n", b"\r\n"),
    "cr": lambda data: data.replace(b"\n", b"\r"),
    "no-final-newline": lambda data: data[:-1],
    "bom": lambda data: "\ufeff".encode() + data,
    "blank-lines": lambda data: data.replace(b"\n", b"\n\n"),
    "not-utf8": lambda data: b"\xff" + data,
    "exponent-times": lambda data: re.sub(
        rb"\n(\d+),([^,]+),", lambda m: b"\n%s,%.16e," % (
            m[1], float(m[2])), data),
    # a count that breaks conservation, a reaction outside 0..2
    "last-cells": lambda data: re.sub(rb"\d\n", b"9\n", data),
    "negative-cells": lambda data: data.replace(b",", b",-"),
    "truncated": lambda data: data[:len(data) // 2],
    "emptied": lambda data: b"",
}


@pytest.mark.parametrize("edit", CSV_EDITS)
def test_hand_edited_csvs_change_nothing_read(tmp_path, edit):
    # each edit, which the CSV reader read through or refused, leaves the
    # store, and so the ensemble read, as written
    ens = run_ensemble(SPEC, 3, 1.0, GRID, base_seed=3, record_events=True)
    out = write_ensemble(ens, tmp_path / "e")
    for name in ("samples.csv", "events.csv"):
        path = out / name
        data = path.read_bytes()
        edited = CSV_EDITS[edit](data)
        assert edited != data, name
        path.write_bytes(edited)
    assert_same_ensemble(read_ensemble(out), ens)


def assert_doubles_read_back(out, times) -> None:
    """One replica logging ``times`` (ascending from 0), run to its last
    event and written to ``out``: the store gives every double back bit for
    bit, and the ``%.17g`` of events.csv parses to the same doubles."""
    ens = synthetic_ensemble(SPEC, [0.0], [times], t_end=times[-1])
    write_ensemble(ens, out)
    assert_same_ensemble(read_ensemble(out), ens)
    rows = (out / "events.csv").read_text().splitlines()[1:]
    cells = np.array([float(row.split(",")[1]) for row in rows])
    assert cells.tobytes() == ens.event_times.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(
    # any finite double from +0 up: subnormals, every binade, the largest
    st.integers(0, 0x7FEFFFFFFFFFFFFF).map(as_double), st.just(-0.0)),
    min_size=1, max_size=64).map(sorted))
def test_written_doubles_read_back_exactly(tmp_path_factory, times):
    assert_doubles_read_back(tmp_path_factory.mktemp("doubles"), times)


def test_edge_values_read_back_exactly(tmp_path):
    times = sorted(v for v in TestBlockFormatter.edge_values()
                   if 0 <= v < math.inf)
    assert 5e-324 in times and np.finfo(float).max in times
    assert_doubles_read_back(tmp_path / "e", times)


def test_a_store_read_holds_its_arrays_and_little_more(tmp_path):
    # np.load allocates each array once, at its size, and the checks'
    # largest temporary is a bool per event of one replica's log; the rest
    # (manifest, offsets, the checks' small arrays) fits in 64 KiB
    spec = ModelSpec(n=3, lam=1.0, total=3000, initial=(1000, 1000, 1000))
    ens = run_ensemble(spec, 4, 50.0, np.linspace(0.0, 50.0, 11), 1,
                       record_events=True)
    assert len(ens.event_times) > 150_000
    write_ensemble(ens, tmp_path / "e")
    read_ensemble(tmp_path / "e")   # warm up numpy's loader
    tracemalloc.start()
    try:
        back = read_ensemble(tmp_path / "e")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_same_ensemble(back, ens)
    arrays = sum(getattr(back, name).nbytes for name in rpsim.io._STORE)
    longest = int(np.diff(back.event_offsets).max())
    assert arrays < peak <= arrays + longest + 64 * 1024


def test_a_samples_only_store_read_holds_its_arrays_and_little_more(
        tmp_path):
    # without logs the checks' largest temporary is the conservation sum, a
    # count per grid time of each replica; the rest fits in 64 KiB
    spec = ModelSpec(n=3, lam=1.0, total=300, initial=(100, 100, 100))
    ens = run_ensemble(spec, 50, 1.0, np.linspace(0.0, 1.0, 401), 1,
                       record_events=False)
    write_ensemble(ens, tmp_path / "e")
    read_ensemble(tmp_path / "e")   # warm up numpy's loader
    tracemalloc.start()
    try:
        back = read_ensemble(tmp_path / "e")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_same_ensemble(back, ens)
    arrays = back.grid.nbytes + back.samples.nbytes
    sums = back.samples.nbytes // spec.n
    assert arrays < peak <= arrays + sums + 64 * 1024


def test_reading_a_small_ensemble_peaks_near_its_size(tmp_path):
    # nothing is allocated in blocks of a default size: an 8-row ensemble's
    # read peaks within 64 times the size of its text files
    spec = ModelSpec(n=3, lam=1.0, total=30, initial=(10, 10, 10))
    ens = run_ensemble(spec, 1, 1.0, np.linspace(0.0, 1.0, 8), 0,
                       record_events=True)
    write_ensemble(ens, tmp_path / "e")
    size = sum(p.stat().st_size for p in (tmp_path / "e").iterdir()
               if p.suffix != ".npy")
    assert size < 1000
    read_ensemble(tmp_path / "e")   # warm up numpy's loader
    tracemalloc.start()
    try:
        back = read_ensemble(tmp_path / "e")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trajectories_identical(back.trajectories[0], ens.trajectories[0])
    assert peak < 64 * size


def samples_only(replicas, points) -> Ensemble:
    """An ensemble of ``replicas`` on ``points`` grid times, without logs."""
    samples = np.random.default_rng(replicas).multinomial(
        SPEC.total, np.full(SPEC.n, 1 / SPEC.n), size=(replicas, points))
    return Ensemble(spec=SPEC, grid=np.linspace(0.0, 1.0, points),
                    base_seed=0, samples=samples, final_counts=samples[:, -1],
                    absorbed=np.full(replicas, math.nan),
                    final_time=np.ones(replicas))


def event_log(rows) -> Ensemble:
    """Two replicas that log ``rows`` events between them."""
    times = np.sort(np.random.default_rng(rows).random(rows))
    return synthetic_ensemble(SPEC, GRID, [times[:rows // 3],
                                           times[rows // 3:]])


@pytest.mark.parametrize("ensemble", [
    event_log,
    # samples.csv rows (replica, time and 3 counts): a one-block replica
    # of 512 grid times, then 8 and 32 of them; long replicas, because the
    # manifest also written grows by about 1 kB a replica
    lambda rows: samples_only(rows // 1024, 512),
], ids=["event-rows", "replicas"])
def test_write_peak_does_not_grow_with_rows(tmp_path, monkeypatch, ensemble):
    # the writer formats one block of rows at a time, so four times the
    # rows add less than one block's buffers (the whole peak of writing a
    # one-block file), where formatting every row at once would add three
    # times the shorter file's text and more
    monkeypatch.setattr(rpsim.io, "_WRITE_CELLS", 3 * 1024)
    block = 1024        # rows of events.csv: replica, time and reaction
    peaks = []
    for size in (block, 8 * block, 32 * block):
        ens = ensemble(size)
        write_ensemble(ens, tmp_path / "warm")
        tracemalloc.start()
        try:
            write_ensemble(ens, tmp_path / f"e{size}")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    one_block, short, long = peaks
    assert long - short < one_block
