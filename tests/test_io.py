import io
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
import rpsim.digits
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
# crosses a reader chunk boundary and a writer block boundary (a block has
# at most _WRITE_CELLS cells, and so at most as many rows)
BLOCK = max(rpsim.io._CHUNK, rpsim.io._WRITE_CELLS) + 4


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

    def test_event_after_the_final_time_is_a_domain_error(self, ens_dir):
        # replica 0's last event moves past the run's end, still in order;
        # replaying to the final time would miss it
        events = ens_dir / "events.csv"
        lines = events.read_text().splitlines()
        last = max(k for k, line in enumerate(lines) if line.startswith("0,"))
        _, _, r = lines[last].split(",")
        self.corrupt(events, last, f"0,5.0,{r}")
        with pytest.raises(DomainError) as err:
            read_ensemble(ens_dir)
        assert str(err.value) == (f"{events}: replica 0 logs an event at "
                                  "5.0, after its final time 1.0")

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

    def test_extra_event_row_is_a_domain_error(self, ens_dir):
        # the arrays are sized from the file, so a row past the manifest's
        # count is read, and the count disagrees
        events = ens_dir / "events.csv"
        lines = events.read_text().splitlines(keepends=True)
        assert lines[-1].startswith("2,")
        events.write_text("".join(lines + lines[-1:]))
        with pytest.raises(DomainError) as err:
            read_ensemble(ens_dir)
        n_events = json.loads((ens_dir / "manifest.json").read_text())[
            "trajectories"][2]["n_events"]
        assert str(err.value) == (f"{events}: replica 2 has {n_events + 1} "
                                  f"events, the manifest says {n_events}")

    @pytest.mark.parametrize("edit", [
        lambda text: text[:-1],
        lambda text: text.replace("\n", "\r\n"),
        lambda text: text.replace("\n", "\r"),
    ], ids=["no-final-newline", "crlf", "cr"])
    def test_line_ends_read_back_bit_for_bit(self, ens_dir, edit):
        # a text-mode read ends lines at \r too, so the line count that
        # sizes the arrays must count it
        expected = read_ensemble(ens_dir)
        for name in ("samples.csv", "events.csv"):
            path = ens_dir / name
            path.write_bytes(edit(path.read_text()).encode())
        back = read_ensemble(ens_dir)
        for name in ("grid", "samples", "final_counts", "absorbed",
                     "final_time", "event_times", "event_reactions",
                     "event_offsets"):
            x, y = getattr(expected, name), getattr(back, name)
            assert (x.dtype, x.shape, x.tobytes()) == \
                (y.dtype, y.shape, y.tobytes()), name

    def test_truncated_trajectory_log_is_a_domain_error(self, tmp_path):
        ens = run_ensemble(SPEC, 1, 1.0, GRID, 7, record_events=True)
        out = write_ensemble(ens, tmp_path / "t")
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

    @pytest.mark.parametrize("name, line, cells, message", [
        # replica 1's first sample time moves off the shared grid
        ("samples.csv", 6, "1,0.125,{2},{3},{4}",
         "replicas do not share one grid"),
        ("samples.csv", 2, "0,nan,{2},{3},{4}",
         "grid times must be finite, got nan"),
        ("samples.csv", 2, "0,0.75,{2},{3},{4}", "grid must be ascending"),
        ("samples.csv", 2, "0,{1},{2},{3},7", "breaks population conservation"),
        # the sum holds, but no run writes a negative count
        ("samples.csv", 2, "0,{1},61,-1,0", "a sample has a negative count"),
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

    @pytest.mark.parametrize("sample, time", [(0, "-1"), (4, "7")])
    def test_grid_outside_the_run_is_a_domain_error(self, ens_dir, sample,
                                                    time):
        # every replica's sample moves, so the replicas still share one
        # ascending grid, but run_ensemble refuses it for t_end = 1
        path = ens_dir / "samples.csv"
        for line in range(1 + sample, 16, 5):
            cells = path.read_text().splitlines()[line].split(",")
            self.corrupt(path, line, ",".join([cells[0], time, *cells[2:]]))
        with pytest.raises(DomainError) as err:
            read_ensemble(ens_dir)
        assert str(err.value) == \
            f"{path}: grid must lie within [0, t_end] = [0, 1.0]"

    def test_event_before_time_0_is_a_domain_error(self, ens_dir):
        # replaying would integrate the intensities from t = -5; an event at
        # -0.0, as in the special-values ensemble, reads back
        events = ens_dir / "events.csv"
        _, _, r = events.read_text().splitlines()[1].split(",")
        self.corrupt(events, 1, f"0,-5,{r}")
        with pytest.raises(DomainError) as err:
            read_ensemble(ens_dir)
        assert str(err.value) == (f"{events}: replica 0 logs an event at "
                                  "-5.0, before time 0")

    def test_replica_with_a_missing_sample_is_a_domain_error(self, ens_dir):
        path = ens_dir / "samples.csv"
        lines = path.read_text().splitlines(keepends=True)
        assert lines[6].startswith("1,0,")
        path.write_text("".join(lines[:6] + lines[7:]))
        with pytest.raises(DomainError) as err:
            read_ensemble(ens_dir)
        assert str(err.value) == f"{path}: replicas do not share one grid"

    def test_replica_0_without_rows_is_a_domain_error(self, ens_dir):
        # replica 0's grid is empty, and the replicas' row counts differ
        path = ens_dir / "samples.csv"
        lines = path.read_text().splitlines(keepends=True)
        assert lines[6].startswith("1,0,")
        path.write_text("".join(lines[:1] + lines[6:]))
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
        for name in ("samples.csv", "events.csv"):
            path = ens_dir / name
            lines = path.read_text().splitlines(keepends=True)
            path.write_text("".join(lines[:5] + ["\n", "\n"] + lines[5:]
                                    + ["\n"]))
        back = read_ensemble(ens_dir)
        assert np.array_equal(back.grid, expected.grid)
        assert np.array_equal(back.samples, expected.samples)
        assert np.array_equal(back.event_times, expected.event_times)
        assert np.array_equal(back.event_offsets, expected.event_offsets)

    @pytest.mark.parametrize("name", ["samples.csv", "events.csv"])
    def test_a_byte_that_is_not_utf8_is_a_domain_error(self, ens_dir, name):
        # it escaped as a bare UnicodeDecodeError from the line iteration
        path = ens_dir / name
        header, first, rest = path.read_bytes().split(b"\n", 2)
        path.write_bytes(b"\n".join([header, first, b"\xff" + rest]))
        with pytest.raises(DomainError) as err:
            read_ensemble(ens_dir)
        assert str(err.value) == \
            f"{path}: not UTF-8 text (invalid start byte: b'\\xff')"

    @pytest.mark.parametrize("edit", [
        lambda name, text: text.replace("\n", "\r\n"),
        lambda name, text: "\ufeff" + text,
        # blocks of 4 rows: an empty line in the first block, and two
        # between the first and the second
        lambda name, text: text.replace("\n", "\n\n", 3).replace(
            "\n\n", "\n", 2),
        lambda name, text: "".join(
            (line + "\n\n" if k == 4 else line + "\n")
            for k, line in enumerate(text.splitlines())),
        # an event time in exponent form, the same double
        lambda name, text: text if name == "samples.csv" else re.sub(
            r"\n(\d+),([^,]+),", lambda m: "\n%s,%.16e," % (
                m[1], float(m[2])), text, count=1),
    ], ids=["crlf", "bom", "blank-in-a-block", "blank-between-blocks",
            "exponent-time"])
    def test_layouts_read_back_as_the_clean_file(self, ens_dir, monkeypatch,
                                                 edit):
        # each goes to loadtxt, as it did before the numpy parse
        monkeypatch.setattr(rpsim.io, "_CHUNK", 4)
        expected = read_ensemble(ens_dir)
        for name in ("samples.csv", "events.csv"):
            path = ens_dir / name
            text = path.read_text()
            path.write_bytes(edit(name, text).encode())
            assert path.read_bytes() != text.encode() or name == "samples.csv"
        back = read_ensemble(ens_dir)
        for name in ("grid", "samples", "event_times", "event_reactions",
                     "event_offsets"):
            x, y = getattr(expected, name), getattr(back, name)
            assert (x.dtype, x.shape, x.tobytes()) == \
                (y.dtype, y.shape, y.tobytes()), name

    @pytest.mark.parametrize("n_events, message", [
        (10**12, "replica 1 has 20 events, the manifest says 1000000000000"),
        (-1, "n_events must be non-negative integers"),
        (2.5, "n_events must be non-negative integers"),
    ])
    def test_manifest_event_count_is_checked_before_allocating(
            self, ens_dir, n_events, message):
        # 10**12 events would be 10 TB of arrays: nothing is sized from the
        # manifest, whose counts are only compared with the rows read
        path = ens_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["trajectories"][1]["n_events"] = n_events
        path.write_text(json.dumps(manifest))
        with pytest.raises(DomainError) as err:
            read_ensemble(ens_dir)
        assert str(err.value).startswith(f"{ens_dir / 'events.csv'}: ")
        assert message in str(err.value)

    def test_lines_past_memory_are_a_domain_error(self, ens_dir,
                                                  monkeypatch):
        # arrays have a row per line, empty ones too: 10**16 lines of
        # samples would take 213 PiB, past any address space
        monkeypatch.setattr(rpsim.io, "_line_count", lambda path: 10**16)
        with pytest.raises(DomainError) as err:
            read_ensemble(ens_dir)
        assert str(err.value) == f"{ens_dir}: a CSV has too many lines to hold"

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


TIME_ROWS = np.dtype([("replica", np.int64), ("time", np.float64)])


def numpy_parse(texts: list[str]):
    """The doubles of float cells ``texts`` as the reader's numpy parse
    reads them, one block of ``0,<text>`` rows, or None where it leaves the
    block to loadtxt."""
    data = "".join(f"0,{t}\n" for t in texts).encode()
    reader = rpsim.digits.Reader(io.BytesIO(data), len(data), len(data))
    assert reader.block_start() == 0
    rows = reader.rows(TIME_ROWS, len(texts))
    return None if rows is None else rows["time"]


def assert_loadtxt_bits(texts: list[str], got: np.ndarray) -> None:
    expected = np.loadtxt(texts, dtype=np.float64, ndmin=1)
    assert got.tobytes() == expected.tobytes(), texts


def plain(text: str) -> bool:
    """Whether ``%.17g`` wrote ``text`` without an exponent and finite."""
    return set(text) <= set("-.0123456789")


def parsed(text: str) -> bool:
    """Whether the numpy parse reads ``%.17g``'s ``text``: a finite double
    without an exponent or with exponent -5 or -6 (a magnitude of 10^-6 or
    more, which the double nearest 1e-6 is not)."""
    return plain(text) or text.endswith(("e-05", "e-06"))


class TestNumpyParse:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(
        st.integers(0, 2**64 - 1),
        # sign, a binade from 2^-21 to 2^54 (the range the parse reads,
        # 1e-6 to 1e16, and its ends) and any significand
        st.tuples(st.integers(0, 1), st.integers(1002, 1077),
                  st.integers(0, 2**52 - 1)).map(
            lambda t: t[0] << 63 | t[1] << 52 | t[2])),
        min_size=1, max_size=64))
    def test_written_doubles_read_back_exactly(self, patterns):
        texts = [fmt(as_double(bits)) for bits in patterns]
        read = [t for t in texts if parsed(t)]
        if read:
            got = numpy_parse(read)
            assert got is not None, read    # every written one is proven
            assert_loadtxt_bits(read, got)
            assert got.tobytes() == np.array(
                [as_double(b) for b, t in zip(patterns, texts)
                 if parsed(t)]).tobytes()
        for t in texts:
            if not parsed(t):       # e+, below 1e-6, inf or nan
                assert numpy_parse([t]) is None, t

    def test_edge_values_read_back_exactly(self):
        texts = [fmt(v) for v in TestBlockFormatter.edge_values()]
        read = [t for t in texts if parsed(t)]
        assert any("e-" in t for t in read)
        assert_loadtxt_bits(read, numpy_parse(read))
        for t in read:
            assert_loadtxt_bits([t], numpy_parse([t]))

    def test_exponent_texts_match_loadtxt(self):
        # %.17g's texts from 1e-6 up, and %.16e's, which pad the same 17
        # digits, are proven; any other text reads as loadtxt reads it or
        # leaves its block to loadtxt
        values = [np.nextafter(1e-6, 1), np.nextafter(1e-4, 0),
                  1.2805728256983181e-05, 3e-5, 2.0**-17]
        proven = [f % v for f in ("%.17g", "%.16e") for v in values]
        proven += ["%.16e" % v for v in (0.5, 1234.5e-7)]
        proven += ["-" + t for t in proven]
        others = [fmt(np.nextafter(1e-6, 0)), fmt(1e-6), "1e-06", "1E-05",
                  "1.2805728256983181E-05", "1.5e-5", "1e-5", "1e-05",
                  "1.5e-005", "1e+00", "1e-00", "1e-0", "1e5", "0e-05",
                  "%.16e" % 1234.5, "1.5e-", "1.5e--5", "1.5e-5-", "1-e5",
                  "e-05", "-e-05", "1.5ee-5", "1.5e-5e", "1e-0.5", ".5e-5"]
        for t in proven + others:
            got = numpy_parse([t])
            assert got is not None or t not in proven, t
            if got is not None:
                assert_loadtxt_bits([t], got)
        for v in (1e-6, np.nextafter(1e-6, 0)):    # below 10^-6
            assert numpy_parse([fmt(v)]) is None
        assert_loadtxt_bits(proven, numpy_parse(proven))

    @pytest.mark.parametrize("row", ["1e-05,0.5,1", "0,0.5,1e-05",
                                     "0,1e-05e-05,1", "0,0.5e-05,1e-05"])
    def test_an_exponent_outside_the_float_cells_is_not_parsed(self, row):
        data = f"0,1.5e-05,0\n{row}\n".encode()
        reader = rpsim.digits.Reader(io.BytesIO(data), len(data), len(data))
        reader.block_start()
        dtype = np.dtype([("replica", np.int64), ("time", np.float64),
                          ("reaction", np.int16)])
        assert reader.rows(dtype, 2) is None

    @staticmethod
    def decimal_strings() -> list[str]:
        rng = np.random.default_rng(37)
        texts = ["0", "-0", "0.0", "-0.0", "0.", ".5", "-.5", "00012.50",
                 "18014398509481986", "18014398509481984", "0.0001",
                 "10000000000000000",
                 "123456789012345678", "0.123456789012345678",
                 "1234567890.1234567890", "-99999999999999999999",
                 # 2^64 more than the digits of 0.00012345678901234567, as
                 # 20 decimal places: wrapped to 64 bits, it would read as
                 # that double
                 "0.18459089752610786183"]
        # the bounds of %.17g's fixed notation and their neighbours
        for p in (1e-4, 1e16):
            texts += [fmt(np.nextafter(p, 0)), fmt(np.nextafter(p, 1e300)),
                      f"{np.nextafter(p, 0):.20f}".rstrip("0"),
                      f"{np.nextafter(p, 1e300):.20f}".rstrip("0")]
        for _ in range(3000):   # 1 to 20 digits, a dot anywhere, signs
            digits = "".join(rng.choice(list("0123456789"),
                                        rng.integers(1, 21)))
            dot = rng.integers(0, len(digits) + 1)
            text = digits[:dot] + "." * (rng.random() < 0.8) + digits[dot:]
            texts.append("-" * (rng.random() < 0.5) + text)
        return texts

    def test_decimal_strings_match_loadtxt(self):
        # a cell the proof settles reads as loadtxt reads it, whatever its
        # digits (18-digit texts were read wrong by a parse that capped
        # the dot's shift at 17); one it cannot settle leaves its block to
        # loadtxt
        settled = []
        for t in self.decimal_strings():
            got = numpy_parse([t])
            if got is not None:
                assert_loadtxt_bits([t], got)
                settled.append(t)
        # texts that %.17g would write, padded or not
        assert {"0", "-0", "0.", ".5", "-.5", "00012.50", "0.0001",
                "18014398509481984"} <= set(settled)
        # a tie between two doubles, which loadtxt rounds to even
        assert "18014398509481986" not in settled

    @pytest.mark.parametrize("cell", ["1.5", "-3", "4e-5", "7"])
    def test_integer_rows_take_only_digits(self, cell):
        data = f"1,2\n{cell},4\n".encode()
        reader = rpsim.digits.Reader(io.BytesIO(data), len(data), len(data))
        reader.block_start()
        rows = reader.rows(np.dtype([("a", np.int64), ("b", np.int64)]), 2)
        if cell == "7":
            assert rows.tolist() == [(1, 2), (7, 4)]
        else:
            assert rows is None

    @staticmethod
    def count_loadtxt(monkeypatch) -> list:
        calls = []
        loadtxt = np.loadtxt
        monkeypatch.setattr(rpsim.io.np, "loadtxt", lambda *args, **kw: (
            calls.append(1), loadtxt(*args, **kw))[1])
        return calls

    @pytest.mark.parametrize("chunk", [4, rpsim.io._CHUNK])
    def test_a_written_ensemble_needs_no_loadtxt(self, tmp_path, monkeypatch,
                                                chunk):
        ens = run_ensemble(SPEC, 3, 1.0, GRID, base_seed=3,
                           record_events=True)
        out = write_ensemble(ens, tmp_path / "e")
        for name in ("samples.csv", "events.csv"):
            assert "e" not in (out / name).read_text().split("\n", 1)[1]
        monkeypatch.setattr(rpsim.io, "_CHUNK", chunk)
        calls = self.count_loadtxt(monkeypatch)
        back = read_ensemble(out)
        assert calls == []
        for a, b in zip(ens.trajectories, back.trajectories):
            assert_same_bits(a, b)

    @pytest.mark.parametrize("chunk", [4, rpsim.io._CHUNK])
    def test_exponent_event_times_need_no_loadtxt(self, tmp_path,
                                                  monkeypatch, chunk):
        # at M = 10 000 the first events come within 10^-4, so %.17g
        # writes them with an exponent
        spec = ModelSpec(n=3, lam=1.0, total=10000,
                         initial=symmetric_counts(3, 10000))
        ens = run_ensemble(spec, 40, 0.002, np.linspace(0.0, 0.002, 5),
                           base_seed=4, record_events=True)
        out = write_ensemble(ens, tmp_path / "e")
        events = out / "events.csv"
        lines = events.read_text().splitlines(keepends=True)
        assert sum("e-" in line for line in lines) >= 10
        monkeypatch.setattr(rpsim.io, "_CHUNK", chunk)
        calls = self.count_loadtxt(monkeypatch)
        back = read_ensemble(out)
        assert calls == []
        for a, b in zip(ens.trajectories, back.trajectories):
            assert_same_bits(a, b)
        # a time below 10^-6 still leaves its block to loadtxt, which reads
        # the value written
        replica, time, reaction = lines[1].split(",")
        assert replica == "0" and float(time) > 5e-7
        lines[1] = f"0,{fmt(5e-7)},{reaction}"
        events.write_text("".join(lines))
        back = read_ensemble(out)
        assert calls == [1]
        assert back.event_times[0] == 5e-7
        assert back.event_times[1:].tobytes() == ens.event_times[1:].tobytes()

    def read_with_bad_cell(self, tmp_path, monkeypatch, chunk: int,
                           column: int, text: str) -> tuple:
        """Read a written ensemble whose event row 9 has ``text`` in
        ``column``: the events file, the DomainError's message and the
        loadtxt calls."""
        ens = run_ensemble(SPEC, 3, 1.0, GRID, base_seed=3,
                           record_events=True)
        events = write_ensemble(ens, tmp_path / "e") / "events.csv"
        lines = events.read_text().splitlines(keepends=True)
        cells = lines[10].rstrip("\n").split(",")
        cells[column] = text
        lines[10] = ",".join(cells) + "\n"
        events.write_text("".join(lines))
        monkeypatch.setattr(rpsim.io, "_CHUNK", chunk)
        calls = self.count_loadtxt(monkeypatch)
        with pytest.raises(DomainError) as err:
            read_ensemble(tmp_path / "e")
        return events, str(err.value), calls

    @pytest.mark.parametrize("chunk", [4, rpsim.io._CHUNK])
    def test_a_bad_cell_has_the_loadtxt_message(self, tmp_path, monkeypatch,
                                                chunk):
        events, message, calls = self.read_with_bad_cell(
            tmp_path, monkeypatch, chunk, 1, "x")
        assert message == (f"{events}: could not convert string 'x' "
                           "to float64 at row 9, column 2.")
        assert calls == [1]

    @pytest.mark.parametrize("chunk", [4, rpsim.io._CHUNK])
    @pytest.mark.parametrize("column, text, dtype", [
        (0, "0e-05", "int64"), (2, "1e-05", "int16")])
    def test_an_exponent_in_an_integer_column_has_the_loadtxt_message(
            self, tmp_path, monkeypatch, chunk, column, text, dtype):
        events, message, calls = self.read_with_bad_cell(
            tmp_path, monkeypatch, chunk, column, text)
        assert message == (f"{events}: could not convert string '{text}' "
                           f"to {dtype} at row 9, column {column + 1}.")
        assert calls == [1]


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
