"""Deterministic CSV/JSON serialization.

Every writer produces byte-identical output for equal inputs: floats are
rendered with ``%.17g`` (lossless for IEEE doubles), JSON keys are sorted,
newlines are always ``\\n``.  Readers invert the writers exactly, so a
write/read round trip reproduces an ensemble bit for bit, and they check
each event log against the manifest's event count and final counts.

CSVs are written and read a block of rows at a time.  A writer formats up
to ``_WRITE_CELLS`` cells at once, in rows of all replicas or paths alike,
column by column in numpy: each double's 17 significant digits come from an
exact (Dekker) product, rounded half-even as CPython's ``%.17g`` rounds
them, and a table of 4-digit groups turns digits and integers into text.
The block's text is one ``uint8`` array, written in one call.  Only the
doubles that ``%.17g`` prints with an exponent, and non-finite ones, go
through ``%`` itself, one at a time.  One :func:`numpy.loadtxt` call parses
up to ``_CHUNK`` rows, or fewer if the file cannot hold them (loadtxt
allocates them all up front).  An event log is read into arrays sized from
the manifest, and the samples into one sized from replica 0's rows, which
come first, so reading holds each once plus one block.  Malformed CSV input
raises :class:`DomainError` naming the file and, where it can, the row.
"""
from __future__ import annotations

import itertools
import json
import math
import os
import re
import warnings
from pathlib import Path

import numpy as np

from .core import DomainError, ModelSpec, RpsimError, check_grid, check_seed
from .meanfield import MeanFieldPath
from .simulate import Ensemble

__all__ = [
    "fmt",
    "write_json",
    "write_ensemble",
    "read_ensemble",
    "write_meanfield",
    "write_covariances",
    "write_gaussian_paths",
    "write_validation_reports",
]

FORMAT_VERSION = 1


def fmt(x: float) -> str:
    """Lossless rendering of a double: always 17 significant digits
    (``%.17g``), which round-trip every double but are not the shortest
    form that does (0.1 renders as ``0.10000000000000001``)."""
    return "%.17g" % float(x)


# rows parsed by one loadtxt call, and cells formatted as one block of text,
# at most; they bound the readers' and the writers' memory (a writer's block
# holds about 100 bytes a cell)
_CHUNK = 65536
_WRITE_CELLS = 3 * 16384

# every 4-digit group '0000'..'9999' as the uint32 whose bytes are its text
_QUADS = (np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
          + ord("0")).astype(np.uint8).view(np.uint32).ravel()
# 10^k, exact as a double for k <= 22, and its Veltkamp split into halves
_POW10 = np.array([float(10**k) for k in range(23)])
_SPLIT = 2.0**27 + 1


def _halves(a):
    c = a * _SPLIT
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _halves(_POW10)


def _float_layout() -> np.ndarray:
    """Which slots of a ``%.17g`` cell print, one row per sign ``s``,
    decimal exponent ``e = -4..15`` and significant digit count
    ``d = 1..17``, at row ``(20 s + e + 4) * 17 + d - 1``; its last row,
    none of them, is for a cell that ``%`` itself prints.

    The slots are, in order: ``-``; ``0.000``, the lead of a magnitude
    below 1 (``0.`` and ``-e - 1`` zeros); the 17 digits, of which the
    integer part prints; ``.``; the 17 digits again, of which the fraction
    prints.
    """
    sign = (np.arange(2) == 1)[:, None, None, None]
    e = np.arange(-4, 16)[:, None, None]
    d = np.arange(1, 18)[:, None]
    j = np.arange(17)
    slots = [sign, e < np.minimum(0, 1 - np.arange(5)), j <= e,
             (e >= 0) & (d > e + 1), (j > e) & (j < d)]
    layout = np.concatenate(
        [np.broadcast_to(p, (2, 20, 17, p.shape[-1])) for p in slots],
        axis=-1).reshape(2 * 20 * 17, 41)
    return np.vstack([layout, np.zeros(41, dtype=bool)])


_FLOAT_LAYOUT = _float_layout()
_FLOAT_LEAD = np.frombuffer(b"-0.000", dtype=np.uint8)


def _const(byte: int, rows: int):
    return np.broadcast_to(np.uint8(byte), (rows, 1))


def _split(n: np.ndarray, d):
    """``divmod(n, d)``, in two cheaper steps than numpy's divmod takes."""
    q = n // d
    return q, n - q * d


def _mantissa(a, e):
    """``a * 10^(16 - e)`` rounded half-even to an integer, exactly: the
    product is Dekker's (1971) unevaluated sum ``hi + lo``, in which ``hi``
    is an even integer (it is at least 2^53), so rounding ``lo`` alone
    rounds the sum."""
    k = 16 - e
    p, p_hi, p_lo = (np.take(t, k) for t in (_POW10, _POW10_HI, _POW10_LO))
    hi = a * p
    a_hi, a_lo = _halves(a)
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _float_cells(x: np.ndarray):
    """The ``%.17g`` text of each double of ``x``: ``(text, valid, late)``,
    ``text`` and ``valid`` being two lists of arrays of ``len(x)`` rows
    whose column-wise concatenations' valid bytes, row by row, are the
    text, but for the cells in ``late``: their indices, and their text,
    which goes where their (invalid) bytes are.

    A finite ``1e-4 <= |x| < 1e16`` prints in fixed notation: its 17
    significant digits are ``N = round(|x| * 10^(16 - e))`` for its decimal
    exponent ``e``, rounded half-even as CPython's correctly rounded
    conversion does, with trailing fraction zeros dropped.  Zeros print as
    ``0`` or ``-0``.  Any other double (non-finite, subnormal or printed
    with an exponent) goes through ``%`` itself, one at a time.
    """
    rows = len(x)
    x = x.astype(np.float64, copy=False)
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16)     # False for nan
    slow = ~fast & (a != 0)
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    n = _mantissa(a, e)
    # log10 may put e one off; the digits then fall outside [10^16, 10^17)
    # (no double in range rounds up to 10^17: none lies within half a unit
    # of its 17th digit below a power of 10)
    off = (n >= 10**17) | (n < 10**16)
    if off.any():
        off = np.flatnonzero(off)
        e[off] += np.where(n[off] >= 10**17, 1, -1)
        n[off] = _mantissa(a[off], e[off])
    n[~fast] = 0
    e[~fast] = 0
    # the 17 digits: the leading one, after 3 unused bytes, then four
    # groups of four
    quads = np.empty((rows, 5), dtype=np.uint32)
    digits = quads.view(np.uint8).reshape(rows, 20)[:, 3:]
    head, n = _split(n, 10**16)
    digits[:, 0] = head + ord("0")
    high, low = _split(n, 10**8)
    for k, part in enumerate((*_split(high, 10**4), *_split(low, 10**4))):
        quads[:, k + 1] = np.take(_QUADS, part)
    # significant digits: to the last nonzero one, and at least one
    sig = np.full(rows, 17)
    last = np.flatnonzero(fast & (digits[:, 16] == ord("0")))
    while len(last):
        sig[last] -= 1
        last = last[digits[last, sig[last] - 1] == ord("0")]
    sig[~fast] = 1
    neg = np.signbit(x) & ~slow
    key = (neg * 20 + e + 4) * 17 + sig - 1
    key[slow] = len(_FLOAT_LAYOUT) - 1
    # the slots any row of this block prints
    low_e, high_e = int(e.min()), int(e.max())
    lead = list(range(1, 2 - low_e)) if low_e < 0 else []
    first, end = max(0, low_e + 1), int(sig.max())
    slots = ([0] if neg.any() else []) + lead
    text = [np.broadcast_to(_FLOAT_LEAD[slots], (rows, len(slots)))]
    if high_e >= 0:
        slots += list(range(6, 7 + high_e)) + [23]
        text += [digits[:, :high_e + 1], _const(ord("."), rows)]
    slots += range(24 + first, 24 + end)
    text.append(digits[:, first:end])
    valid = [np.take(_FLOAT_LAYOUT[:, slots], key, axis=0)]
    where = np.flatnonzero(slow)
    return text, valid, (where, [("%.17g" % v).encode()
                                 for v in x[where].tolist()])


def _int_cells(x: np.ndarray):
    """The ``%d`` text of each integer of ``x``, as ``(text, valid)`` of
    :func:`_float_cells`."""
    rows = len(x)
    x = x.astype(np.int64, copy=False)
    m = x.astype(np.uint64)
    neg = x < 0
    np.negative(m, out=m, where=neg)     # exact for the int64 minimum too
    width = len(str(int(m.max())))
    count = np.ones(rows, dtype=np.int64)
    for k in range(1, width):
        count += m >= np.uint64(10**k)
    groups = -(-width // 4)
    quads = np.empty((rows, groups), dtype=np.uint32)
    for k in range(groups - 1, 0, -1):
        m, part = _split(m, np.uint64(10**4))
        quads[:, k] = np.take(_QUADS, part)
    quads[:, 0] = np.take(_QUADS, m)
    text = [quads.view(np.uint8).reshape(rows, 4 * groups)[:, -width:]]
    valid = [np.arange(width) >= width - count[:, None]]
    if neg.any():
        text.insert(0, _const(ord("-"), rows))
        valid.insert(0, neg[:, None])
    return text, valid


def _csv_block(columns: list) -> np.ndarray:
    """The CSV text of rows given as ``columns`` of equal length, each a
    1-D array (one CSV column) or a 2-D one (a CSV column per column of
    it), as one ``uint8`` array: floats as ``%.17g``, integers as ``%d``.
    """
    rows = len(columns[0])
    comma, every = _const(ord(","), rows), np.broadcast_to(True, (rows, 1))
    text, valid, late = [], [], []
    for column in columns:
        for cells in (column.T if column.ndim == 2 else (column,)):
            if cells.dtype.kind == "f":
                t, v, (where, texts) = _float_cells(cells)
                if len(where):
                    late.append((sum(p.shape[1] for p in text), where, texts))
            else:
                t, v = _int_cells(cells)
            text += t
            valid += v
            text.append(comma)
            valid.append(every)
    text[-1] = _const(ord("\n"), rows)
    valid = np.concatenate(valid, axis=1)
    out = np.concatenate(text, axis=1)[valid]
    if late:
        # a late cell's text goes where its slots start: the bytes before
        # its row's end, less those of its row from there on
        ends = np.cumsum(valid.sum(axis=1))
        at = [np.repeat(ends[where] - valid[where, start:].sum(axis=1),
                        [len(t) for t in texts])
              for start, where, texts in late]
        out = np.insert(out, np.concatenate(at), np.frombuffer(
            b"".join(t for _, _, texts in late for t in texts), np.uint8))
    return out


def _write_csv(path: Path, header: list[str], parts: list,
               indexed: bool) -> None:
    """Write CSV ``path``: ``header``, then the rows of each part in turn,
    a part being a tuple of equal-length column arrays (see
    :func:`_csv_block`), each row led by its part's index if ``indexed``.

    The rows of all parts are formatted a block of ``_WRITE_CELLS`` cells
    (or one row) at a time, whatever part they come from, and each block's
    text is written in one call.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    offsets = np.cumsum([0] + [len(part[0]) for part in parts])
    block = max(1, _WRITE_CELLS // len(header))
    with open(path, "wb") as f:
        f.write((",".join(header) + "\n").encode())
        for lo in range(0, int(offsets[-1]), block):
            hi = min(lo + block, int(offsets[-1]))
            spans = [(i, max(lo, offsets[i]) - offsets[i],
                      min(hi, offsets[i + 1]) - offsets[i])
                     for i in range(np.searchsorted(offsets, lo, "right") - 1,
                                    np.searchsorted(offsets, hi, "left"))]
            columns = [np.concatenate([parts[i][c][a:b] for i, a, b in spans])
                       for c in range(len(parts[0]))]
            if indexed:
                columns.insert(0, np.repeat([i for i, _, _ in spans],
                                            [b - a for _, a, b in spans]))
            f.write(_csv_block(columns))


def write_json(obj, path) -> None:
    """``obj`` as indented JSON with sorted keys; it is encoded before the
    file is opened, so a value that json cannot encode leaves no file."""
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")


def _count_header(n: int, prefix: str = "x") -> list[str]:
    return [f"{prefix}{i + 1}" for i in range(n)]


def write_ensemble(ens: Ensemble, out_dir) -> Path:
    """samples.csv and, when the ensemble keeps its event log, events.csv,
    both replica-major with each row led by its replica index; then
    manifest.json."""
    out = Path(out_dir)
    n, off = ens.spec.n, ens.event_offsets
    _write_csv(out / "samples.csv", ["replica", "time"] + _count_header(n),
               [(ens.grid, counts) for counts in ens.samples], indexed=True)
    if off is not None:
        _write_csv(out / "events.csv", ["replica", "time", "reaction"],
                   [(ens.event_times[lo:hi], ens.event_reactions[lo:hi])
                    for lo, hi in zip(off[:-1], off[1:])], indexed=True)
    absorbed = [None if math.isnan(a) else a for a in ens.absorbed.tolist()]
    n_events = [None] * ens.replicas if off is None else np.diff(off).tolist()
    write_json({
        "format_version": FORMAT_VERSION,
        "model": ens.spec.to_dict(),
        "kind": "ensemble",
        "base_seed": ens.base_seed,
        "replicas": ens.replicas,
        "absorbed_fraction":
            sum(a is not None for a in absorbed) / ens.replicas,
        "trajectories": [
            {"seed": i, "absorbed": a, "final_time": final_time,
             "final_counts": final, "n_events": k,
             "has_event_log": off is not None}
            for i, (a, final_time, final, k) in enumerate(zip(
                absorbed, ens.final_time.tolist(), ens.final_counts.tolist(),
                n_events))],
    }, out / "manifest.json")
    return out


def _open_r(path: Path):
    """Open CSV ``path`` for reading, past its header row."""
    f = open(path, encoding="utf-8")
    if not f.readline():
        f.close()
        raise DomainError(f"{path}: empty file, expected a header row")
    return f


def _rows_fit(f, fields: list) -> int:
    """The most rows CSV file ``f`` can hold, a replica column and then
    ``fields``: its size over the shortest row, one digit and a separator
    per column."""
    columns = 1 + sum(math.prod(field[2]) if len(field) > 2 else 1
                      for field in fields)
    return os.fstat(f.fileno()).st_size // (2 * columns)


def _blocks(f, path: Path, fields: list):
    """The rows of CSV file ``f`` (``path``) after its header, up to
    ``_CHUNK`` (or as many as the file can hold) at a time: ``(lo, rows)``
    per block, ``rows`` being the file's rows ``lo..`` parsed as a leading
    replica column and then one field per column."""
    dtype = [("replica", np.int64)] + fields
    # loadtxt allocates max_rows rows up front
    max_rows = max(1, min(_CHUNK, _rows_fit(f, fields)))
    lo = 0
    while True:
        # loadtxt warns on a block with no rows, and skips empty lines
        line = f.readline()
        while line == "\n":
            line = f.readline()
        if not line:
            return
        try:
            with warnings.catch_warnings():
                # an empty line inside a block is skipped, as in a whole
                # file, though with max_rows numpy warns about it
                warnings.filterwarnings("ignore", "Input line .* no data",
                                        UserWarning)
                rows = np.loadtxt(itertools.chain((line,), f), dtype=dtype,
                                  delimiter=",", comments=None, ndmin=1,
                                  max_rows=max_rows)
        except ValueError as exc:
            # its message ends by naming the row it can, counted within the
            # block; name the row of the file instead
            message = re.sub(r"(.*at row )(\d+)",
                             lambda m: f"{m[1]}{int(m[2]) + lo}", str(exc),
                             count=1, flags=re.DOTALL)
            raise DomainError(f"{path}: {message}") from exc
        yield lo, rows
        lo += len(rows)
        del rows    # not held while the next block is parsed


def _ungrouped(path: Path, replicas: int) -> DomainError:
    return DomainError(
        f"{path}: rows are not grouped by replica 0..{replicas - 1}")


def _load_samples(path: Path, spec: ModelSpec, replicas: int):
    """The shared grid and the ``(replicas, G, n)`` samples of CSV
    ``path``, which must give every replica the same ascending grid and
    conserve the population in every sample.

    The rows are parsed a block at a time.  Replica 0's rows come first and
    give the grid, and with it the size of the samples array; each later
    row is copied to its place there as its block arrives.  Rows that are
    not grouped by replica fail at once; the other checks, in the order
    above, after the last row.
    """
    n = spec.n
    fields = [("time", np.float64), ("counts", np.int64, (n,))]
    sizes = np.zeros(replicas, dtype=np.int64)
    # replica 0's times and counts, until its last row
    head = [(np.empty(0), np.empty((0, n), dtype=np.int64))]
    grid = flat = None
    tiled = np.empty(0)
    last, off_grid, broken = 0, False, False

    def allocate():
        grid = np.concatenate([times for times, _ in head])
        flat = np.empty((replicas * len(grid), n), dtype=np.int64)
        flat[:len(grid)] = np.concatenate([counts for _, counts in head])
        return grid, flat

    with _open_r(path) as f:
        for lo, rows in _blocks(f, path, fields):
            rep = rows["replica"]
            if (rep[0] < last or rep[-1] >= replicas
                    or np.any(rep[1:] < rep[:-1])):
                raise _ungrouped(path, replicas)
            last = rep[-1]
            sizes += np.bincount(rep, minlength=replicas)
            times, counts = rows["time"], rows["counts"]
            broken = broken or bool(np.any(counts.sum(axis=1) != spec.total))
            if grid is None:
                zero = int(np.searchsorted(rep, 1))
                head.append((times[:zero].copy(), counts[:zero].copy()))
                if zero == len(rows):
                    continue
                grid, flat = allocate()
                head = None
                lo, times, counts = lo + zero, times[zero:], counts[zero:]
            # grouped rows of equal-sized replicas: row k is sample
            # k % G of replica k // G; the checks below catch any other
            hi = min(lo + len(times), len(flat))
            if hi > lo:
                flat[lo:hi] = counts[:hi - lo]
                at = lo % len(grid)
                if len(tiled) < at + hi - lo:
                    tiled = np.resize(grid, at + hi - lo)   # grid, repeated
                off_grid = off_grid or bool(
                    np.any(times[:hi - lo] != tiled[at:at + hi - lo]))
            del rows, rep, times, counts    # one block at a time
    if grid is None:
        grid, flat = allocate()
    if np.any(sizes != sizes[0]):
        raise DomainError(f"{path}: replicas do not share one grid")
    try:
        check_grid(grid)
    except DomainError as exc:
        raise DomainError(f"{path}: {exc}") from exc
    if off_grid:
        raise DomainError(f"{path}: replicas do not share one grid")
    if broken:
        raise DomainError(f"{path}: a sample breaks population conservation")
    return grid, flat.reshape(replicas, len(grid), n)


def _load_events(path: Path, spec: ModelSpec, n_events: list,
                 final_counts: list):
    """The flat event times, reactions and replica offsets of CSV ``path``,
    checked against the manifest's ``n_events`` and ``final_counts``.

    The log is parsed a block of rows at a time into arrays sized from the
    manifest; rows past its total are counted, not kept.
    """
    if not all(type(k) is int and k >= 0 for k in n_events):
        raise DomainError(f"{path}: the manifest's n_events must be "
                          "non-negative integers")
    replicas, total = len(n_events), sum(n_events)
    fields = [("time", np.float64), ("reaction", np.int16)]
    with _open_r(path) as f:
        if total > _rows_fit(f, fields):
            raise DomainError(f"{path}: the manifest counts {total} events, "
                              "more than the file can hold")
        times = np.empty(total)
        reactions = np.empty(total, dtype=np.int16)
        counts = np.zeros(replicas, dtype=np.int64)
        last = 0
        for lo, rows in _blocks(f, path, fields):
            rep = rows["replica"]
            if (rep[0] < last or rep[-1] >= replicas
                    or np.any(rep[1:] < rep[:-1])):
                raise _ungrouped(path, replicas)
            last = rep[-1]
            counts += np.bincount(rep, minlength=replicas)
            kept = rows[:max(0, total - lo)]
            times[lo:lo + len(kept)] = kept["time"]
            reactions[lo:lo + len(kept)] = kept["reaction"]
            del rows, rep, kept     # nor here: one block at a time
    offsets = np.concatenate(([0], np.cumsum(counts)))
    for i in range(replicas):
        # every replica before the first miscounted one is where the
        # manifest puts it
        if counts[i] != n_events[i]:
            raise DomainError(f"{path}: replica {i} has {counts[i]} events, "
                              f"the manifest says {n_events[i]}")
        lo, hi = offsets[i], offsets[i + 1]
        _check_log(path, i, spec, final_counts[i], times[lo:hi],
                   reactions[lo:hi])
    return times, reactions, offsets


def _check_log(path: Path, i: int, spec: ModelSpec, final_counts: list,
               times: np.ndarray, reactions: np.ndarray) -> None:
    """Raise DomainError unless replica ``i``'s event log is in time order
    and replaying it gives ``final_counts`` (reaction j moves one unit from
    species j+1 to species j)."""
    n = spec.n
    if not np.all(np.diff(times) >= 0):
        raise DomainError(f"{path}: replica {i} has event times out of order")
    # one pass per reaction over the int16 log, with no full-size int copy
    fired = [int(np.count_nonzero(reactions == j)) for j in range(n)]
    if sum(fired) != len(reactions):
        raise DomainError(f"{path}: replica {i} has a reaction outside "
                          f"0..{n - 1}")
    final = [spec.initial[j] + fired[j] - fired[j - 1] for j in range(n)]
    if final != list(final_counts):
        raise DomainError(f"{path}: replica {i} replays to final counts "
                          f"{tuple(final)}, the manifest says "
                          f"{tuple(final_counts)}")


def read_ensemble(out_dir) -> Ensemble:
    """The ensemble that :func:`write_ensemble` wrote, bit for bit.

    Raises :class:`DomainError` for a manifest that is not a JSON object of
    kind ``ensemble``, that lacks a key, whose model
    :class:`~rpsim.core.ModelSpec` refuses, whose base seed is not a
    non-negative integer, whose trajectories are not a list of objects,
    whose absorption or final times are not finite non-negative numbers
    (an absorption time may be null), whose ``has_event_log`` values are
    not bools, whose replicas are not seeds ``0..R-1`` or mix logged and
    unlogged runs, or, without event logs, whose final counts are not n
    non-negative integers summing to the total; for replicas that do not
    share one ascending grid, or a sample that breaks conservation; and for
    an event log that is out of order or does not replay to its manifest
    entry, or whose manifest event counts are not non-negative integers or
    add up to more rows than ``events.csv`` can hold (checked before
    anything is sized from them).
    """
    out = Path(out_dir)
    path = out / "manifest.json"
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise DomainError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise DomainError(f"{path}: not a JSON object")
    if manifest.get("kind") != "ensemble":
        raise DomainError(f"{path}: kind is {manifest.get('kind')!r}, "
                          "expected 'ensemble'")
    try:
        spec = ModelSpec.from_dict(manifest["model"])
        base_seed = manifest["base_seed"]
        metas = manifest["trajectories"]
        seeds, logged, n_events, final_counts, absorbed, final_time = (
            [meta[key] for meta in metas]
            for key in ("seed", "has_event_log", "n_events", "final_counts",
                        "absorbed", "final_time"))
    except KeyError as exc:
        raise DomainError(f"{path}: missing key {exc}") from None
    except RpsimError as exc:
        raise DomainError(f"{path}: model: {exc}") from exc
    except TypeError:   # from indexing a trajectory that is not an object
        raise DomainError(f"{path}: trajectories must be a list of "
                          "objects") from None
    base_seed = check_seed(base_seed, f"{path}: base seed")
    if not all(type(t) in (int, float) and 0 <= t < math.inf
               for t in final_time + [a for a in absorbed if a is not None]):
        raise DomainError(f"{path}: absorption and final times must be "
                          "finite non-negative numbers")
    replicas = len(metas)
    if not replicas or seeds != list(range(replicas)):
        raise DomainError(f"{path}: replica seeds are not 0..R-1, R >= 1")
    if not all(type(k) is bool for k in logged):
        raise DomainError(f"{path}: has_event_log must be true or false")
    if len(set(logged)) > 1:
        raise DomainError(f"{path}: replicas mix kept and dropped event logs")
    # a logged replica's final counts are checked by replaying its log
    if not (logged[0] or all(isinstance(c, list) and len(c) == spec.n
                             and all(type(k) is int and k >= 0 for k in c)
                             and sum(c) == spec.total for c in final_counts)):
        raise DomainError(f"{path}: final counts must be {spec.n} non-negative "
                          f"integers summing to {spec.total}")

    grid, samples = _load_samples(out / "samples.csv", spec, replicas)
    event_times = event_reactions = offsets = None
    if logged[0]:
        event_times, event_reactions, offsets = _load_events(
            out / "events.csv", spec, n_events, final_counts)
    return Ensemble(
        spec=spec,
        grid=grid,
        base_seed=base_seed,
        samples=samples,
        final_counts=np.array(final_counts, dtype=np.int64),
        absorbed=np.array(absorbed, dtype=float),
        final_time=np.array(final_time, dtype=float),
        event_times=event_times,
        event_reactions=event_reactions,
        event_offsets=offsets,
    )


def write_meanfield(path: MeanFieldPath, out_path) -> Path:
    """time,u1..un,sum,product — one row per reported grid label, the
    step that serves it and that step's row of the conservation audit."""
    out, idx, audit = Path(out_path), path.indices, path.invariant_audit
    _write_csv(out, ["time"] + _count_header(path.n, "u") + ["sum", "product"],
               [(path.grid, path.step_states[idx], audit.sums[idx],
                 audit.products[idx])], indexed=False)
    return out


def write_covariances(states, out_path) -> Path:
    """time,s11,s12,...,snn — covariance entries in row-major order."""
    out, states = Path(out_path), list(states)
    if not states:
        raise DomainError("no covariance states to write")
    n = states[0].sigma.shape[0]
    sigma = np.reshape([st.sigma for st in states], (len(states), n * n))
    _write_csv(out, ["time"] + [f"s{j + 1}{k + 1}" for j in range(n)
                                for k in range(n)],
               [(np.array([st.time for st in states], dtype=float), sigma)],
               indexed=False)
    return out


def write_gaussian_paths(paths, out_path) -> Path:
    """replica,time,v1..vn for a collection of fluctuation paths."""
    out, paths = Path(out_path), list(paths)
    if not paths:
        raise DomainError("no paths to write")
    n = paths[0].values.shape[1]
    _write_csv(out, ["replica", "time"] + _count_header(n, "v"),
               [(p.grid, p.values) for p in paths], indexed=True)
    return out


def write_validation_reports(reports: dict, out_dir) -> Path:
    """``<name>.json`` for each report, as it is, plus summary.json with
    each report's ``"pass"``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = {}
    for name, report in reports.items():
        write_json(report, out / f"{name}.json")
        summary[name] = report["pass"]
    summary["all"] = all(summary.values())
    write_json(summary, out / "summary.json")
    return out
