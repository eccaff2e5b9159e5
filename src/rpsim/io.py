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
through ``%`` itself, one at a time; each cell's printed width places their
text in the block.  A grid that every replica or path shares is formatted
once per file, and each block gathers its rows' times from that text.

A reader parses a block of up to ``_CHUNK`` lines at a time, starting at a
line that is not empty.  It reads the block as bytes, ``3 * _CHUNK``
bytes at a time, and parses it in numpy with :class:`rpsim.digits.Reader`,
which proves each double it reads correctly rounded with the writer's
exact product, those that ``%.17g`` writes with a negative exponent too.
A block with any other line or cell (an empty line, a ``\\r``, a positive
exponent, a value below 10^-6, a sign on an integer, a ragged row, a byte
that is not a digit) is read again as text and parsed by
:func:`numpy.loadtxt`, which gives every cell the same value and names a
bad row.  The event log and the samples are read into arrays sized from
the file's own line count, not from the manifest or from replica 0's rows,
and trimmed to the rows parsed, so reading holds each once plus one block.
Malformed CSV input raises :class:`DomainError` naming the file and, where
it can, the row.
"""
from __future__ import annotations

import io
import itertools
import json
import math
import os
import re
from pathlib import Path

import numpy as np

from .core import DomainError, ModelSpec, RpsimError, check_seed
from .digits import Reader, mantissa
from .meanfield import MeanFieldPath
from .simulate import Ensemble, _check_run

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
# holds about 100 bytes a cell).  The readers read 3 * _CHUNK bytes at a time.
_CHUNK = 65536
_WRITE_CELLS = 3 * 16384

# every 4-digit group '0000'..'9999' as the uint32 whose bytes are its text
_QUADS = (np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
          + ord("0")).astype(np.uint8).view(np.uint32).ravel()
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
_FLOAT_WIDTH = _FLOAT_LAYOUT.sum(axis=1).astype(np.uint8)
_FLOAT_LEAD = np.frombuffer(b"-0.000", dtype=np.uint8)


def _const(byte: int, rows: int):
    return np.broadcast_to(np.uint8(byte), (rows, 1))


def _split(n: np.ndarray, d):
    """``divmod(n, d)``, in two cheaper steps than numpy's divmod takes."""
    q = n // d
    return q, n - q * d


def _float_cells(x: np.ndarray):
    """The ``%.17g`` text of each double of ``x``: ``(text, valid, width,
    late)``, ``text`` and ``valid`` being two lists of arrays of ``len(x)``
    rows whose column-wise concatenations' valid bytes, row by row, are the
    text, but for the cells in ``late``: their indices, and their text,
    which goes where their (invalid) bytes are.  ``width`` is each cell's
    count of valid bytes, 0 for a late one.

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
    n = mantissa(a, e)
    # log10 may put e one off; the digits then fall outside [10^16, 10^17)
    # (no double in range rounds up to 10^17: none lies within half a unit
    # of its 17th digit below a power of 10)
    off = (n >= 10**17) | (n < 10**16)
    if off.any():
        off = np.flatnonzero(off)
        e[off] += np.where(n[off] >= 10**17, 1, -1)
        n[off] = mantissa(a[off], e[off])
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
    return text, valid, np.take(_FLOAT_WIDTH, key), (
        where, [("%.17g" % v).encode() for v in x[where].tolist()])


_NO_LATE = (np.empty(0, dtype=np.int64), [])


def _int_cells(x: np.ndarray):
    """The ``%d`` text of each integer of ``x``, as the cells of
    :func:`_float_cells`, none of them late."""
    rows = len(x)
    x = x.astype(np.int64, copy=False)
    m = x.astype(np.uint64)
    neg = x < 0
    np.negative(m, out=m, where=neg)     # exact for the int64 minimum too
    width = len(str(int(m.max())))
    count = np.ones(rows, dtype=np.uint8)
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
    return text, valid, count + neg, _NO_LATE


def _csv_block(columns: list) -> np.ndarray:
    """The CSV text of rows given as ``columns`` of equal length, each a
    1-D array (one CSV column), a 2-D one (a CSV column per column of it)
    or the cells of one CSV column formatted already (a tuple, as
    :func:`_float_cells` gives them), as one ``uint8`` array: floats as
    ``%.17g``, integers as ``%d``.  A late cell's text goes at its row's
    start plus the widths of the cells before it and their separators.
    """
    cells = []
    for column in columns:
        if isinstance(column, tuple):
            cells.append(column)
        else:
            cells += [(_float_cells if x.dtype.kind == "f" else _int_cells)(x)
                      for x in (column.T if column.ndim == 2 else (column,))]
    rows = len(cells[0][2])
    comma, every = _const(ord(","), rows), np.broadcast_to(True, (rows, 1))
    text, valid = [], []
    for t, v, _, _ in cells:
        text += [*t, comma]
        valid += [*v, every]
    text[-1] = _const(ord("\n"), rows)
    out = np.concatenate(text, axis=1)[np.concatenate(valid, axis=1)]
    late = [(c, where, texts)
            for c, (_, _, _, (where, texts)) in enumerate(cells) if len(where)]
    if late:
        row = np.sum([width for _, _, width, _ in cells], axis=0,
                     dtype=np.int64) + len(cells)
        starts = np.cumsum(row) - row   # widths are uint8: sum in int64
        at = np.concatenate([sum((cells[k][2][where] for k in range(c)),
                                 starts[where] + c)
                             for c, where, _ in late]).tolist()
        pieces, end = [], 0
        for a, t in sorted(zip(at, (t for _, _, texts in late for t in texts))):
            pieces += [out[end:a], t]
            end = a
        out = np.frombuffer(b"".join([*pieces, out[end:]]), dtype=np.uint8)
    return out


def _formatted(x: np.ndarray):
    """The cells of column ``x``, as :func:`_float_cells` gives them but
    none of them late: every cell's text is left-aligned in one padded
    array.  They are formatted a block of ``_WRITE_CELLS`` at a time."""
    out = np.concatenate([_csv_block([x[lo:lo + _WRITE_CELLS]])
                          for lo in range(0, len(x), _WRITE_CELLS)]
                         or [np.empty(0, dtype=np.uint8)])
    ends = np.flatnonzero(out == ord("\n"))
    width = (np.diff(ends, prepend=-1) - 1).astype(np.uint8)
    valid = np.arange(width.max(initial=0)) < width[:, None]
    text = np.zeros(valid.shape, dtype=np.uint8)
    text[valid] = np.delete(out, ends)
    return text, valid, width


def _write_csv(path: Path, header: list[str], parts: list, indexed: bool,
               grid: np.ndarray | None = None) -> None:
    """Write CSV ``path``: ``header``, then the rows of each part in turn,
    a part being a tuple of equal-length column arrays (see
    :func:`_csv_block`), each row led by its part's index if ``indexed``,
    and then, given a ``grid`` that every part's rows share, by its time.

    The rows of all parts are formatted a block of ``_WRITE_CELLS`` cells
    (or one row) at a time, whatever part they come from, and each block's
    text is written in one call.  The grid is formatted once per file, and
    each block gathers its rows' times from that text.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    offsets = np.cumsum([0] + [len(part[0]) for part in parts])
    block = max(1, _WRITE_CELLS // len(header))
    times = None if grid is None else _formatted(grid)
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
            if times is not None:       # every part has a row per time
                text, valid, width = times
                at = np.arange(lo, hi) % len(grid)
                columns.insert(0, ([text[at]], [valid[at]], width[at],
                                   _NO_LATE))
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
               [(counts,) for counts in ens.samples], indexed=True,
               grid=ens.grid)
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


def _line_count(path: Path) -> int:
    """The lines of file ``path``, at least its rows: its ``\\n`` and
    ``\\r`` bytes, either of which ends a line in the text mode the
    readers read in (a ``\\r\\n`` counts twice), counted in numpy a read
    of up to ``3 * _CHUNK`` bytes at a time, plus one for a last line that
    neither ends.  A read is scanned for ``\\r`` again only if it holds
    one."""
    lines, last = 0, ord("\n")
    with open(path, "rb", buffering=0) as f:
        buf = bytearray(min(3 * _CHUNK, os.fstat(f.fileno()).st_size + 1))
        while got := f.readinto(buf):
            block = np.frombuffer(buf, dtype=np.uint8, count=got)
            lines += np.count_nonzero(block == ord("\n"))
            if buf.find(b"\r", 0, got) >= 0:
                lines += np.count_nonzero(block == ord("\r"))
            last = buf[got - 1]
    return lines + (last not in b"\r\n")


def _not_utf8(path: Path, exc: UnicodeDecodeError) -> DomainError:
    return DomainError(f"{path}: not UTF-8 text ({exc.reason}: "
                       f"{exc.object[exc.start:exc.end]!r})")


def _loadtxt_block(path: Path, f, start: int, dtype: np.dtype, lo: int):
    """The rows of the block at byte ``start`` of CSV ``path``, its file
    rows ``lo..``: the ``_CHUNK`` lines there, as a text-mode read gives
    them, parsed by :func:`numpy.loadtxt` one at a time.  ``f`` is left
    after them."""
    f.seek(start)
    text = io.TextIOWrapper(f, encoding="utf-8", newline="")
    size = 0

    def lines():
        nonlocal size
        for line in itertools.islice(text, _CHUNK):
            size += len(line) if line.isascii() else len(line.encode())
            # a text-mode read ends each line in '\n'
            yield line.rstrip("\r\n") + "\n" if line[-1] == "\r" or \
                line.endswith("\r\n") else line

    try:
        rows = np.loadtxt(lines(), dtype=dtype, delimiter=",", comments=None,
                          ndmin=1)
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None
    except ValueError as exc:
        # its message ends by naming the row it can, counted within the
        # block; name the row of the file instead
        message = re.sub(r"(.*at row )(\d+)",
                         lambda m: f"{m[1]}{int(m[2]) + lo}",
                         str(exc), count=1, flags=re.DOTALL)
        raise DomainError(f"{path}: {message}") from exc
    finally:
        text.detach()
    f.seek(start + size)
    return rows


def _blocks(path: Path, fields: list, replicas: int, counts: np.ndarray):
    """The rows of CSV ``path`` after its header row, parsed ``_CHUNK``
    lines at a time: ``(lo, rows)`` per block, ``rows`` being the file's
    rows ``lo..`` parsed as a leading replica column and then one field
    per column.  A block starts at a line that is not empty.

    A block is read as bytes, a piece of ``3 * _CHUNK`` bytes at a time
    (a piece costs about 60 numpy calls whatever its size, and three is
    the most that keeps a read within its tested memory bounds), and
    parsed in numpy (:meth:`rpsim.digits.Reader.rows`) if each of its
    lines is a row of decimal cells, each at most 17 significant digits
    and perhaps a negative exponent, from 10^-6 up.  Any other block, say
    one with an empty line, a ``\\r``, a positive exponent or a value
    below 10^-6, is read again as text and parsed by
    :func:`numpy.loadtxt`, which skips empty lines and names a bad row;
    either parse gives a cell the same value.

    Each block's rows are added to ``counts``, the rows per replica, as it
    arrives; rows that are not grouped by replica ``0..replicas-1`` raise
    :class:`DomainError` at once, as a file without a header row or with a
    byte that is not UTF-8 text does.
    """
    dtype = np.dtype([("replica", np.int64)] + fields)
    lo = last = 0
    with open(path, "rb") as f:
        reader = Reader(f, os.fstat(f.fileno()).st_size, 3 * _CHUNK)
        header = reader.header()
        if header is None:
            raise DomainError(f"{path}: empty file, expected a header row")
        try:
            header.decode()
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from None
        while (start := reader.block_start()) is not None:
            rows = reader.rows(dtype, _CHUNK)
            if rows is None:
                rows = _loadtxt_block(path, f, start, dtype, lo)
                reader.restart(f.tell())
            rep = rows["replica"]
            if (rep[0] < last or rep[-1] >= replicas
                    or np.any(rep[1:] < rep[:-1])):
                raise DomainError(f"{path}: rows are not grouped by replica "
                                  f"0..{replicas - 1}")
            last = rep[-1]
            counts += np.bincount(rep, minlength=replicas)
            yield lo, rows
            lo += len(rows)
            del rows, rep   # not held while the next block is parsed


def _load_samples(path: Path, spec: ModelSpec, replicas: int,
                  t_end: float):
    """The shared grid and the ``(replicas, G, n)`` samples of CSV
    ``path``, which must give every replica the same grid, one that
    ``run_ensemble`` takes for horizon ``t_end``, and hold non-negative
    counts that conserve the population in every sample.

    The samples array is sized from the file's lines and trimmed to its
    rows; each block's counts are copied to their place there as it
    arrives.  Replica 0's rows come first, and its times, buffered until
    its last row, give the grid that every later row is checked against.
    Rows that are not grouped by replica fail at once; the other checks,
    in the order above, after the last row.
    """
    n = spec.n
    fields = [("time", np.float64), ("counts", np.int64, (n,))]
    flat = np.empty((_line_count(path), n), dtype=np.int64)
    sizes = np.zeros(replicas, dtype=np.int64)
    head, grid = [np.empty(0)], None
    off_grid = broken = negative = False
    for lo, rows in _blocks(path, fields, replicas, sizes):
        times, counts = rows["time"], rows["counts"]
        flat[lo:lo + len(rows)] = counts
        broken = broken or bool(np.any(counts.sum(axis=1) != spec.total))
        negative = negative or bool(np.any(counts < 0))
        if grid is None:
            zero = int(np.searchsorted(rows["replica"], 1))
            head.append(times[:zero].copy())
            if zero == len(rows):
                continue
            grid, head = np.concatenate(head), None
            lo, times = lo + zero, times[zero:]
        if len(grid):   # else replica 0 has no rows, and the sizes differ
            # grouped rows of equal-sized replicas: row k is sample k % G
            # of replica k // G; the checks below catch any other
            at = lo % len(grid)
            tiled = np.resize(grid, at + len(times))[at:]   # grid, repeated
            off_grid = off_grid or bool(np.any(times != tiled))
        del rows, times, counts     # one block at a time
    grid = np.concatenate(head) if grid is None else grid
    if np.any(sizes != sizes[0]):
        raise DomainError(f"{path}: replicas do not share one grid")
    try:
        _check_run(t_end, grid)
    except DomainError as exc:
        raise DomainError(f"{path}: {exc}") from exc
    if off_grid:
        raise DomainError(f"{path}: replicas do not share one grid")
    if negative:
        raise DomainError(f"{path}: a sample has a negative count")
    if broken:
        raise DomainError(f"{path}: a sample breaks population conservation")
    return grid, flat[:replicas * len(grid)].reshape(replicas, len(grid), n)


def _load_events(path: Path, spec: ModelSpec, n_events: list,
                 final_counts: list, final_time: list):
    """The flat event times, reactions and replica offsets of CSV ``path``,
    checked against the manifest's ``n_events``, ``final_counts`` and
    ``final_time``.

    The log is parsed a block of rows at a time into arrays sized from the
    file's lines and trimmed to its rows; the manifest's counts are only
    compared with the rows read.
    """
    if not all(type(k) is int and k >= 0 for k in n_events):
        raise DomainError(f"{path}: the manifest's n_events must be "
                          "non-negative integers")
    replicas = len(n_events)
    fields = [("time", np.float64), ("reaction", np.int16)]
    size = _line_count(path)
    times = np.empty(size)
    reactions = np.empty(size, dtype=np.int16)
    counts = np.zeros(replicas, dtype=np.int64)
    for lo, rows in _blocks(path, fields, replicas, counts):
        times[lo:lo + len(rows)] = rows["time"]
        reactions[lo:lo + len(rows)] = rows["reaction"]
        del rows    # nor here: one block at a time
    offsets = np.concatenate(([0], np.cumsum(counts)))
    times, reactions = times[:offsets[-1]], reactions[:offsets[-1]]
    for i in range(replicas):
        # every replica before the first miscounted one is where the
        # manifest puts it
        if counts[i] != n_events[i]:
            raise DomainError(f"{path}: replica {i} has {counts[i]} events, "
                              f"the manifest says {n_events[i]}")
        lo, hi = offsets[i], offsets[i + 1]
        _check_log(path, i, spec, final_counts[i], final_time[i],
                   times[lo:hi], reactions[lo:hi])
    return times, reactions, offsets


def _check_log(path: Path, i: int, spec: ModelSpec, final_counts: list,
               final_time: float, times: np.ndarray,
               reactions: np.ndarray) -> None:
    """Raise DomainError unless replica ``i``'s event log is in time order,
    starts at 0 or later, ends by ``final_time`` and replays to
    ``final_counts`` (reaction j moves one unit from species j+1 to species
    j)."""
    n = spec.n
    if not np.all(np.diff(times) >= 0):
        raise DomainError(f"{path}: replica {i} has event times out of order")
    if len(times) and times[0] < 0:
        raise DomainError(f"{path}: replica {i} logs an event at "
                          f"{times[0]}, before time 0")
    if len(times) and times[-1] > final_time:
        raise DomainError(f"{path}: replica {i} logs an event at "
                          f"{times[-1]}, after its final time {final_time}")
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
    kind ``ensemble``, that lacks a key, whose ``format_version`` is not the
    integer ``FORMAT_VERSION``, whose model
    :class:`~rpsim.core.ModelSpec` refuses, whose base seed is not a
    non-negative integer, whose trajectories are not a list of objects,
    whose absorption or final times are not finite non-negative numbers
    (an absorption time may be null), with an absorbed replica whose final
    time is not its absorption time or unabsorbed replicas that do not
    share one final time, whose ``absorbed_fraction`` is not the
    share of replicas with an absorption time, whose ``has_event_log``
    values are not bools, whose ``replicas`` is not the number of its
    trajectories, whose replicas are not seeds ``0..R-1`` or mix logged and
    unlogged runs, or, without event logs, whose final counts are not n
    non-negative integers summing to the total; for replicas that do not
    share one grid, a grid that ``run_ensemble`` would refuse for a horizon
    at the unabsorbed replicas' final time (at ``inf`` if every replica
    absorbed), a negative count, or a sample that breaks conservation; and
    for an event log that is out of order, logs an event before time 0 or
    after its replica's final time or does not replay to its manifest
    entry, or whose manifest
    event counts are not non-negative integers or not its rows per replica;
    and for a CSV with more lines than memory holds a row for, since every
    array is sized from its CSV's lines, empty ones too, not from the
    manifest or from replica 0's rows.
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
        version, base_seed, declared, fraction, metas = (
            manifest[key] for key in ("format_version", "base_seed",
                                      "replicas", "absorbed_fraction",
                                      "trajectories"))
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
    if type(version) is not int or version != FORMAT_VERSION:
        raise DomainError(f"{path}: format_version is {version!r}, expected "
                          f"{FORMAT_VERSION}")
    base_seed = check_seed(base_seed, f"{path}: base seed")
    if not all(type(t) in (int, float) and 0 <= t < math.inf
               for t in final_time + [a for a in absorbed if a is not None]):
        raise DomainError(f"{path}: absorption and final times must be "
                          "finite non-negative numbers")
    # a replica ends where it absorbs, or else at the run's one t_end
    for i, (a, end) in enumerate(zip(absorbed, final_time)):
        if a is not None and end != a:
            raise DomainError(f"{path}: replica {i} absorbed at {a!r}, but "
                              f"its final time is {end!r}")
    ends = {end for a, end in zip(absorbed, final_time) if a is None}
    if len(ends) > 1:
        raise DomainError(f"{path}: unabsorbed replicas do not share one "
                          "final time")
    # the run's t_end, which bounds the grid; any, if every replica absorbed
    t_end = ends.pop() if ends else math.inf
    replicas = len(metas)
    if not replicas or seeds != list(range(replicas)):
        raise DomainError(f"{path}: replica seeds are not 0..R-1, R >= 1")
    if type(declared) is not int or declared != replicas:
        raise DomainError(f"{path}: replicas is {declared!r}, but "
                          f"{replicas} trajectories are listed")
    share = sum(a is not None for a in absorbed) / replicas
    if type(fraction) not in (int, float) or fraction != share:
        raise DomainError(f"{path}: absorbed_fraction is {fraction!r}, but "
                          f"the trajectories give {share!r}")
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

    try:
        grid, samples = _load_samples(out / "samples.csv", spec, replicas,
                                      t_end)
        event_times = event_reactions = offsets = None
        if logged[0]:
            event_times, event_reactions, offsets = _load_events(
                out / "events.csv", spec, n_events, final_counts, final_time)
    except MemoryError:
        raise DomainError(f"{out}: a CSV has too many lines to hold") from None
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
    """replica,time,v1..vn for a collection of fluctuation paths, which
    must share one grid (bit for bit), as :func:`run_sde_ensemble`'s do."""
    out, paths = Path(out_path), list(paths)
    if not paths:
        raise DomainError("no paths to write")
    grid = np.asarray(paths[0].grid, dtype=float)
    for i, p in enumerate(paths):
        if p.grid is not paths[0].grid and (
                np.asarray(p.grid, dtype=float).tobytes() != grid.tobytes()):
            raise DomainError(f"paths must share one grid: path {i}'s "
                              "differs from path 0's")
    n = paths[0].values.shape[1]
    _write_csv(out, ["replica", "time"] + _count_header(n, "v"),
               [(p.values,) for p in paths], indexed=True, grid=grid)
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
