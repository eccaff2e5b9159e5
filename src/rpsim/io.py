"""Deterministic CSV/JSON serialization, and the ``.npy`` store that
ensembles are read back from.

Every writer produces byte-identical output for equal inputs: floats are
rendered with ``%.17g`` (lossless for IEEE doubles), JSON keys are sorted,
newlines are always ``\\n``.

CSVs are written a block of rows at a time.  A writer formats up to
``_WRITE_CELLS`` cells at once, in rows of all replicas or paths alike,
column by column in numpy: each double's 17 significant digits come from an
exact (Dekker) product, rounded half-even as CPython's ``%.17g`` rounds
them, and a table of 4-digit groups turns digits and integers into text.
The block's text is one ``uint8`` array, written in one call.  Only the
doubles that ``%.17g`` prints with an exponent, and non-finite ones, go
through ``%`` itself, one at a time; each cell's printed width places their
text in the block.  A grid that every replica or path shares is printed
once per file by ``%`` itself, into a NUL-padded bytes array, and each
block gathers its rows' times from that array as cells printed already.

An ensemble's CSVs are output for people and for sha256 pins; nothing reads
them back.  Next to them :func:`write_ensemble` saves each array of the
ensemble as a ``.npy`` file (NumPy NEP 1: a header giving dtype and shape,
then the array's bytes), and :func:`read_ensemble` loads those, so a
write/read round trip reproduces an ensemble bit for bit with no parser.
The reader checks each array's dtype and shape, and its values as a run
would leave them, including each event log against the manifest's event
count and final counts.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .core import DomainError, ModelSpec, RpsimError, check_seed
from .meanfield import MeanFieldPath
from .simulate import Ensemble, _check_run

__all__ = [
    "write_json",
    "write_ensemble",
    "read_ensemble",
    "write_meanfield",
    "write_covariances",
    "write_gaussian_paths",
    "write_validation_reports",
]

FORMAT_VERSION = 1

# the arrays of an ensemble's store, each saved as <name>.npy, and their
# dtypes; the event log's two are saved only if the ensemble keeps it
_STORE = {"grid": np.float64, "samples": np.int64,
          "event_times": np.float64, "event_reactions": np.int16}


# cells formatted as one block of text, at most; it bounds the writers'
# memory (a block holds about 100 bytes a cell)
_WRITE_CELLS = 3 * 16384

# 10^k, exact as a double for k <= 22, and its Veltkamp split into halves
_POW10 = np.array([float(10**k) for k in range(23)])
_SPLIT = 2.0**27 + 1


def _halves(a):
    c = a * _SPLIT
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _halves(_POW10)


def mantissa(a, e):
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


def _bytes_cells(x: np.ndarray):
    """The cells of contiguous byte strings ``x``, printed already, as the
    cells of :func:`_float_cells`, none of them late: each string's bytes,
    its NUL padding invalid."""
    text = x.view(np.uint8).reshape(len(x), x.itemsize)
    return [text], [text != 0], np.char.str_len(x), _NO_LATE


def _csv_block(columns: list) -> np.ndarray:
    """The CSV text of rows given as ``columns`` of equal length, each a
    1-D array (one CSV column) or a 2-D one (a CSV column per column of
    it), as one ``uint8`` array: floats as ``%.17g``, integers as ``%d``
    and byte strings as they are.  A late cell's text goes at its row's
    start plus the widths of the cells before it and their separators.
    """
    cells = [(_float_cells if x.dtype.kind == "f" else
              _bytes_cells if x.dtype.kind == "S" else _int_cells)(x)
             for column in columns
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


def _write_csv(path: Path, header: list[str], parts: list, indexed: bool,
               grid: np.ndarray | None = None) -> None:
    """Write CSV ``path``: ``header``, then the rows of each part in turn,
    a part being a tuple of equal-length column arrays (see
    :func:`_csv_block`), each row led by its part's index if ``indexed``,
    and then, given a ``grid`` that every part's rows share, by its time.

    The rows of all parts are formatted a block of ``_WRITE_CELLS`` cells
    (or one row) at a time, whatever part they come from, and each block's
    text is written in one call.  The grid is printed once per file, by
    ``%``, and each block gathers its rows' times from that array.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    offsets = np.cumsum([0] + [len(part[0]) for part in parts])
    block = max(1, _WRITE_CELLS // len(header))
    times = None if grid is None else np.array(
        [b"%.17g" % t for t in grid.tolist()], dtype=bytes)
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
                columns.insert(0, times[np.arange(lo, hi) % len(grid)])
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
    both replica-major with each row led by its replica index; then the
    store that :func:`read_ensemble` reads, grid.npy and samples.npy and,
    with the log, event_times.npy and event_reactions.npy; then
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
    for name, dtype in _STORE.items():
        if (a := getattr(ens, name)) is not None:
            np.save(out / f"{name}.npy", np.ascontiguousarray(a, dtype=dtype),
                    allow_pickle=False)
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


def _load(path: Path, shape: tuple) -> np.ndarray:
    """The array of store file ``path``, which must hold the dtype that
    ``_STORE`` gives its name in ``shape`` (a length of -1 there matches
    any)."""
    try:
        a = np.load(path, allow_pickle=False)
    except FileNotFoundError:
        raise DomainError(f"{path}: missing (an ensemble written without "
                          "the .npy store has only CSVs, which are not "
                          "read back)") from None
    except MemoryError:     # the header's shape, not the file, is the size
        raise DomainError(f"{path}: its header gives an array too large to "
                          "hold") from None
    except (EOFError, ValueError) as exc:   # truncated, pickled, not .npy
        raise DomainError(f"{path}: not a .npy array file: {exc}") from None
    dtype = np.dtype(_STORE[path.stem])
    if a.dtype != dtype:
        raise DomainError(f"{path}: holds {a.dtype}, expected {dtype}")
    if a.ndim != len(shape) or any(k not in (-1, m)
                                   for m, k in zip(a.shape, shape)):
        raise DomainError(f"{path}: has shape {a.shape}, expected {shape}")
    return a


def _check_log(out: Path, i: int, spec: ModelSpec, final_counts: list,
               final_time: float, times: np.ndarray,
               reactions: np.ndarray) -> None:
    """Raise DomainError, naming the store file at fault, unless replica
    ``i``'s event log is in time order, starts at 0 or later, ends by
    ``final_time`` and replays to ``final_counts`` (reaction j moves one
    unit from species j+1 to species j)."""
    n, path = spec.n, out / "event_times.npy"
    # a byte per event, where np.diff would take nine
    if not np.all(times[1:] >= times[:-1]):
        raise DomainError(f"{path}: replica {i} has event times out of order")
    if len(times) and times[0] < 0:
        raise DomainError(f"{path}: replica {i} logs an event at "
                          f"{times[0]}, before time 0")
    if len(times) and times[-1] > final_time:
        raise DomainError(f"{path}: replica {i} logs an event at "
                          f"{times[-1]}, after its final time {final_time}")
    path = out / "event_reactions.npy"
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
    """The ensemble that :func:`write_ensemble` wrote, bit for bit, from its
    manifest and its ``.npy`` store; the CSVs are not read.

    Raises :class:`DomainError`, naming the file at fault:

    - for a manifest that is not a JSON object of kind ``ensemble``, that
      lacks a key, whose ``format_version`` is not the integer
      ``FORMAT_VERSION``, whose model :class:`~rpsim.core.ModelSpec`
      refuses, whose base seed is not a non-negative integer, whose
      trajectories are not a list of objects, whose absorption or final
      times are not finite non-negative numbers (an absorption time may be
      null), with an absorbed replica whose final time is not its
      absorption time or unabsorbed replicas that do not share one final
      time, whose ``absorbed_fraction`` is not the share of replicas with
      an absorption time, whose ``has_event_log`` values are not bools,
      whose ``replicas`` is not the number of its trajectories, whose
      replicas are not seeds ``0..R-1`` or mix logged and unlogged runs,
      with event logs, whose event counts are not non-negative integers,
      or, without them, whose final counts are not n non-negative integers
      summing to the total;
    - for a store file that is missing (as in a directory an rpsim without
      the store wrote), truncated, not a ``.npy`` array file, an object
      array (pickles are not loaded), or whose header gives an array too
      large to hold;
    - for a store array of another dtype (``float64`` grid and event
      times, ``int64`` samples, ``int16`` reactions) or shape (``(G,)``
      grid, ``(R, G, n)`` samples, ``(sum of n_events,)`` event log);
    - for a grid that ``run_ensemble`` would refuse for a horizon at the
      unabsorbed replicas' final time (at ``inf`` if every replica
      absorbed), a negative count, or a sample that breaks conservation;
    - for an event log, cut at the manifest's event counts, that is out of
      order, logs an event before time 0 or after its replica's final
      time, or does not replay to its manifest entry.
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
    if logged[0] and not all(type(k) is int and k >= 0 for k in n_events):
        raise DomainError(f"{path}: n_events must be non-negative integers")

    grid = _load(out / "grid.npy", (-1,))
    samples = _load(out / "samples.npy", (replicas, len(grid), spec.n))
    try:
        _check_run(t_end, grid)
    except DomainError as exc:
        raise DomainError(f"{out / 'grid.npy'}: {exc}") from exc
    if np.any(samples < 0):
        raise DomainError(f"{out / 'samples.npy'}: a sample has a negative "
                          "count")
    if np.any(samples.sum(axis=2) != spec.total):
        raise DomainError(f"{out / 'samples.npy'}: a sample breaks "
                          "population conservation")
    event_times = event_reactions = offsets = None
    if logged[0]:
        size = (sum(n_events),)
        event_times = _load(out / "event_times.npy", size)
        event_reactions = _load(out / "event_reactions.npy", size)
        offsets = np.cumsum([0] + n_events)
        for i, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])):
            _check_log(out, i, spec, final_counts[i], final_time[i],
                       event_times[lo:hi], event_reactions[lo:hi])
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
