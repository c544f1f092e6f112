"""Deterministic result emission: canonical config hashing and CSV/JSON
writers that embed the hash and seed, so identical (config, seed) runs
produce byte-identical files.

CSV values are written by type: strings as they are, bools (``bool`` and
``np.bool_``) as ``true``/``false``, integers (``int`` and ``np.integer``)
as ``%d``, and every other value as ``float(v)`` in ``%.17g``, which
round-trips every float64 value (``-0`` and ``inf`` included; every NaN
reads ``nan``).

A 2-D bool, integer or float ndarray is written column by column, with the
same bytes as its rows would get: in each block of rows, each distinct
value of a column (a float64 bit pattern, so ``-0.0`` and ``+0.0`` stay
apart) is formatted once and its text gathered back to every row that
holds it."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from . import __version__


def config_hash(obj) -> str:
    """sha256 of the canonical JSON encoding (sorted keys, no whitespace)."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_jsonable)
    return hashlib.sha256(blob.encode()).hexdigest()


def _jsonable(v):
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    raise TypeError(f"not JSON-serializable: {type(v)}")


def standard_comments(cfg_hash: str, seed) -> list:
    return [f"config_hash={cfg_hash}", f"seed={seed}", f"artifact_version={__version__}"]


# rows formatted per write to the file
_CHUNK = 1024
# rows of a 2-D ndarray formatted together, each distinct value of a column
# once: a larger block shares more texts (a time grid repeated per path),
# but its cells no longer stay in cache; on 25 025 x 5 tables, 8192 rows
# ran as fast as 65 536 where values repeat and 8% faster where none do
_BLOCK_ROWS = 8192


def write_table(target, header, rows, comments=()) -> None:
    """CSV with '#'-prefixed comment lines before the header row.  rows is
    an iterable of rows or a 2-D ndarray."""
    # a table without columns has only empty lines, which the row writer makes
    columnar = (isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.shape[1] > 0
                and rows.dtype.kind in "biuf")
    if isinstance(rows, np.ndarray) and not columnar:
        rows = rows.tolist()
    close = False
    if isinstance(target, (str, Path)):
        fh = open(target, "w", newline="")
        close = True
    else:
        fh = target
    try:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(header) + "\n")
        (_write_columns if columnar else _write_rows)(fh, rows)
    finally:
        if close:
            fh.close()


def _write_rows(fh, rows) -> None:
    """The lines of rows of Python or numpy scalars, _CHUNK lines a write."""
    formats = {}  # row type signature -> (line format, bool columns)
    lines = []
    for row in rows:
        kinds = tuple(map(type, row))
        try:
            fmt, bools = formats[kinds]
        except KeyError:
            fmt, bools = formats[kinds] = _row_format(kinds)
        if bools:
            row = [("true" if v else "false") if i in bools else v
                   for i, v in enumerate(row)]
        lines.append(fmt % tuple(row))
        if len(lines) == _CHUNK:
            fh.write("".join(lines))
            lines.clear()
    fh.write("".join(lines))


def _write_columns(fh, table) -> None:
    """The lines of a 2-D bool, integer or float array, _BLOCK_ROWS lines a
    write."""
    n_cols = table.shape[1]
    ends = [","] * (n_cols - 1) + ["\n"]
    for start in range(0, len(table), _BLOCK_ROWS):
        block = table[start:start + _BLOCK_ROWS]
        # each row's texts, each followed by its comma or newline
        cells = np.empty((len(block), 2 * n_cols), dtype=object)
        cells[:, 1::2] = ends
        for j in range(n_cols):
            texts, index = _distinct_texts(block[:, j])
            cells[:, 2 * j] = texts[index]
        fh.write("".join(cells.ravel().tolist()))


def _distinct_texts(col):
    """The text of each distinct value of col, as an object array, and the
    position of each entry's text in it.

    Floats are told apart by their float64 bits, so -0.0 keeps its sign
    and every NaN (whatever its payload) reads nan.  The texts come from
    one format of all the distinct values, split at the commas between
    them (no text holds a comma), which costs less than a format each."""
    kind = col.dtype.kind
    if kind == "f":
        col = col.astype(np.float64, copy=False).view(np.uint64)
    distinct, index = np.unique(col, return_inverse=True)
    if kind == "f":
        fmt, values = "%.17g", distinct.view(np.float64).tolist()
    elif kind == "b":
        fmt, values = "%s", ["true" if v else "false" for v in distinct.tolist()]
    else:
        fmt, values = "%d", distinct.tolist()
    texts = (",".join([fmt] * len(values)) % tuple(values)).split(",")
    return np.array(texts, dtype=object), index


def _row_format(kinds):
    """The line format of rows with these value types, and the columns
    that hold bools."""
    fields, bools = [], set()
    for i, kind in enumerate(kinds):
        if issubclass(kind, str):
            fields.append("%s")
        elif issubclass(kind, (bool, np.bool_)):
            fields.append("%s")
            bools.add(i)
        elif issubclass(kind, (int, np.integer)):
            fields.append("%d")
        else:
            fields.append("%.17g")
    return ",".join(fields) + "\n", frozenset(bools)


def write_json(target, obj, comments=None) -> None:
    doc = dict(obj)
    if comments:
        doc = {"meta": comments, **doc}
    text = json.dumps(doc, indent=2, default=_jsonable) + "\n"
    if isinstance(target, (str, Path)):
        Path(target).write_text(text)
    else:
        target.write(text)
