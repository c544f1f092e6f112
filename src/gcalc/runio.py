"""Deterministic result emission: canonical config hashing and CSV/JSON
writers that embed the hash and seed, so identical (config, seed) runs
produce byte-identical files.

CSV values are written by type: strings as they are, bools (``bool`` and
``np.bool_``) as ``true``/``false``, integers (``int`` and ``np.integer``)
as ``%d``, and every other value as ``float(v)`` in ``%.17g``, which
round-trips every float64 value (``-0`` and ``inf`` included; every NaN
reads ``nan``)."""

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


def write_table(target, header, rows, comments=()) -> None:
    """CSV with '#'-prefixed comment lines before the header row.  rows is
    an iterable of rows or a 2-D ndarray."""
    if isinstance(rows, np.ndarray):
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
    finally:
        if close:
            fh.close()


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
