"""Every file the package writes: CSV tables, JSON documents and plain text.

One rule formats CSV cells: a float is written as repr of the Python float
(the shortest string that reads back to the same double), an int in decimal,
a bool as true/false, and a missing cell empty. JSON has sorted keys, an
indent of 2 and a trailing newline. Files are UTF-8 with "\\n" line endings,
and each writer creates the parent directory (make_dir). An OSError while a
directory is made is raised as IoFailure naming the directory; one while a
file is opened or written (a full disk) as IoFailure naming the file.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .errors import IoFailure

BLOCK_CELLS = 2048  # cells formatted at a time, so no file is held as strings at once
_CELL_TEXT = {"f": repr, "i": str, "u": str, "b": lambda v: "true" if v else "false"}  # by dtype kind


def make_dir(path) -> None:
    """Create the directory and its parents, if missing."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create directory {path}: {exc}") from exc


@contextmanager
def _open(path):
    path = Path(path)
    make_dir(path.parent)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def _cells(block) -> list[str]:
    """Text of each value of a 1-D block, by the cell rule."""
    block = np.asarray(block)
    if block.dtype.kind not in _CELL_TEXT:
        raise TypeError(f"no CSV cell rule for dtype {block.dtype}")
    return list(map(_CELL_TEXT[block.dtype.kind], block.tolist()))


def write_csv(path, header, columns) -> None:
    """Write the header line, then one row per index across the columns.

    There are as many rows as the longest column has values; a shorter
    column, an empty one too, leaves its last cells missing. Header entries
    that are not strings follow the cell rule.
    """
    columns = [np.asarray(c) for c in columns]
    n = max(map(len, columns))
    block = max(1, BLOCK_CELLS // len(columns))
    with _open(path) as fh:
        fh.write(",".join(h if isinstance(h, str) else _cells([h])[0] for h in header) + "\n")
        for lo in range(0, n, block):
            cells = [_cells(c[lo:lo + block]) for c in columns]
            fh.writelines(",".join(row) + "\n" for row in zip_longest(*cells, fillvalue=""))


def json_text(payload) -> str:
    """The JSON document of payload: sorted keys, indent 2, no trailing newline."""
    return json.dumps(payload, sort_keys=True, indent=2)


def write_json(path, payload) -> None:
    write_text(path, json_text(payload) + "\n")


def write_text(path, text: str) -> None:
    with _open(path) as fh:
        fh.write(text)
