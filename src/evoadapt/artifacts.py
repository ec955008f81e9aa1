"""Output files written whole or not at all.

Each artifact is written to a temporary file beside its final path and then
moved over it with `os.replace`, so a run killed or failing midway leaves
the previous file as it was, never a truncated one.
"""

from __future__ import annotations

import csv
import os
from contextlib import contextmanager


@contextmanager
def replace_atomically(path, newline=None):
    """A text file to write; on success it replaces `path`, on an error it
    is removed and `path` is left untouched."""
    path = os.fspath(path)
    directory, name = os.path.split(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_csv(path, rows) -> None:
    with replace_atomically(path, newline="") as fh:
        csv.writer(fh).writerows(rows)
