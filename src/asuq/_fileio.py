"""Atomic text-file writes for campaign manifests and reports."""

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_open(path):
    """Open ``path`` for text writing through ``<path>.tmp``.

    On a clean exit the temp file is fsynced and renamed over ``path``;
    on any failure it is removed and ``path`` keeps its old contents.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
