"""Atomic text-file writes, and the JSON encoding, of manifests and reports."""

import json
import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_open(path):
    """Open ``path`` for text writing through ``<path>.tmp``.

    On a clean exit the temp file is fsynced, renamed over ``path``, and
    the directory fsynced so the rename is durable; on any failure the
    temp file is removed and ``path`` keeps its old contents.
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
    fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def jsonable(obj):
    """``json``'s fallback: a numpy array or scalar as its ``tolist()``, a
    dataclass instance as a dict of its fields in definition order."""
    if hasattr(obj, "tolist"):
        return obj.tolist()
    fields = getattr(type(obj), "__dataclass_fields__", None)
    if fields is None:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    return {name: getattr(obj, name) for name in fields}


def write_json(path, obj) -> None:
    """Write ``obj`` atomically as JSON, indented by 2, with a final newline.

    Arrays and dataclasses go through :func:`jsonable`. ``json.dump``
    writes piece by piece, so the whole text of a large document
    (results.json's N*m replicates) is never held at once.
    """
    with atomic_open(path) as fh:
        json.dump(obj, fh, indent=2, default=jsonable)
        fh.write("\n")
