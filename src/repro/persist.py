"""Crash-safe file replacement — the one place the package renames a
temp file over its target (dataset cache entries, results-store
rewrites, live-daemon and cluster checkpoints all come through here).
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


def atomic_write(path: "str | Path", data: "bytes | str") -> None:
    """Replace ``path`` with ``data``; readers see the old file or the
    new one, never a torn one.

    The bytes (``str`` is written as UTF-8) go to a uniquely named temp
    file in the target's directory, created if missing — same
    filesystem, so the rename is atomic; unique, so two writers never
    clobber each other's temp — which ``os.replace`` then moves over
    ``path``.  On any failure the temp file is removed and the old file
    left as it was.  Nothing is fsynced: the guarantee is against torn
    files, not against power loss.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(data, str):
        data = data.encode("utf-8")
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
