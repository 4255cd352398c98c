"""Atomic artifact writes: a reader sees the old file or the new one, never a part."""
from __future__ import annotations

import os
from pathlib import Path


def write_bytes(path: str | Path, data: bytes) -> None:
    """Write `data` to a temporary file beside `path`, then rename it over `path`.

    The rename is atomic on POSIX and Windows, so an interrupted or failed
    write leaves any previous file intact; the temporary file is removed on
    failure. No fsync: this guards against partial files, not power loss.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
