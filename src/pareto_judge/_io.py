"""Atomic file output: write to a sibling temp file, rename on success."""

from __future__ import annotations

import contextlib
import os
import tempfile


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path as UTF-8 with LF line endings, whatever the platform."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = None
    try:
        fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
        with os.fdopen(fd, "wb") as handle:
            handle.write(text.encode("utf-8"))
        os.replace(tmp_path, path)
    except BaseException as exc:
        if tmp_path is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp_path)
        if isinstance(exc, OSError):
            # name the requested path, not the random temp name
            raise OSError(exc.errno, exc.strerror, path) from None
        raise
