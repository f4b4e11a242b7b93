"""Atomic file output: write to a sibling temp file, rename on success.

Every output is created the way ``open(path, "w")`` creates a new file: mode
0o666 less the umask, as ``os.makedirs`` gives the figure directories 0o777
less the umask. The temp file is a sibling ``.tmp-<16 random hex digits>~``
opened exclusively, so concurrent writers in one directory never share one,
and a failed write leaves neither it nor a partial output behind.
"""

from __future__ import annotations

import contextlib
import os


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path as UTF-8 with LF line endings, whatever the platform."""
    tmp_path = os.path.join(os.path.dirname(os.path.abspath(path)), f".tmp-{os.urandom(8).hex()}~")
    created = False
    try:
        with open(tmp_path, "xb") as handle:
            created = True
            handle.write(text.encode("utf-8"))
        os.replace(tmp_path, path)
    except BaseException as exc:
        if created:
            with contextlib.suppress(OSError):
                os.unlink(tmp_path)
        if isinstance(exc, OSError):
            # name the requested path, not the random temp name
            raise OSError(exc.errno, exc.strerror, path) from None
        raise
