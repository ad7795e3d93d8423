"""Atomic file replacement: a temp sibling, then ``os.replace``.

Checkpoints, solution records, park sidecars and tuned-config cache
entries are all read back by later processes, so none may ever be
observed half written.  :func:`atomic_write` is the one way they are
written.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
from collections.abc import Iterator
from pathlib import Path
from typing import BinaryIO


@contextlib.contextmanager
def atomic_write(path: str | Path) -> Iterator[BinaryIO]:
    """Yield a binary file whose bytes replace ``path`` on success.

    The file is a temporary sibling of ``path`` (same directory, so
    the final ``os.replace`` is atomic).  If the body or the replace
    raises, the temporary is removed and ``path`` keeps whatever it
    held before -- a crash mid-write never tears it.
    """
    fd, tmp = tempfile.mkstemp(dir=Path(path).parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
