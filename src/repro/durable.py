"""Durable file writes: the one atomic publish and the one advisory lock.

Every file the campaign fleet shares is written through this module:

* :func:`publish` replaces a file atomically.  The bytes are streamed into a
  ``.<target name>-*.tmp`` file beside the target, fsynced and moved over the
  target with ``os.replace``, so a reader sees the old file or the new one,
  never a mix.  A crash before the rename leaves the target untouched and the
  staging file behind (``fsck`` sweeps files matching :data:`STAGING_GLOB`).
* :func:`locked` holds an exclusive ``flock`` on a ``<file>.lock`` sidecar
  (:func:`lock_path`).  The lock lives on a sidecar, not on the file itself,
  because :func:`publish` replaces the file's inode: a lock taken on the old
  inode would stop excluding writers that open the new one.

The result store (appends, compaction), the trace store (blob saves) and the
coordinator (lease records, the submitted grid) use these two helpers and no
other ``mkstemp``, ``fsync``, ``os.replace`` or ``flock``.
"""

from __future__ import annotations

import os
import tempfile
from collections.abc import Iterable
from contextlib import contextmanager
from pathlib import Path

try:  # POSIX-only; on other platforms the lock is a no-op.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from repro.faults.plan import InjectedFault, active_faults

#: Names of the staging files :func:`publish` writes (``.<target>-<random>.tmp``).
STAGING_GLOB = ".*.tmp"


def lock_path(path: Path) -> Path:
    """The ``<file>.lock`` sidecar that :func:`locked` takes ``path``'s lock on."""
    return path.with_suffix(path.suffix + ".lock")


@contextmanager
def locked(path: Path):
    """Hold the exclusive inter-process lock on ``path`` (its ``.lock`` sidecar).

    The lock drops when the sidecar's handle closes, so it dies with its holder.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX fallback
        yield
        return
    sidecar = lock_path(path)
    sidecar.parent.mkdir(parents=True, exist_ok=True)
    with sidecar.open("a+", encoding="utf-8") as handle:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        yield


def publish(path: Path, chunks: Iterable[bytes], crash_site: str | None = None) -> None:
    """Atomically replace ``path`` with the concatenated byte ``chunks``.

    The chunks are written as they are produced, so a caller can stream a large
    file (the result store's rows) without first joining it in memory.

    ``crash_site`` names a fault-injection site that fires after the staged
    bytes are fsynced and before the rename.  Its :class:`InjectedFault` stands
    in for a SIGKILL, so the staging file is left behind as a killed process
    would leave it; any other failure removes the staging file.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    handle, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}-", suffix=".tmp"
    )
    try:
        with os.fdopen(handle, "wb") as stream:
            stream.writelines(chunks)
            stream.flush()
            os.fsync(stream.fileno())
        faults = active_faults() if crash_site is not None else None
        if faults is not None:
            faults.crash_if(crash_site)
        os.replace(tmp_name, path)
    except InjectedFault:
        raise
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
