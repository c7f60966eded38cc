"""Deterministic fault injection for the storage layer.

The crash-safety claims in :mod:`repro.storage` ("a torn ``flush()`` is
always recoverable", "an atomic save never destroys the old file") are
only claims until a test kills the writer at *every* byte of the
protocol and proves recovery each time.  This module provides the
machinery to do that reproducibly, with no subprocesses and no timing:

* :class:`FaultPlan` — a mutable schedule of one fault: simulate a
  process kill after N more bytes (or N more ``write()`` calls), or
  raise ``OSError`` (``ENOSPC``/``EIO``/...) at the Nth byte.  One plan
  may be shared by several wrapped files (e.g. a transaction file's
  data + index pair) so the byte budget spans the whole protocol.
* :class:`FaultyFile` — a file-object proxy that enforces the plan.  On
  a simulated crash it flushes exactly the bytes "already on disk",
  closes the real handle and every sibling armed with the same plan
  (at the raw file, so their unflushed buffers are lost), and raises
  :class:`SimulatedCrash`; every later operation on a dead handle
  raises again, like writes from a killed process.
* :func:`faulty_open` — a context manager that patches ``builtins.open``
  so writes to a matching path go through a :class:`FaultyFile`; this
  reaches code that opens its own files (the atomic-save helpers).
* :func:`flip_bit` / :func:`truncate_to` — at-rest corruption: bit rot
  and torn tails applied directly to closed files.

:class:`SimulatedCrash` derives from :class:`BaseException` on purpose:
production code that catches ``Exception``/``OSError`` must not be able
to swallow a simulated kill, exactly as it cannot swallow ``kill -9``.
"""

from __future__ import annotations

import builtins
import errno as _errno
import os
from contextlib import contextmanager
from pathlib import Path


class SimulatedCrash(BaseException):
    """The simulated process kill; deliberately not an :class:`Exception`."""


class FaultPlan:
    """A schedule of one injected fault, shared across wrapped files.

    Exactly one trigger should be set:

    ``crash_after_bytes``
        After this many more payload bytes are written (across every
        file sharing the plan), the write stops short and the process
        "dies": the partial bytes are flushed to disk and
        :class:`SimulatedCrash` is raised.
    ``crash_after_ops``
        Same, but counted in ``write()`` calls instead of bytes.
    ``error_after_bytes``
        At the trigger byte an ``OSError`` with ``error_errno`` is
        raised instead (default ``ENOSPC``).  The file stays alive —
        disk-full is an error the writer may handle — and the partial
        bytes of the failing write are on disk, as a real short write
        would leave them.
    """

    def __init__(
        self,
        *,
        crash_after_bytes: int | None = None,
        crash_after_ops: int | None = None,
        error_after_bytes: int | None = None,
        error_errno: int = _errno.ENOSPC,
    ):
        self.crash_after_bytes = crash_after_bytes
        self.crash_after_ops = crash_after_ops
        self.error_after_bytes = error_after_bytes
        self.error_errno = error_errno
        self.bytes_written = 0
        self.ops = 0
        self.crashed = False
        #: The real handles armed with this plan; a kill closes them all.
        self.files: list = []

    def disarm(self) -> None:
        """Clear every trigger (e.g. "the disk was cleaned up")."""
        self.crash_after_bytes = None
        self.crash_after_ops = None
        self.error_after_bytes = None

    def _byte_budget(self) -> int | None:
        """Payload bytes the next write may consume before a fault fires."""
        budgets = [
            limit - self.bytes_written
            for limit in (self.crash_after_bytes, self.error_after_bytes)
            if limit is not None
        ]
        return min(budgets) if budgets else None

    def _fault_kind(self) -> str:
        """Which trigger fires at the current byte position."""
        if (
            self.error_after_bytes is not None
            and self.bytes_written >= self.error_after_bytes
        ):
            return "error"
        return "crash"


class FaultyFile:
    """Binary file proxy that injects the faults scheduled in a plan."""

    def __init__(self, fileobj, plan: FaultPlan):
        self._file = fileobj
        self.plan = plan
        plan.files.append(fileobj)

    # -- fault machinery ---------------------------------------------------

    def _check_alive(self) -> None:
        if self.plan.crashed:
            raise SimulatedCrash("operation on a file of a killed process")

    def _die(self) -> None:
        """Flush what was 'already on disk', then kill the process."""
        self.plan.crashed = True
        try:
            self._file.flush()
        except OSError:  # pragma: no cover - best effort on teardown
            pass
        for fileobj in self.plan.files:
            # Closed at the raw file: a sibling's unflushed userspace
            # bytes die with the process.
            getattr(fileobj, "raw", fileobj).close()
        raise SimulatedCrash(
            f"simulated kill after {self.plan.bytes_written} bytes / "
            f"{self.plan.ops} ops"
        )

    def write(self, data) -> int:
        self._check_alive()
        plan = self.plan
        view = memoryview(bytes(data))
        budget = plan._byte_budget()
        if budget is not None and len(view) > budget:
            written = self._file.write(view[:budget])
            self._file.flush()
            plan.bytes_written += written
            if plan._fault_kind() == "error":
                plan.ops += 1
                raise OSError(
                    plan.error_errno, os.strerror(plan.error_errno)
                )
            self._die()
        written = self._file.write(view)
        plan.bytes_written += written
        plan.ops += 1
        if plan.crash_after_ops is not None and plan.ops >= plan.crash_after_ops:
            self._die()
        return written

    # -- transparent passthrough -------------------------------------------

    def flush(self) -> None:
        self._check_alive()
        self._file.flush()

    def fileno(self) -> int:
        self._check_alive()
        return self._file.fileno()

    def read(self, *args):
        self._check_alive()
        return self._file.read(*args)

    def seek(self, *args) -> int:
        self._check_alive()
        return self._file.seek(*args)

    def tell(self) -> int:
        self._check_alive()
        return self._file.tell()

    def truncate(self, *args) -> int:
        self._check_alive()
        return self._file.truncate(*args)

    def close(self) -> None:
        if not self.plan.crashed:
            self._file.close()

    @property
    def closed(self) -> bool:
        return self.plan.crashed or self._file.closed

    def __enter__(self) -> "FaultyFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def arm_diskbbs(store, plan: FaultPlan) -> FaultPlan:
    """Route a :class:`~repro.storage.diskbbs.DiskBBS`'s writes through faults."""
    store._file = FaultyFile(store._file, plan)
    return plan


def arm_txwriter(writer, plan: FaultPlan) -> FaultPlan:
    """Route a transaction-file writer's data *and* index through one plan."""
    writer._data = FaultyFile(writer._data, plan)
    writer._index = FaultyFile(writer._index, plan)
    return plan


@contextmanager
def faulty_open(match, plan: FaultPlan):
    """Patch ``builtins.open`` so writes to matching paths hit the plan.

    ``match`` is a substring tested against the string form of the
    opened path; only write-capable modes are wrapped.  The patch is
    removed on exit even if the body crashes (simulated or otherwise).
    """
    real_open = builtins.open

    def open_with_faults(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        writable = any(flag in mode for flag in ("w", "a", "+", "x"))
        if writable and "b" in mode and str(match) in str(file):
            return FaultyFile(fh, plan)
        return fh

    builtins.open = open_with_faults
    try:
        yield plan
    finally:
        builtins.open = real_open


def flip_bit(path, byte_offset: int, bit: int = 0) -> None:
    """Flip one bit of a closed file in place (simulated bit rot)."""
    target = Path(path)
    blob = bytearray(target.read_bytes())
    blob[byte_offset] ^= 1 << (bit & 7)
    target.write_bytes(bytes(blob))


def truncate_to(path, n_bytes: int) -> None:
    """Cut a closed file to its first ``n_bytes`` (simulated torn tail)."""
    target = Path(path)
    target.write_bytes(target.read_bytes()[:n_bytes])
