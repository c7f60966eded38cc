"""Persistent worker pools: the sanctioned process-spawn site (RPR009).

Spawning a ``ProcessPoolExecutor`` per mine call is exactly what made
the parallel layer lose wall-clock to serial (``BENCH_parallel.json``
pre-PR-7: modeled 4.0x, wall 0.42x): each call paid process start-up,
a database pickle, and a shared-memory attach for milliseconds of
vector work.  This module owns every executor in ``core/`` — the
invariant linter's RPR009 flags ``ProcessPoolExecutor``/``Pool`` calls
in ``core/`` anywhere else — and keeps them alive across calls:

* :class:`WorkerPool` wraps one executor with crash-aware collection:
  a worker death surfaces as a typed
  :class:`~repro.errors.ParallelExecutionError` and permanently closes
  the pool (a broken executor cannot be reused), letting the owning
  session tear down its shared-memory export instead of leaking it.
* Every live pool is registered for :func:`shutdown_pools`, which runs
  at interpreter exit (``atexit``) and may be called explicitly; owners
  can attach close hooks (the mining session unlinks its shared-memory
  segment from one).

Lifecycle policy is the *owner's* job: :mod:`repro.core.parallel` keys
mining sessions by index identity/epoch and tears them down via
``weakref.finalize`` when the index or database dies; the partitioned
build keeps one generic pool per (workers, start-method).
"""

from __future__ import annotations

import atexit
import os
import pickle
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from multiprocessing.connection import wait
from typing import Any, Callable

from repro.errors import ParallelExecutionError, ReproError

#: Environment override for the multiprocessing start method.
START_METHOD_ENV = "REPRO_PARALLEL_START_METHOD"

#: Every WorkerPool not yet closed, for shutdown_pools()/atexit.
_LIVE_POOLS: list["WorkerPool"] = []

#: Bound on joining an executor's manager thread when a pool closes.
CLOSE_JOIN_S = 5.0


def mp_context():
    """The multiprocessing context honouring ``REPRO_PARALLEL_START_METHOD``."""
    import multiprocessing

    method = os.environ.get(START_METHOD_ENV)
    if method is None:
        available = multiprocessing.get_all_start_methods()
        method = "fork" if "fork" in available else "spawn"
    return multiprocessing.get_context(method)


class WorkerPool:
    """A persistent process pool with typed crash handling.

    The executor is created once and reused for every subsequent
    ``submit``; per-task state travels in the task payload (the mining
    workers reconfigure lazily when the payload's config changes), so
    one pool serves any number of mine/build/scan calls.
    """

    def __init__(
        self,
        workers: int,
        *,
        initializer: Callable[..., None] | None = None,
        initargs: tuple = (),
    ):
        ctx = mp_context()
        self.start_method: str = ctx.get_start_method()
        self.workers = workers
        self.closed = False
        self._close_hooks: list[Callable[[], None]] = []
        self._executor = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=ctx,
            initializer=initializer,
            initargs=initargs,
        )
        _LIVE_POOLS.append(self)

    def submit(self, fn: Callable[..., Any], /, *args: Any) -> Future:
        """Queue ``fn(*args)`` on a worker.

        The task is pickled here, in the caller: a task that cannot be
        pickled raises at once, typed, and the executor's queue feeder
        thread, which would otherwise fail the future behind the
        manager thread's back, only ever sends bytes.
        """
        if self.closed:
            raise ParallelExecutionError(
                "worker pool is closed (a previous task crashed it or it "
                "was shut down); create a new pool"
            )
        try:
            task = pickle.dumps((fn, args), pickle.HIGHEST_PROTOCOL)
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            raise ParallelExecutionError(
                f"a parallel task could not be pickled: {exc}"
            ) from exc
        try:
            if self._worker_died():
                # The executor notices a death asynchronously; check the
                # sentinels first so a survivor cannot absorb the tasks.
                raise BrokenProcessPool("a worker process has exited")
            return self._executor.submit(_run_pickled, task)
        except BrokenProcessPool as exc:
            # A worker died between tasks (e.g. kill -9 while idle).
            self.close()
            raise ParallelExecutionError(
                "a parallel worker process died while the pool was idle; "
                "the worker pool was torn down"
            ) from exc

    def _worker_died(self) -> bool:
        """Has any worker process exited?  (Non-blocking sentinel poll.)"""
        processes = getattr(self._executor, "_processes", None) or {}
        sentinels = [process.sentinel for process in processes.values()]
        return bool(sentinels) and bool(wait(sentinels, timeout=0))

    def worker_pids(self) -> list[int]:
        """PIDs of the live worker processes (empty before first task)."""
        processes = getattr(self._executor, "_processes", None) or {}
        return sorted(processes)

    def add_close_hook(self, hook: Callable[[], None]) -> None:
        """Run ``hook`` exactly once when the pool closes (any path)."""
        self._close_hooks.append(hook)

    def collect(self, futures: dict) -> dict:
        """Gather ``{future: key}`` results, surfacing crashes as typed errors.

        A dead worker (kill -9, ``os._exit``) breaks the whole executor;
        any other task failure leaves worker state suspect.  Either way
        the pool closes itself — running close hooks, so the owning
        session's shared-memory segment is unlinked rather than leaked —
        before the typed error propagates; the next call starts a fresh
        pool.
        """
        payloads = {}
        try:
            for future in as_completed(futures):
                payloads[futures[future]] = future.result()
            if self._worker_died():
                # The survivors finished every task, but the pool is
                # broken all the same.
                raise BrokenProcessPool("a worker process has exited")
        except BrokenProcessPool as exc:
            self.close()
            raise ParallelExecutionError(
                "a parallel worker process died mid-run (crash or kill); "
                "partial results were discarded and the worker pool was "
                "torn down"
            ) from exc
        except ReproError:
            self.close()
            raise
        except Exception as exc:
            self.close()
            raise ParallelExecutionError(
                f"a parallel worker task failed: {exc}"
            ) from exc
        return payloads

    def close(self) -> None:
        """Shut the executor and its workers down, run close hooks; idempotent."""
        if self.closed:
            return
        self.closed = True
        executor = self._executor
        processes = list((getattr(executor, "_processes", None) or {}).values())
        manager = getattr(executor, "_executor_manager_thread", None)
        try:
            executor.shutdown(wait=False, cancel_futures=True)
            # After a failed task the manager thread can keep waiting on
            # a work item whose future already finished, and the
            # interpreter's exit hook joins it forever.  Stopping the
            # workers makes it see a broken pool and exit.
            for process in processes:
                process.terminate()  # a no-op once the process was reaped
            if manager is not None:
                manager.join(timeout=CLOSE_JOIN_S)
        finally:
            if self in _LIVE_POOLS:
                _LIVE_POOLS.remove(self)
            hooks, self._close_hooks = self._close_hooks, []
            for hook in hooks:
                hook()


def _run_pickled(task: bytes) -> Any:
    """Worker side of :meth:`WorkerPool.submit`: unpickle and run."""
    fn, args = pickle.loads(task)
    return fn(*args)


def live_pools() -> list[WorkerPool]:
    """The currently open pools (diagnostics and tests)."""
    return list(_LIVE_POOLS)


def shutdown_pools() -> None:
    """Close every live pool (and run their close hooks); idempotent."""
    for pool in list(_LIVE_POOLS):
        pool.close()


atexit.register(shutdown_pools)
