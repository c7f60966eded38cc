"""Supervised serving: restart a crashed worker after storage salvage.

``repro-mine serve --supervise`` runs the actual server as a child
process and watches it.  When the worker dies abnormally (SIGKILL,
OOM, a crash bug), the supervisor:

1. salvages the on-disk state *before* the replacement accepts traffic
   — the transaction file pair via
   :func:`~repro.service.replication.salvage_journal` and a DiskBBS log via
   :func:`~repro.storage.recovery.salvage_index` — so torn tails from the
   crash are truncated, not served; the worker's boot then re-inserts
   every ACKed (fsynced) append the index lacks from the journal;
2. restarts the worker on the *same* port (an ephemeral ``--port 0`` is
   resolved once, up front) so retrying clients reconnect without
   re-discovery;
3. gives up after ``--max-restarts`` abnormal exits, propagating
   failure to the process manager above it.

With ``--standby HOST:PORT`` the supervisor also acts as a failover
controller: when salvage itself fails (the primary's disk is gone, not
just torn), restarting is pointless — instead the supervisor asks the
warm standby at that address to ``promote`` itself to a writable
primary (see :mod:`repro.service.replication`) and exits, leaving the
promoted standby serving.

A graceful exit (code 0 — SIGTERM drain or the ``shutdown`` op) stops
the supervision loop; SIGTERM/SIGINT to the supervisor is forwarded to
the worker so the whole tree drains as one.

The supervisor deliberately holds **no** resident state: the worker
owns the files while it lives, and salvage runs only between workers.
"""

from __future__ import annotations

import signal
import socket
import subprocess
import sys
import threading
import time

DEFAULT_MAX_RESTARTS = 16
#: Base pause before restart attempt N (grows linearly, capped).
RESTART_BACKOFF_S = 0.2
RESTART_BACKOFF_MAX_S = 5.0


def _resolve_port(host: str, port: int) -> int:
    """Pin an ephemeral port once so restarts reuse the same address."""
    if port:
        return port
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        probe.bind((host, 0))
        return probe.getsockname()[1]
    finally:
        probe.close()


def _salvage_before_start(args, announce) -> None:
    """Repair the worker's files before it opens them.

    The worker's own open path tolerates torn tails too; doing it here
    as well keeps the repair visible in the supervisor log and ensures
    a worker that crashes *during* its own salvage cannot wedge the
    loop.
    """
    from repro.service.replication import salvage_journal
    from repro.storage.recovery import salvage_index, sniff_magic

    report = salvage_journal(args.db)
    if report.repaired:
        announce(f"supervisor: salvaged {args.db}: "
                 f"{'; '.join(report.actions)}")
    if args.index and sniff_magic(args.index) == b"BBSD":
        index_report = salvage_index(args.index)
        if index_report.repaired:
            announce(
                f"supervisor: salvaged {args.index}: "
                f"{'; '.join(index_report.actions)}"
            )


def _promote_standby(address: str, announce) -> int:
    """Fail over to the warm standby: ask it to promote, then step aside.

    Returns the supervisor's exit code: 0 when the standby confirmed
    the promotion (it is now the writable primary on its own address),
    1 when it could not be reached or refused.
    """
    from repro.service.client import ServiceClient
    from repro.service.replication import parse_address

    try:
        host, port = parse_address(address)
        with ServiceClient(host, port, timeout=10.0) as client:
            result = client.promote()
    except Exception as exc:
        announce(f"supervisor: failover to {address} failed: {exc}")
        return 1
    announce(
        f"supervisor: promoted standby {address} to primary at "
        f"{result.get('n_transactions', '?')} transaction(s)"
    )
    return 0


#: ``serve`` options that configure the supervisor, not its worker.
_SUPERVISOR_OPTIONS = ("supervise", "max_restarts", "standby")


def _worker_argv(args, port: int) -> list[str]:
    """The child's command line on the pinned ``port``: every option of
    ``args.parser`` (the ``serve`` parser) that differs from its default,
    but the supervisor's own."""
    argv = [sys.executable, "-m", "repro"]
    if args.kernel is not None:
        argv += ["--kernel", args.kernel]
    argv += ["serve", "--port", str(port)]
    for action in args.parser._actions:
        if action.dest in _SUPERVISOR_OPTIONS or action.dest == "port":
            continue
        value = getattr(args, action.dest, action.default)
        if value == action.default:
            continue
        flag = action.option_strings[0]
        if action.nargs == 0:  # a store_true flag
            argv.append(flag)
        else:  # an append option holds a list, one flag per value
            for item in value if isinstance(value, list) else [value]:
                argv += [flag, str(item)]
    return argv


def run_supervised(args, *, announce=None) -> int:
    """The ``serve --supervise`` loop; returns the process exit code."""
    if announce is None:
        def announce(message):
            print(message, flush=True)

    port = _resolve_port(args.host, args.port)
    max_restarts = args.max_restarts
    state = {"proc": None, "stop": False}

    def _forward(signum, _frame):
        state["stop"] = True
        proc = state["proc"]
        if proc is not None and proc.poll() is None:
            try:
                proc.send_signal(signal.SIGTERM)
            except (ProcessLookupError, OSError):
                pass

    previous = {
        signum: signal.signal(signum, _forward)
        for signum in (signal.SIGTERM, signal.SIGINT)
    }
    restarts = 0
    try:
        while True:
            try:
                _salvage_before_start(args, announce)
            except Exception as exc:
                announce(f"supervisor: salvage failed: {exc}")
                standby = getattr(args, "standby", None)
                if standby:
                    announce(f"supervisor: primary storage is unrecoverable; "
                             f"failing over to standby {standby}")
                    return _promote_standby(standby, announce)
                return 1
            proc = subprocess.Popen(
                _worker_argv(args, port),
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
            )
            state["proc"] = proc
            announce(f"supervisor: worker pid {proc.pid} "
                     f"(start {restarts + 1})")
            pump = threading.Thread(
                target=_pump_output, args=(proc, announce), daemon=True
            )
            pump.start()
            if state["stop"]:
                # A signal raced the start; make sure the worker drains.
                _forward(signal.SIGTERM, None)
            returncode = proc.wait()
            pump.join(timeout=5.0)
            state["proc"] = None
            if returncode == 0:
                announce("supervisor: worker exited cleanly")
                return 0
            if state["stop"]:
                announce(f"supervisor: worker exited {returncode} "
                         f"during shutdown")
                return returncode if returncode > 0 else 0
            restarts += 1
            if restarts > max_restarts:
                announce(f"supervisor: giving up after {max_restarts} "
                         f"restart(s)")
                return 1
            announce(f"supervisor: worker died with code {returncode}; "
                     f"restarting ({restarts}/{max_restarts})")
            time.sleep(min(RESTART_BACKOFF_MAX_S, RESTART_BACKOFF_S * restarts))
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


def _pump_output(proc, announce) -> None:
    """Relay the worker's output verbatim (clients parse 'serving on ...')."""
    for line in proc.stdout:
        announce(line.rstrip("\n"))
