"""Supervised serving: kill -9 the worker, lose nothing that was ACKed.

The headline acceptance test of the resilient-serving layer: a durable
server under ``serve --supervise`` is appended to through a retrying
client while the worker is SIGKILLed mid-stream.  The supervisor
salvages storage, restarts the worker on the same port, and every
acknowledged append must survive with an exact transaction count —
retried appends apply exactly once, token dedupe included.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cli import _build_parser, main
from repro.data.diskdb import DiskDatabase
from repro.service.resilience import TOKEN_MIN, RetryingClient, RetryPolicy
from repro.service.supervisor import _resolve_port, _worker_argv
from repro.storage.diskbbs import DiskBBS

BASE_TRANSACTIONS = 120

#: Patient policy: a restart (salvage + boot) takes a moment, and the
#: client must ride straight through it.
SUPERVISED_POLICY = RetryPolicy(
    max_attempts=12,
    base_delay=0.1,
    max_delay=1.0,
    op_deadline=60.0,
    request_timeout=5.0,
    connect_timeout=2.0,
)


class SupervisorHarness:
    """Run ``serve --supervise`` as a subprocess and track its log."""

    def __init__(self, argv, env):
        self.proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        self.lines: list[str] = []
        self.worker_pids: list[int] = []
        self.ports: list[int] = []
        self._cond = threading.Condition()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()

    def _pump(self) -> None:
        for line in self.proc.stdout:
            line = line.rstrip("\n")
            with self._cond:
                self.lines.append(line)
                if line.startswith("supervisor: worker pid "):
                    self.worker_pids.append(int(line.split()[3]))
                if line.startswith("serving on "):
                    self.ports.append(int(line.rsplit(":", 1)[1]))
                self._cond.notify_all()

    def wait_for(self, predicate, timeout=30.0):
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                value = predicate(self)
                if value:
                    return value
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self.proc.poll() is not None:
                    raise AssertionError(
                        "supervisor log never satisfied the predicate:\n"
                        + "\n".join(self.lines)
                    )
                self._cond.wait(min(remaining, 0.5))

    def wait_serving(self, generation, timeout=30.0) -> int:
        """Port announced by worker start number ``generation`` (1-based)."""
        return self.wait_for(
            lambda h: len(h.ports) >= generation and h.ports[generation - 1],
            timeout=timeout,
        )

    def stop(self) -> tuple[int, str]:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=5)
        self.proc.stdout.close()
        return self.proc.returncode, "\n".join(self.lines)


@pytest.fixture
def durable_fixture(tmp_path):
    db_path = str(tmp_path / "sup.tx")
    idx_path = str(tmp_path / "sup.bbs")
    assert main([
        "generate", "--out", db_path,
        "--transactions", str(BASE_TRANSACTIONS),
        "--items", "50", "--patterns", "15", "--seed", "21",
    ]) == 0
    with DiskDatabase(db_path) as disk:
        transactions = list(disk)
    index = DiskBBS.create(idx_path, m=128, flush_threshold=32)
    for transaction in transactions:
        index.insert(transaction)
    index.flush()
    index.close()
    return db_path, idx_path


def spawn_supervisor(db_path, idx_path, *extra):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    argv = [
        sys.executable, "-m", "repro", "serve", "--supervise", "--durable",
        "--db", db_path, "--index", idx_path, "--port", "0",
        "--scrub-interval", "0", *extra,
    ]
    return SupervisorHarness(argv, env)


class TestHelpers:
    def test_resolve_port_pins_an_ephemeral_port(self):
        port = _resolve_port("127.0.0.1", 0)
        assert 0 < port < 65536
        assert _resolve_port("127.0.0.1", 4444) == 4444

    def test_worker_argv_strips_supervise(self):
        args = _build_parser().parse_args([
            "--kernel", "numpy", "serve", "--supervise", "--durable",
            "--db", "d.tx", "--index", "d.bbs", "--port", "0",
            "--max-restarts", "3", "--read-queue", "8",
            "--write-queue", "16", "--mine-queue", "0",
            "--brownout-after", "2", "--brownout-recover", "7.5",
        ])
        argv = _worker_argv(args, 7777)
        assert "--supervise" not in argv
        assert "--max-restarts" not in argv
        assert "--durable" in argv
        assert argv[argv.index("--kernel") + 1] == "numpy"
        assert argv.index("--kernel") < argv.index("serve")
        assert argv[argv.index("--port") + 1] == "7777"
        # The worker parses back to the supervised config, every flag kept.
        worker = _build_parser().parse_args(argv[argv.index("-m") + 2:])
        for name in (
            "kernel", "db", "index", "durable", "read_queue", "write_queue",
            "mine_queue", "brownout_after", "brownout_recover",
            "max_connections", "timeout", "cache_entries", "scrub_interval",
        ):
            assert getattr(worker, name) == getattr(args, name), name
        assert worker.mine_queue == 0 and worker.brownout_recover == 7.5
        assert worker.supervise is False

    def test_worker_argv_forwards_every_serve_option(self):
        """Walks the ``serve`` parser itself: each option set away from
        its default reaches the worker and parses back to the same
        value, except the supervisor's own three."""
        parser = _build_parser()
        (sub,) = [
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        base = ["serve", "--supervise", "--db", "d.tx"]
        supervisor_only = {"supervise", "max_restarts", "standby"}
        seen = set()
        for action in sub.choices["serve"]._actions:
            if action.dest in ("help", "db", "port", "supervise"):
                continue
            flag = action.option_strings[0]
            if action.nargs == 0:
                extra, want = [flag], True
            else:
                if action.type in (int, float):
                    values = [action.type((action.default or 0) + 3)]
                else:
                    values = ["127.0.0.1:9"]
                if isinstance(action, argparse._AppendAction):
                    values.append("127.0.0.1:10")
                extra = [part for value in values for part in (flag, str(value))]
                want = values if len(values) > 1 else values[0]
            args = parser.parse_args(base + extra)
            assert getattr(args, action.dest) == want, action.dest
            argv = _worker_argv(args, 7777)
            worker = parser.parse_args(argv[argv.index("-m") + 2:])
            assert worker.port == 7777 and worker.db == "d.tx"
            assert "--supervise" not in argv
            if action.dest in supervisor_only:
                assert flag not in argv, action.dest
                assert getattr(worker, action.dest) == action.default
            else:
                assert getattr(worker, action.dest) == want, action.dest
            seen.add(action.dest)
        assert supervisor_only - {"supervise"} <= seen
        assert {"durable", "primary", "follower", "shard", "read_queue"} <= seen


class TestKill9Durability:
    def test_acked_appends_survive_sigkill_exactly_once(self, durable_fixture):
        db_path, idx_path = durable_fixture
        harness = spawn_supervisor(db_path, idx_path)
        try:
            port = harness.wait_serving(1)
            markers = list(range(7001, 7011))  # ten marker transactions
            with RetryingClient(
                "127.0.0.1", port, policy=SUPERVISED_POLICY, seed=5
            ) as client:
                tokens = [TOKEN_MIN + 50_000 + i for i in range(len(markers))]
                acked = 0
                for i, marker in enumerate(markers):
                    if i == 4:
                        # Murder the worker mid-stream; the retrying
                        # client must ride through the restart.
                        victim = harness.worker_pids[-1]
                        os.kill(victim, signal.SIGKILL)
                    client.append([marker, marker + 1000], token=tokens[i])
                    acked += 1

                # The supervisor restarted the worker on the same port.
                harness.wait_serving(2)
                assert harness.ports[0] == harness.ports[1]
                assert len(harness.worker_pids) >= 2
                assert harness.worker_pids[0] != harness.worker_pids[1]

                status = client.status()
                assert status["n_transactions"] == BASE_TRANSACTIONS + acked
                assert status["durable"] is True
                for marker in markers:
                    exact = client.count([marker], exact=True)["exact"]
                    assert exact == 1, f"marker {marker} count {exact}"

                # The restarted worker reseeded its token window from
                # the journal: replaying any token ACKed before the
                # kill is deduped, not re-applied.
                replay = client.request(
                    "append", {"items": [0], "token": tokens[0]}
                )
                assert replay["deduped"] is True
                assert (
                    client.status()["n_transactions"]
                    == BASE_TRANSACTIONS + acked
                )
        finally:
            returncode, log = harness.stop()
        assert returncode == 0, log
        assert "supervisor: worker died" in log
        assert "supervisor: worker exited cleanly" in log

    def test_sigterm_drains_worker_and_exits_zero(self, durable_fixture):
        db_path, idx_path = durable_fixture
        harness = spawn_supervisor(db_path, idx_path)
        try:
            port = harness.wait_serving(1)
            with RetryingClient(
                "127.0.0.1", port, policy=SUPERVISED_POLICY
            ) as client:
                assert client.health()["ok"] is True
        finally:
            returncode, log = harness.stop()
        assert returncode == 0, log
        assert "drained after" in log
        assert "supervisor: worker exited cleanly" in log
        assert "supervisor: worker died" not in log

    def test_torn_journal_tail_salvaged_before_restart(self, durable_fixture):
        """A crash can leave a torn record at the journal tail; the
        supervisor must truncate it before the next worker serves."""
        db_path, idx_path = durable_fixture
        harness = spawn_supervisor(db_path, idx_path)
        try:
            port = harness.wait_serving(1)
            with RetryingClient(
                "127.0.0.1", port, policy=SUPERVISED_POLICY, seed=8
            ) as client:
                client.append([8001])
                victim = harness.worker_pids[-1]
                os.kill(victim, signal.SIGKILL)
                # Tear the tail while the worker is down: an ACKed
                # prefix plus garbage that never finished committing.
                with open(db_path, "ab") as fh:
                    fh.write(b"\x99" * 13)
                harness.wait_serving(2)
                status = client.status()
                assert status["n_transactions"] == BASE_TRANSACTIONS + 1
                assert client.count([8001], exact=True)["exact"] == 1
        finally:
            returncode, log = harness.stop()
        assert returncode == 0, log
