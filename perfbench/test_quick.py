"""The benchmark's own test: quick mode, and teardown on every exit path.

    python3 -m pytest perfbench/test_quick.py -q

Each run works in ``.perfbench/run-<pid>/`` and every program process it
starts names files there on its command line, so a leftover process of
a run is any process whose command line mentions that directory.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def _cmdlines(pid: int) -> dict[int, bytes]:
    """Command lines of live processes that mention run ``pid``'s work dir."""
    tag = f"run-{pid}/".encode()
    found = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) == os.getpid():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:
            continue
        if tag in cmdline:
            found[int(entry.name)] = cmdline
    return found


def _stragglers(pid: int) -> list[int]:
    return sorted(_cmdlines(pid))


def test_quick_mode_runs_every_workload_with_checks():
    out = subprocess.run([sys.executable, str(RUN), "--quick"],
                         capture_output=True, text=True, timeout=900)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.count(": ok") == 8, out.stdout


def test_failed_check_stops_every_child():
    proc = subprocess.Popen(
        [sys.executable, str(RUN), "--workload", "sharded", "--seed", "3",
         "--seconds", "0.5", "--trace", "0", "--quick", "--force-check-failure"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    stdout, stderr = proc.communicate(timeout=300)
    assert proc.returncode == 1, stdout + stderr
    result = json.loads(stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert _stragglers(proc.pid) == []


def test_sigint_mid_run_stops_every_child():
    proc = subprocess.Popen(
        [sys.executable, str(RUN), "--workload", "sharded", "--seed", "4",
         "--seconds", "60", "--trace", "1", "--quick"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    deadline = time.monotonic() + 120
    # Wait until the router of a traced round is up, so SIGINT lands
    # with shards, router and client threads all running.
    while time.monotonic() < deadline:
        if any(b"--router" in cmd and b"launch.py" in cmd
               for cmd in _cmdlines(proc.pid).values()):
            break
        time.sleep(0.05)
    else:
        proc.kill()
        raise AssertionError("the traced router never started")
    time.sleep(0.5)
    proc.send_signal(signal.SIGINT)
    stdout, stderr = proc.communicate(timeout=120)
    assert proc.returncode == 130, stdout + stderr
    assert not stdout.strip() or not stdout.strip().splitlines()[-1].startswith("{")
    assert _stragglers(proc.pid) == []
