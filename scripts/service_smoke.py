#!/usr/bin/env python
"""CI smoke test for the pattern query service.

Generates a fixture database + index, starts ``repro-mine serve`` as a
real subprocess, exercises count / append / mine through
:class:`repro.service.client.ServiceClient`, runs one network
fault-injection round (a dropped append ACK through the chaos proxy
must apply exactly once), then sends SIGTERM and asserts the server
drains gracefully and exits 0.

Exits non-zero (with a diagnostic on stderr) on any failure, so it can
gate a CI job directly:

    python scripts/service_smoke.py [--chaos-seed N]

``--failover`` runs the replication smoke instead: a durable primary
and a bootstrapped follower as real subprocesses, tokened appends, a
kill -9 of the primary, promotion of the follower, and exactly-once /
fresh-rebuild-equivalence checks on the survivor:

    python scripts/service_smoke.py --failover

``--overload`` runs the overload-robustness smoke: a server with a
zero-length mine backlog must shed typed ``overloaded`` frames with
``retry_after`` in milliseconds, brown out after repeated sheds and
answer ``mine`` from the degraded (approximate) path, refuse or cancel
work past a client-stamped ``deadline_ms``, and stay healthy while a
slow-loris connection dribbles its frame in:

    python scripts/service_smoke.py --overload
"""

from __future__ import annotations

import argparse
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.cli import main as cli_main
from repro.errors import ServiceError
from repro.service.client import ServiceClient
from repro.service.resilience import RetryingClient, RetryPolicy
from repro.testing.netfaults import ChaosProxy, DropResponse

SERVE_STARTUP_TIMEOUT_S = 30
DRAIN_TIMEOUT_S = 30


def fail(message: str) -> None:
    print(f"service smoke FAILED: {message}", file=sys.stderr)
    raise SystemExit(1)


def build_fixture(workdir: Path) -> tuple[str, str]:
    db_path = str(workdir / "smoke.tx")
    idx_path = str(workdir / "smoke.bbs")
    if cli_main(["generate", "--out", db_path, "--transactions", "400",
                 "--items", "80", "--patterns", "30", "--seed", "13"]) != 0:
        fail("fixture generation failed")
    if cli_main(["index", "--db", db_path, "--out", idx_path,
                 "--m", "256"]) != 0:
        fail("fixture indexing failed")
    return db_path, idx_path


def wait_for_port(proc: subprocess.Popen) -> int:
    deadline = time.monotonic() + SERVE_STARTUP_TIMEOUT_S
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line and proc.poll() is not None:
            fail(f"server exited early with code {proc.returncode}")
        print(f"  server: {line.rstrip()}")
        if line.startswith("serving on "):
            return int(line.rsplit(":", 1)[1])
    fail("server never announced its port")


def exercise(port: int) -> None:
    with ServiceClient("127.0.0.1", port) as client:
        if not client.health()["ok"]:
            fail("health check did not return ok")

        counted = client.count([3, 17], exact=True)
        if counted["estimate"] < counted["exact"]:
            fail(f"estimate {counted['estimate']} underestimates "
                 f"exact {counted['exact']}")
        print(f"  count [3, 17]: estimate={counted['estimate']} "
              f"exact={counted['exact']} epoch={counted['epoch']}")

        appended = client.append([3, 17, 99])
        if appended["epoch"] != counted["epoch"] + 1:
            fail("append did not bump the epoch by one")
        recount = client.count([3, 17], exact=True)
        if recount["exact"] != counted["exact"] + 1:
            fail("append did not reach the resident database")
        if recount["cached"]:
            fail("count after append was served from a stale cache entry")
        print(f"  append bumped epoch to {appended['epoch']}; "
              f"recount exact={recount['exact']}")

        job_id = client.mine(0.08, algorithm="dfp")
        done = client.wait_for_job(job_id, timeout=120, top=5)
        n_patterns = done["result"]["n_patterns"]
        if done["state"] != "done":
            fail(f"mine job ended {done['state']}")
        print(f"  mine job {job_id}: {n_patterns} pattern(s) in "
              f"{done['elapsed_seconds']:.3f}s")

        metrics = client.metrics()
        for key in ("io", "io_delta", "latency", "cache", "batch"):
            if key not in metrics:
                fail(f"metrics payload is missing {key!r}")
        print(f"  metrics: {sum(metrics['requests'].values())} requests, "
              f"{metrics['io']['slice_reads']} slice reads")


def chaos_round(port: int, chaos_seed: int) -> None:
    """Reset an append's ACK mid-flight; the retry must dedupe."""
    policy = RetryPolicy(
        max_attempts=6, base_delay=0.05, op_deadline=30.0,
        request_timeout=5.0, connect_timeout=5.0,
    )
    with ChaosProxy("127.0.0.1", port, seed=chaos_seed).start() as proxy:
        with RetryingClient(
            "127.0.0.1", proxy.port, policy=policy, seed=13
        ) as client:
            before = client.status()["n_transactions"]
            client.close()  # the next dial meets the scheduled fault
            proxy.schedule(DropResponse())
            appended = client.append([4242])
            if client.retries < 1:
                fail("the chaos proxy never forced a retry")
            if not appended["deduped"]:
                fail("the retried append was not answered from the "
                     "idempotency window")
            after = client.status()["n_transactions"]
            if after != before + 1:
                fail(f"lost-ACK append applied {after - before} times "
                     f"(want exactly once)")
            exact = client.count([4242], exact=True)["exact"]
            if exact != 1:
                fail(f"marker transaction counted {exact} times")
    print(f"  chaos: dropped ACK retried ({client.retries} retry/ies), "
          f"applied exactly once")
    seeded_chaos_round(port, chaos_seed)


def seeded_chaos_round(port: int, chaos_seed: int) -> None:
    """A seed-drawn fault schedule; every append still applies once."""
    policy = RetryPolicy(
        max_attempts=8, base_delay=0.05, op_deadline=30.0,
        request_timeout=5.0, connect_timeout=5.0,
    )
    markers = [4300, 4301, 4302]
    with ChaosProxy("127.0.0.1", port, seed=chaos_seed).start() as proxy:
        drawn = proxy.schedule_random(len(markers))
        print(f"  chaos: seed {chaos_seed} drew "
              + ", ".join(type(f).__name__ for f in drawn))
        with RetryingClient(
            "127.0.0.1", proxy.port, policy=policy, seed=chaos_seed
        ) as client:
            before = client.status()["n_transactions"]
            for marker in markers:
                client.close()  # each re-dial can meet a scheduled fault
                client.append([marker])
            after = client.status()["n_transactions"]
            if after != before + len(markers):
                fail(f"seeded chaos applied {after - before} of "
                     f"{len(markers)} appends (want all, exactly once)")
            for marker in markers:
                exact = client.count([marker], exact=True)["exact"]
                if exact != 1:
                    fail(f"marker {marker} counted {exact} times under "
                         f"seed {chaos_seed}")
    print(f"  chaos: seeded schedule survived with exactly-once appends")


def smoke(chaos_seed: int) -> None:
    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as tmp:
        db_path, idx_path = build_fixture(Path(tmp))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--db", db_path, "--index", idx_path, "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        try:
            port = wait_for_port(proc)
            exercise(port)
            chaos_round(port, chaos_seed)
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=DRAIN_TIMEOUT_S)
        except Exception:
            proc.kill()
            proc.communicate()
            raise
        print(f"  server: {out.rstrip()}")
        if proc.returncode != 0:
            fail(f"server exited {proc.returncode} after SIGTERM "
                 f"(expected a graceful drain): {out}")
        if "drained after" not in out:
            fail(f"server exited without reporting a drain: {out}")
    print("service smoke OK")


# -- overload robustness smoke ----------------------------------------------


def overload_rounds(port: int) -> None:
    from repro.errors import OverloadedError
    from repro.testing.netfaults import Stall

    with ServiceClient("127.0.0.1", port) as client:
        # Round 1: a zero-length mine backlog sheds every submission —
        # typed, carrying retry_after, and fast (nothing was enqueued).
        for attempt in range(2):
            started = time.monotonic()
            try:
                client.mine(0.08)
            except OverloadedError as exc:
                elapsed = time.monotonic() - started
                if exc.retry_after is None or exc.retry_after <= 0:
                    fail(f"shed #{attempt + 1} carried retry_after="
                         f"{exc.retry_after!r} (want a positive hint)")
                if elapsed > 1.0:
                    fail(f"shed #{attempt + 1} took {elapsed:.3f}s; a "
                         f"queue-full shed must be near-instant")
            else:
                fail("mine was admitted despite --mine-queue 0")
        print("  overload: 2 mine submissions shed typed with retry_after")

        # Round 2: two sheds inside the window brown the server out;
        # the next mine must answer from the degraded path instead of
        # shedding a third time.
        degraded = client.request(
            "mine", {"min_support": 0.08, "algorithm": "dfp"}
        )
        if not degraded.get("degraded_load"):
            fail(f"browned-out mine was not served degraded: {degraded}")
        done = client.wait_for_job(degraded["job_id"], timeout=60)
        if not done.get("degraded_load"):
            fail("degraded job poll lost its degraded_load marker")
        if done["result"]["n_patterns"] < 1:
            fail("degraded mine produced no patterns at all")
        print(f"  overload: browned out, mine answered degraded_load "
              f"({done['result']['n_patterns']} approximate pattern(s))")

        # Round 3: an already-expired propagated deadline is refused
        # unstarted (pre-dispatch), typed `timeout`.
        try:
            client.request("count", {"items": [3]}, deadline_ms=0.0001)
        except ServiceError as exc:
            if exc.error_type != "timeout" or "deadline" not in str(exc):
                fail(f"expired deadline answered [{exc.error_type}] {exc}, "
                     f"want a typed deadline timeout")
        else:
            fail("a request with an expired deadline was served")

        # Round 4: a deadline that expires mid-handler cancels the work
        # promptly — the replicate long-poll would otherwise hold the
        # connection for its full wait_s.
        position = client.status()["n_transactions"]
        started = time.monotonic()
        try:
            client.request(
                "replicate",
                {"from_position": position, "wait_s": 8.0},
                deadline_ms=400.0,
            )
        except ServiceError as exc:
            elapsed = time.monotonic() - started
            if exc.error_type != "timeout":
                fail(f"deadline-bounded long-poll failed "
                     f"[{exc.error_type}] {exc}, want 'timeout'")
            if elapsed > 3.0:
                fail(f"long-poll outlived its 0.4s deadline by "
                     f"{elapsed - 0.4:.1f}s")
        else:
            fail("long-poll outlived its propagated deadline")
        print("  overload: propagated deadlines refused pre-dispatch and "
              "cancelled mid-handler")

        metrics = client.metrics()
        signals = metrics.get("overload")
        if not signals:
            fail("metrics payload is missing the overload section")
        if signals["mine_jobs"]["sheds"] < 2:
            fail(f"metrics report {signals['mine_jobs']['sheds']} mine "
                 f"shed(s), want >= 2")
        if signals["brownout"]["state"] != "browned_out":
            fail(f"brownout state {signals['brownout']['state']!r} after "
                 f"sustained sheds, want 'browned_out'")
        expired = signals["deadline_expired"]
        if expired["pre_dispatch"] < 1 or expired["running"] < 1:
            fail(f"deadline_expired counters {expired} missed the rounds")
        load = client.status().get("load")
        if not load or load["state"] != "browned_out":
            fail(f"status load section {load!r} does not report brownout")
        print(f"  overload: metrics expose sheds_total="
              f"{signals['sheds_total']}, deadline_expired={expired}, "
              f"brownout={signals['brownout']['state']}")

    # Round 5: slow-loris.  A response trickled slower than the client's
    # read timeout resolves through that timeout; a request dribbling in
    # must not delay a healthy direct connection (the reader is not
    # holding any admission slot while it waits for the frame).
    with ChaosProxy("127.0.0.1", port).start() as proxy:
        proxy.schedule(Stall(bytes_per_second=2.0, frames=1,
                             direction="response"))
        try:
            with ServiceClient("127.0.0.1", proxy.port, timeout=1.0) as slow:
                slow.count([3])
        except (ServiceError, OSError):
            pass
        else:
            fail("a stalled response was read within a 1s client timeout")
    with ChaosProxy("127.0.0.1", port).start() as proxy:
        proxy.schedule(Stall(bytes_per_second=30.0, frames=1,
                             direction="request", chunk=4))
        outcome: dict = {}

        def _dribble() -> None:
            try:
                with ServiceClient(
                    "127.0.0.1", proxy.port, timeout=30.0
                ) as trickling:
                    outcome["estimate"] = trickling.count([3])["estimate"]
            except Exception as exc:  # surfaced after the join below
                outcome["error"] = exc

        worker = threading.Thread(target=_dribble)
        worker.start()
        time.sleep(0.3)  # the dribbled request frame is now in flight
        with ServiceClient("127.0.0.1", port, timeout=5.0) as direct:
            healthy_started = time.monotonic()
            direct.count([3])
            healthy_elapsed = time.monotonic() - healthy_started
        if healthy_elapsed > 2.0:
            fail(f"a dribbling slow-loris delayed a healthy connection "
                 f"by {healthy_elapsed:.1f}s")
        worker.join(timeout=30.0)
        if worker.is_alive():
            fail("the dribbled request never completed")
        if "error" in outcome:
            fail(f"the dribbled request failed: {outcome['error']}")
    print("  overload: slow-loris bounded by client deadline; healthy "
          "connections unaffected")


def overload(chaos_seed: int) -> None:
    """Admission, brownout, deadline propagation, slow-loris — one server."""
    with tempfile.TemporaryDirectory(prefix="repro-overload-") as tmp:
        workdir = Path(tmp)
        db_path, idx_path = build_fixture(workdir)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--db", db_path, "--index", idx_path, "--port", "0",
             "--durable",
             "--mine-queue", "0", "--brownout-after", "2",
             "--brownout-recover", "60"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        try:
            port = wait_for_port(proc)
            overload_rounds(port)
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=DRAIN_TIMEOUT_S)
        except Exception:
            proc.kill()
            proc.communicate()
            raise
        print(f"  server: {out.rstrip()}")
        if proc.returncode != 0:
            fail(f"server exited {proc.returncode} after SIGTERM "
                 f"(expected a graceful drain): {out}")
        if "drained after" not in out:
            fail(f"server exited without reporting a drain: {out}")
    print("overload smoke OK")


# -- replication failover smoke ---------------------------------------------


def build_durable_fixture(workdir: Path, *, m: int = 256, k: int = 4):
    """A transaction file plus a DiskBBS segment log over it."""
    from repro.data.diskdb import DiskDatabase
    from repro.storage.diskbbs import DiskBBS

    db_path = str(workdir / "primary.tx")
    idx_path = str(workdir / "primary.bbsd")
    if cli_main(["generate", "--out", db_path, "--transactions", "300",
                 "--items", "60", "--patterns", "20", "--seed", "13"]) != 0:
        fail("fixture generation failed")
    with DiskDatabase(db_path) as db:
        index = DiskBBS.create(idx_path, m=m, k=k, flush_threshold=64)
        for transaction in db:
            index.insert(transaction)
        index.flush()
        index.close()
    return db_path, idx_path, m, k


def spawn_serve(*argv: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )


def wait_for_catch_up(port: int, expected: int, timeout: float = 30.0) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        with ServiceClient("127.0.0.1", port, timeout=5.0) as client:
            status = client.status()
        replication = status.get("replication", {})
        if (status["n_transactions"] >= expected
                and replication.get("lag") == 0):
            return status
        time.sleep(0.1)
    fail(f"follower never caught up to {expected} transaction(s)")


def failover() -> None:
    """Kill -9 the primary; the promoted follower must have everything."""
    from repro.core.bbs import BBS
    from repro.data.diskdb import DiskDatabase
    from repro.service.resilience import TOKEN_MIN

    with tempfile.TemporaryDirectory(prefix="repro-failover-") as tmp:
        workdir = Path(tmp)
        db_path, idx_path, m, k = build_durable_fixture(workdir)
        follower_db = str(workdir / "follower.tx")
        follower_idx = str(workdir / "follower.bbsd")
        primary = spawn_serve("--db", db_path, "--index", idx_path,
                              "--durable", "--port", "0",
                              "--scrub-interval", "0")
        follower = None
        try:
            primary_port = wait_for_port(primary)
            follower = spawn_serve(
                "--db", follower_db, "--index", follower_idx,
                "--follower", f"127.0.0.1:{primary_port}",
                "--port", "0", "--scrub-interval", "0",
            )
            follower_port = wait_for_port(follower)

            tokens = [TOKEN_MIN + 9100 + i for i in range(6)]
            with ServiceClient("127.0.0.1", primary_port) as client:
                base = client.status()["n_transactions"]
                for offset, token in enumerate(tokens):
                    client.append([9000 + offset], token=token)
            expected = base + len(tokens)
            status = wait_for_catch_up(follower_port, expected)
            print(f"  follower caught up: {status['n_transactions']} tx, "
                  f"lag 0, role {status['role']}")

            with ServiceClient("127.0.0.1", follower_port) as client:
                try:
                    client.append([1])
                except ServiceError as exc:
                    if exc.error_type != "not_primary":
                        fail(f"follower refused the append with "
                             f"{exc.error_type!r}, want 'not_primary'")
                else:
                    fail("follower accepted an append before promotion")

            primary.kill()  # SIGKILL: no drain, no goodbye
            primary.communicate()
            print("  primary killed -9")

            with ServiceClient("127.0.0.1", follower_port) as client:
                promoted = client.promote()
                if not promoted["promoted"] or promoted["role"] != "primary":
                    fail(f"promotion failed: {promoted}")
                print(f"  promoted: {'; '.join(promoted['actions'])}")
                # A client retrying its last ACKed append against the new
                # primary must be answered from the idempotency window.
                retried = client.append([9000 + len(tokens) - 1],
                                        token=tokens[-1])
                if not retried.get("deduped"):
                    fail("retried ACKed append was not deduped after "
                         "promotion (would double-apply)")
                client.append([9999])
                status = client.status()
                if status["role"] != "primary":
                    fail(f"promoted server reports role {status['role']!r}")
                if status["n_transactions"] != expected + 1:
                    fail(f"promoted server has {status['n_transactions']} "
                         f"tx, want {expected + 1}")
                for offset in range(len(tokens)):
                    exact = client.count([9000 + offset], exact=True)["exact"]
                    if exact != 1:
                        fail(f"marker {9000 + offset} counted {exact} "
                             f"times on the promoted primary")
                probe = client.count([3, 17])["estimate"]

            # The survivor's estimates must be bit-identical to a fresh
            # single-node build over its own database.
            with DiskDatabase(follower_db) as disk:
                fresh = BBS.from_database(disk, m=m, k=k)
            if fresh.count_itemset([3, 17]) != probe:
                fail(f"promoted estimate {probe} differs from a fresh "
                     f"rebuild's {fresh.count_itemset([3, 17])}")

            follower.send_signal(signal.SIGTERM)
            out, _ = follower.communicate(timeout=DRAIN_TIMEOUT_S)
            if follower.returncode != 0 or "drained after" not in out:
                fail(f"promoted server did not drain cleanly "
                     f"({follower.returncode}): {out}")
            follower = None
        finally:
            for proc in (primary, follower):
                if proc is not None and proc.poll() is None:
                    proc.kill()
                    proc.communicate()
    print("failover smoke OK")


# -- sharded scatter-gather smoke -------------------------------------------


def build_sharded_fixture(workdir: Path, n_shards: int, *, m: int = 256):
    """One generated database split into ``n_shards`` transaction files."""
    from repro.data.diskdb import DiskDatabase
    from repro.storage.txfile import TransactionFileWriter

    full_path = str(workdir / "full.tx")
    if cli_main(["generate", "--out", full_path, "--transactions", "300",
                 "--items", "60", "--patterns", "20", "--seed", "13"]) != 0:
        fail("fixture generation failed")
    with DiskDatabase(full_path) as db:
        transactions = [list(tx) for tx in db]
    per_shard = -(-len(transactions) // n_shards)
    shard_paths = []
    for i in range(n_shards):
        shard_path = workdir / f"shard-{i}.tx"
        with TransactionFileWriter(shard_path) as writer:
            for tx in transactions[i * per_shard:(i + 1) * per_shard]:
                writer.append(tx)
            writer.sync()
        shard_paths.append(str(shard_path))
    return transactions, shard_paths, m


def sharded(n_shards: int, chaos_seed: int) -> None:
    """Router + N shard servers: merged answers must match one node.

    Counts and a full mine through the router are compared against an
    in-process single-node index over the concatenated data; then the
    chaos round kill -9s the tail shard, asserts reads fail with the
    typed ``partial`` error (never a hang), restarts the shard over its
    journal, and proves the ACKed tokened append survived exactly once.
    """
    from repro.core.bbs import BBS
    from repro.core.mining import mine as mine_fn
    from repro.data.database import TransactionDatabase
    from repro.errors import PartialResultError
    from repro.service.handlers import _serialise_result
    from repro.service.resilience import TOKEN_MIN

    if n_shards < 2:
        fail("--sharded needs at least 2 shards")
    with tempfile.TemporaryDirectory(prefix="repro-sharded-") as tmp:
        workdir = Path(tmp)
        # At this width each shard's local dfp result holds bounded
        # (exact: false) counts, so the routed dfp mine below recounts
        # some candidates and reuses the rest.
        transactions, shard_paths, m = build_sharded_fixture(
            workdir, n_shards, m=128)
        map_path = str(workdir / "shards.json")
        shards: list[subprocess.Popen] = []
        router = None
        try:
            ports = []
            for shard_path in shard_paths:
                proc = subprocess.Popen(
                    [sys.executable, "-m", "repro", "shard-serve",
                     "--db", shard_path, "--m", str(m), "--port", "0",
                     "--scrub-interval", "0"],
                    stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                    text=True,
                )
                shards.append(proc)
                ports.append(wait_for_port(proc))
            router = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--router",
                 *(arg for port in ports
                   for arg in ("--shard", f"127.0.0.1:{port}")),
                 "--shardmap", map_path, "--port", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            )
            router_port = wait_for_port(router)

            single = BBS.from_database(
                TransactionDatabase(transactions), m=m)
            full_db = TransactionDatabase(transactions)
            with ServiceClient("127.0.0.1", router_port) as client:
                status = client.status()
                if not status.get("router"):
                    fail("router status does not identify as a router")
                if status["n_transactions"] != len(transactions):
                    fail(f"router sees {status['n_transactions']} tx, "
                         f"want {len(transactions)}")
                if status["n_shards"] != n_shards:
                    fail(f"router sees {status['n_shards']} shard(s), "
                         f"want {n_shards}")
                print(f"  router: {n_shards} shard(s), "
                      f"{status['n_transactions']} tx, mode "
                      f"{status['mode']}")

                for items in ([3], [17], [3, 17], [5, 9, 21], [9999]):
                    got = client.count(items, exact=True)
                    want_est = single.count_itemset(items)
                    want_exact = sum(
                        1 for tx in transactions if set(items) <= set(tx))
                    if got["estimate"] != want_est:
                        fail(f"count {items}: router estimate "
                             f"{got['estimate']} != single-node {want_est}")
                    if got["exact"] != want_exact:
                        fail(f"count {items}: router exact {got['exact']} "
                             f"!= ground truth {want_exact}")
                print("  counts: merged answers identical to one node")

                expected = _serialise_result(
                    mine_fn(full_db, single, 0.2, "sfp"))
                want_patterns = [(tuple(p["items"]), p["count"])
                                 for p in expected["patterns"]]
                # sfp's local results carry only exact counts; dfp's mix
                # exact and bounded ones, so phase 2 both reuses and
                # recounts.  Either way the answer is one node's exact one.
                for algorithm in ("sfp", "dfp"):
                    job_id = client.mine(0.2, algorithm=algorithm)
                    done = client.wait_for_job(job_id, timeout=300, top=0)
                    merged = done["result"]
                    got_patterns = [(tuple(p["items"]), p["count"])
                                    for p in merged["patterns"]]
                    if got_patterns != want_patterns:
                        fail(f"sharded {algorithm} mine produced "
                             f"{len(got_patterns)} pattern(s) != single "
                             f"node's {len(want_patterns)} (or counts or "
                             f"ordering differ)")
                    if not all(p["exact"] for p in merged["patterns"]):
                        fail(f"sharded {algorithm} mine served a count "
                             f"that is not exact")
                    if merged["min_support"] != expected["min_support"]:
                        fail("merged mine resolved a different threshold")
                    print(f"  mine {algorithm}: {len(got_patterns)} "
                          f"pattern(s) identical to one node, every count "
                          f"exact")

                token = TOKEN_MIN + 7700
                appended = client.append([7700], token=token)
                if appended["position"] != len(transactions):
                    fail(f"append landed at {appended['position']}, want "
                         f"global position {len(transactions)}")

            # Chaos: kill -9 the tail shard mid-deployment.
            tail = shards[-1]
            tail.kill()
            tail.communicate()
            print("  chaos: tail shard killed -9")
            started = time.monotonic()
            with ServiceClient("127.0.0.1", router_port) as client:
                try:
                    client.count([3, 17])
                except PartialResultError as exc:
                    print(f"  chaos: read failed typed partial ({exc})")
                except ServiceError as exc:
                    fail(f"outage read failed {exc.error_type!r}, "
                         f"want 'partial'")
                else:
                    fail("read during the outage silently succeeded")
                try:
                    client.append([7701], token=TOKEN_MIN + 7701)
                except PartialResultError:
                    pass
                else:
                    fail("append during the outage was ACKed with the "
                         "owning shard down")
            elapsed = time.monotonic() - started
            if elapsed > 60:
                fail(f"outage round took {elapsed:.0f}s (hang, not a "
                     f"typed failure)")

            # Restart the tail over its surviving journal, same port.
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "shard-serve",
                 "--db", shard_paths[-1], "--m", str(m),
                 "--port", str(ports[-1]), "--scrub-interval", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            )
            shards[-1] = proc
            wait_for_port(proc)
            deadline = time.monotonic() + 60
            with ServiceClient("127.0.0.1", router_port) as client:
                while True:
                    try:
                        if client.status()["mode"] == "ok":
                            break
                    except ServiceError:
                        pass
                    if time.monotonic() >= deadline:
                        fail("router never healed after the tail restart")
                    time.sleep(0.25)
                retried = client.append([7700], token=token)
                if not retried.get("deduped"):
                    fail("ACKed append was not deduped after the kill -9 "
                         "(would double-apply)")
                if retried["position"] != len(transactions):
                    fail("deduped append reports a different position")
                exact = client.count([7700], exact=True)["exact"]
                if exact != 1:
                    fail(f"marker 7700 counted {exact} times after the "
                         f"restart (want exactly once)")
                total = client.status()["n_transactions"]
                if total != len(transactions) + 1:
                    fail(f"cluster has {total} tx after the drill, want "
                         f"{len(transactions) + 1}")
            print("  chaos: ACKed append survived the kill -9 exactly once")

            router.send_signal(signal.SIGTERM)
            out, _ = router.communicate(timeout=DRAIN_TIMEOUT_S)
            if router.returncode != 0 or "drained after" not in out:
                fail(f"router did not drain cleanly ({router.returncode}): "
                     f"{out}")
            router = None
            for proc in shards:
                proc.send_signal(signal.SIGTERM)
                out, _ = proc.communicate(timeout=DRAIN_TIMEOUT_S)
                if proc.returncode != 0:
                    fail(f"shard exited {proc.returncode} after SIGTERM")
            shards = []
        finally:
            for proc in [router, *shards]:
                if proc is not None and proc.poll() is None:
                    proc.kill()
                    proc.communicate()
    print(f"sharded smoke OK ({n_shards} shards)")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="service smoke test")
    parser.add_argument("--chaos-seed", type=int, default=13,
                        help="seed for the randomized chaos schedule "
                             "(same seed = same fault sequence)")
    parser.add_argument("--failover", action="store_true",
                        help="run the replication failover smoke instead")
    parser.add_argument("--sharded", type=int, default=None, metavar="N",
                        help="run the scatter-gather smoke instead: a "
                             "router over N shard servers, merged answers "
                             "checked against a single node, plus a "
                             "kill -9 chaos round")
    parser.add_argument("--overload", action="store_true",
                        help="run the overload-robustness smoke instead: "
                             "typed sheds with retry_after, brownout "
                             "degradation, deadline propagation, and a "
                             "slow-loris round")
    args = parser.parse_args(argv)
    if args.failover:
        failover()
    elif args.sharded is not None:
        sharded(args.sharded, args.chaos_seed)
    elif args.overload:
        overload(args.chaos_seed)
    else:
        smoke(args.chaos_seed)


if __name__ == "__main__":
    main()
