"""The four workloads: inputs, closed-loop schedules, rounds and checks.

A run is a sequence of whole *rounds*.  Every round of a workload does
the same operations from the same starting files: the serving workloads
start their processes afresh from copies of the starting files, replay
the round's fixed schedule, check every answer, and stop the processes.
Rounds repeat until the timed phases add up to ``--seconds``.  So
``failed / attempted`` and every per-round figure are the same in every
run, however long the run and whatever the seed.
"""

from __future__ import annotations

import json
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from support import (
    BENCH,
    RefBBS,
    child_env,
    Tidsets,
    copy_files,
    cpu_seconds,
    dir_bytes,
    eclat,
    peak_rss_mb,
    quest_base,
    relabel,
    sample_itemsets,
    wait_for_line,
    write_txfile,
)

HOST = "127.0.0.1"


@dataclass
class Sizes:
    """Input and schedule sizes of one workload (full or quick)."""

    n_tx: int
    n_items: int
    n_patterns: int
    m: int
    k: int = 4
    pool: int = 0          # distinct itemsets the reads draw from
    round_ops: int = 0     # schedule operations per round
    extra: dict = field(default_factory=dict)


SIZES = {
    "mine": Sizes(5_000, 2_000, 400, 400, extra={"variants": 4, "min_support": 50}),
    "query": Sizes(10_000, 2_000, 400, 800, pool=16_384, round_ops=1_000),
    "ingest": Sizes(10_000, 2_000, 400, 800, pool=256, round_ops=250,
                    extra={"appends": 200}),
    "sharded": Sizes(10_000, 2_000, 400, 800, pool=512, round_ops=700,
                     extra={"batches": 60, "appends": 40, "mines": 2,
                            "min_support": 150}),
}

QUICK = {
    "mine": Sizes(600, 200, 40, 128, extra={"variants": 2, "min_support": 20}),
    "query": Sizes(800, 200, 40, 128, pool=300, round_ops=120),
    "ingest": Sizes(800, 200, 40, 128, pool=32, round_ops=50,
                    extra={"appends": 40}),
    "sharded": Sizes(800, 200, 40, 128, pool=64, round_ops=60,
                     extra={"batches": 6, "appends": 6, "mines": 2,
                            "min_support": 40}),
}

#: Closed-loop client connections (capped at the machine's CPU count).
#: ``ingest`` uses one: with two, the connections phase-lock in one of
#: two ways (their estimate counts, which block the serving loop for
#: 10-30 ms, coincide or alternate), and the append median jumped
#: between 3.8 and 7.4 ms from round to round of the same run.
CONNECTIONS = {"mine": 0, "query": 2, "ingest": 1, "sharded": 2}

#: The op whose median latency is the workload's ``lead_p50_ms``.
LEAD_OP = {"mine": "mine", "query": "count", "ingest": "append", "sharded": "count"}

BATCH_SIZE = 64
MARKER_BASE = 1_000_000
TOKEN_MIN = 1 << 32


class CheckFailed(Exception):
    """An answer of the program disagreed with its reference."""


@dataclass
class Ctx:
    workload: str
    seed: int
    seconds: float
    trace: bool
    quick: bool
    procs: object
    work: Path
    kernel: str
    conns: int

    @property
    def sizes(self) -> Sizes:
        return (QUICK if self.quick else SIZES)[self.workload]


@dataclass
class RunStats:
    """Everything one run measured, fed by rounds, read by the report."""

    lat: dict = field(default_factory=dict)        # op -> [seconds]
    attempted: dict = field(default_factory=dict)  # op -> n
    failed: dict = field(default_factory=dict)     # op -> n
    errors: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)
    timed_s: float = 0.0
    rounds: int = 0
    peak_rss_mb: list = field(default_factory=list)
    stored_bytes_per_tx: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)   # program counters, summed
    checks: list = field(default_factory=list)     # human lines
    round_lines: list = field(default_factory=list)
    round_ops_per_s: list = field(default_factory=list)
    round_cpu_ms_per_op: list = field(default_factory=list)
    round_lead_ms: list = field(default_factory=list)
    force_check_failure: bool = False
    env: dict = field(default_factory=dict)
    # traced rounds only
    traced_ops: int = 0
    traced_timed_s: float = 0.0
    baseline_ops: int = 0
    baseline_timed_s: float = 0.0
    program_totals: dict = field(default_factory=dict)
    setup_totals: dict = field(default_factory=dict)
    client_totals: dict = field(default_factory=dict)
    joined: dict = field(default_factory=dict)     # queue-wait join sums
    traced_counters: dict = field(default_factory=dict)

    def record(self, op: str, seconds: float | None, error: str | None) -> None:
        self.attempted[op] = self.attempted.get(op, 0) + 1
        if error is not None:
            self.failed[op] = self.failed.get(op, 0) + 1
            if len(self.errors) < 10:
                self.errors.append(f"{op}: {error}")
        else:
            self.lat.setdefault(op, []).append(seconds)


def add_totals(into: dict, totals: dict, minus: dict | None = None) -> None:
    for name, row in totals.items():
        base = (minus or {}).get(name, [0, 0.0, 0.0, 0, 0])
        acc = into.setdefault(name, [0, 0.0, 0.0, 0, 0])
        for i in range(5):
            acc[i] += row[i] - base[i]


def add_counts(into: dict, counts: dict) -> None:
    for key, value in counts.items():
        into[key] = into.get(key, 0) + value


# -- processes ---------------------------------------------------------------


class Node:
    """One program server process (``repro serve`` / ``shard-serve``)."""

    def __init__(self, ctx: Ctx, name: str, args: list[str], traced: bool):
        self.name = name
        self.log = ctx.work / f"{name}.log"
        self.trace_path = ctx.work / f"{name}.trace.json" if traced else None
        if traced:
            argv = [sys.executable, str(BENCH / "launch.py"), "serve",
                    str(self.trace_path), "--"]
        else:
            argv = [sys.executable, "-m", "repro"]
        argv += ["--kernel", ctx.kernel] + args
        self.argv = argv
        self.procs = ctx.procs
        self.started = time.perf_counter()
        self.proc = ctx.procs.start(name, argv, self.log)
        self.router = "--router" in args
        #: The DiskBBS log this node serves from, if any.
        self.index = Path(args[args.index("--index") + 1]) if "--index" in args else None
        self.port = None

    def wait_serving(self) -> int:
        line = wait_for_line(self.log, self.proc, "serving on ")
        self.port = int(line.rsplit(":", 1)[1])
        return self.port

    def mark(self) -> None:
        if self.trace_path is not None:
            self.proc.send_signal(signal.SIGUSR1)

    def stop(self) -> int:
        """SIGTERM (graceful drain), wait, kill if needed; the exit code."""
        return self.procs.stop(self.proc)

    def finish(self, code: int) -> dict | None:
        """Check a served-and-drained node's exit; return its trace."""
        if code != 0:
            raise RuntimeError(
                f"{self.name} exited with {code}: "
                f"{self.log.read_text(errors='replace')[-1500:]}"
            )
        if self.trace_path is not None:
            return json.loads(self.trace_path.read_text())
        return None


def control(port: int):
    from repro.service.client import ServiceClient

    return ServiceClient(HOST, port, timeout=120.0)


def metrics_of(port: int) -> dict:
    with control(port) as client:
        return client.metrics()


def wait_ready(port: int, op: str = "health", timeout: float = 60.0) -> None:
    """Poll ``op`` until it answers ok (the first answerable request)."""
    from repro.errors import ServiceError

    deadline = time.monotonic() + timeout
    while True:
        try:
            with control(port) as client:
                result = client.request(op)
            if result.get("ok", result.get("mode") == "ok"):
                return
        except (OSError, ServiceError):
            pass
        if time.monotonic() > deadline:
            raise RuntimeError(f"server on port {port} never became ready")
        time.sleep(0.002)


def write_segment_log(path: Path, transactions, m: int, k: int) -> None:
    """A DiskBBS log holding ``transactions`` as one committed segment."""
    from repro.storage.diskbbs import DiskBBS

    index = DiskBBS.create(path, m=m, k=k, flush_threshold=len(transactions) + 1)
    try:
        for tx in transactions:
            index.insert(tx)
        index.flush()
    finally:
        index.close()


# -- the closed loop ----------------------------------------------------------


def execute(client, op: str, payload):
    """Run one schedule operation; returns what the checks need."""
    if op == "count":
        return client.count(payload)["estimate"]
    if op == "exact":
        answer = client.count(payload, exact=True)
        return answer["estimate"], answer["exact"]
    if op == "batch":
        return [r["estimate"] for r in client.count_batch(payload)["results"]]
    if op == "append":
        items, token = payload
        answer = client.append(items, token=token)
        return answer["position"], answer["deduped"], answer["n_transactions"]
    if op == "mine":
        job = client.mine(payload)
        done = client.wait_for_job(job, timeout=120.0)
        return [(r["items"], r["count"], r["exact"]) for r in done["result"]["patterns"]]
    raise ValueError(op)


def closed_loop(port: int, per_conn: list[list], seed: int):
    """Each connection sends its next request only after the last reply.

    Returns (results, wall seconds, client retries, start time);
    ``results[c][i]`` is ``(op, payload, seconds, value, error)``.
    """
    from repro.service.resilience import RetryingClient

    results = [[] for _ in per_conn]
    clients = [RetryingClient(HOST, port, seed=seed * 101 + c) for c in range(len(per_conn))]
    for client in clients:
        client.health()  # connect before the clock starts
    gate = threading.Barrier(len(per_conn) + 1)

    def worker(c: int) -> None:
        client, out = clients[c], results[c]
        gate.wait()
        for op, payload in per_conn[c]:
            started = time.perf_counter()
            try:
                value = execute(client, op, payload)
                out.append((op, payload, time.perf_counter() - started, value, None))
            except Exception as exc:  # recorded as a failed operation
                out.append((op, payload, None, None, f"{type(exc).__name__}: {exc}"))

    threads = [threading.Thread(target=worker, args=(c,), daemon=True)
               for c in range(len(per_conn))]
    for thread in threads:
        thread.start()
    gate.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    retries = sum(client.retries for client in clients)
    for client in clients:
        client.close()
    return results, wall, retries, started


def split(ops: list, conns: int) -> list[list]:
    """Deal a schedule round-robin onto the connections."""
    return [ops[c::conns] for c in range(conns)]


# -- rounds ---------------------------------------------------------------------


def run_rounds(ctx: Ctx, stats: RunStats, one_round, tracer) -> None:
    """Whole rounds until the timed phases add up to ``ctx.seconds``.

    A traced run first does one untraced round, the baseline for the
    tracing overhead, then installs the client-side wrappers.
    """
    if ctx.trace:
        baseline = RunStats()
        one_round(baseline, traced=False)
        stats.baseline_ops = sum(baseline.attempted.values())
        stats.baseline_timed_s = baseline.timed_s
        tracer.install()
    while stats.rounds == 0 or stats.timed_s < ctx.seconds:
        one_round(stats, traced=ctx.trace)
        stats.rounds += 1


def note_check(stats: RunStats, line: str) -> None:
    """Record a passed check once (every round runs the same checks).

    ``--force-check-failure`` turns the first passed check into a
    failure, to exercise the teardown that follows a failed check.
    """
    if stats.force_check_failure:
        raise CheckFailed(f"forced failure after: {line}")
    if line not in stats.checks:
        stats.checks.append(line)


def take_round(stats: RunStats, results, wall: float, cpu: float, lead: str) -> int:
    n = 0
    per_op: dict[str, list] = {}
    for conn in results:
        for op, _payload, seconds, _value, error in conn:
            stats.record(op, seconds, error)
            if error is None:
                per_op.setdefault(op, []).append(seconds)
            n += 1
    stats.timed_s += wall
    stats.round_ops_per_s.append(n / wall)
    stats.round_cpu_ms_per_op.append(cpu * 1e3 / n)
    if lead in per_op:
        stats.round_lead_ms.append(statistics.median(per_op[lead]) * 1e3)
    medians = " ".join(f"{op}={statistics.median(v) * 1e3:.3f}ms"
                       for op, v in sorted(per_op.items()))
    stats.round_lines.append(
        f"setup {stats.setup_s[-1]:.3f}s, {n} ops in {wall:.3f}s "
        f"({cpu:.3f} CPU-s in program processes), p50 {medians}"
    )
    return n


@dataclass
class Round:
    """What one serving round hands to its workload's checks."""

    rdir: Path
    results: list
    post: dict  # answers asked of the front node after the timed phase


def serve_round(ctx: Ctx, st: RunStats, tracer, traced: bool, start_dir: Path,
                start, per_conn, post=None) -> Round:
    """One round of a serving workload.

    Copies the starting files, starts the processes (``start(rdir,
    traced, nodes)`` appends each :class:`Node` it launches, the front
    node last, and returns the front port and the op that tells it is
    ready), times set-up, replays the schedule, reads the program's
    counters around the timed phase, runs ``post(client, last)`` against
    the front node, and stops every process.  Traced rounds also fold
    the processes' spans into the run's totals.
    """
    rdir = ctx.work / f"round{st.rounds}-{int(traced)}"
    copy_files(sorted(start_dir.iterdir()), rdir)
    nodes: list[Node] = []
    started = time.perf_counter()
    try:
        port, ready_op = start(rdir, traced, nodes)
        wait_ready(port, ready_op)
        st.setup_s.append(time.perf_counter() - started)
        before = [metrics_of(node.port) for node in nodes]
        for node in nodes:
            node.mark()
        if traced:
            time.sleep(0.02)  # let the servers' SIGUSR1 handlers run
            tracer.mark()
        cpu = sum(cpu_seconds(node.proc.pid) for node in nodes)
        results, wall, retries, t0 = closed_loop(port, per_conn, ctx.seed)
        t1 = time.perf_counter()
        cpu = sum(cpu_seconds(node.proc.pid) for node in nodes) - cpu
        for node in nodes:
            node.mark()
        if traced:
            tracer.mark()
        after = [metrics_of(node.port) for node in nodes]
        last = st.timed_s + wall >= ctx.seconds
        with control(port) as client:
            answers = post(client, last) if post else {}
        st.peak_rss_mb.append(sum(peak_rss_mb(node.proc.pid) for node in nodes))
    finally:
        # Stop only: on an exception (a failed start, SIGINT) a node may
        # have died before it could drain and write its trace.
        codes = [node.stop() for node in reversed(nodes)]
    snaps = [node.finish(code) for node, code in zip(reversed(nodes), codes)]
    n = take_round(st, results, wall, cpu, LEAD_OP[ctx.workload])
    counts = {"client.retries": retries}
    for node, b, a in zip(nodes, before, after):
        add_counts(counts, router_counters(b, a) if node.router else service_counters(b, a))
        if node.index is not None:
            add_counts(counts, diskbbs_counters(node.index, b, a))
    add_counts(st.counters, counts)
    if traced:
        absorb_traces(st, snaps)
        marks = tracer.marks[-2:]
        add_totals(st.client_totals, marks[1], minus=marks[0])
        join_waits(st, tracer.kept, snaps[0]["spans"], (t0, t1))
        tracer.kept.clear()
        st.traced_ops += n
        st.traced_timed_s += wall
        add_counts(st.traced_counters, counts)
    return Round(rdir, results, answers)


def service_counters(before: dict, after: dict) -> dict:
    """Program counters of one node from two ``metrics`` answers."""
    out = {}
    for key in ("hits", "misses", "evictions"):
        out[f"cache.{key}"] = after["cache"][key] - before["cache"][key]
    for key in ("requests", "coalesced", "slice_ands", "slice_ands_saved", "batches"):
        out[f"batcher.{key}"] = after["batch"][key] - before["batch"][key]
    for key in ("slice_reads", "cache_hits", "cache_misses", "fsyncs", "page_writes",
                "probe_fetches"):
        out[f"io.{key}"] = after["io"][key] - before["io"][key]
    out["overload.sheds"] = (after["overload"]["sheds_total"]
                             - before["overload"]["sheds_total"])
    return out


def diskbbs_counters(path: Path, before: dict, after: dict) -> dict:
    """A DiskBBS-backed node's slice reads and page-cache counts, plus
    the segments its log holds after the round (read by the library)."""
    from repro.storage.diskbbs import DiskBBS

    index = DiskBBS.open(path)
    try:
        segments = index.n_segments
    finally:
        index.close()
    out = {"diskbbs.segments": segments}
    for key in ("slice_reads", "cache_hits", "cache_misses"):
        out[f"diskbbs.{key}"] = after["io"][key] - before["io"][key]
    return out


def router_counters(before: dict, after: dict) -> dict:
    """Program counters of a router from two ``metrics`` answers."""
    def retries(payload):
        return sum(link["retries"] for link in payload["links"])

    return {
        "router.link_retries": retries(after) - retries(before),
        "overload.sheds": (after["overload"]["sheds_total"]
                           - before["overload"]["sheds_total"]),
    }


def absorb_traces(stats: RunStats, traces: list[dict]) -> None:
    """Fold the server processes' marked totals into the run's sums."""
    for snap in traces:
        marks = snap["marks"]
        if len(marks) < 2:
            raise RuntimeError("a traced server missed its phase marks")
        add_totals(stats.setup_totals, marks[0])
        add_totals(stats.program_totals, marks[1], minus=marks[0])


def join_waits(stats: RunStats, client_spans, server_spans, window) -> None:
    """Queue wait: client send to server start, matched by (port, id).

    Also sums the part of each wait that overlaps a blocking storage
    barrier (journal sync or segment flush) on the serving loop.
    """
    t0, t1 = window
    answers = {}
    barriers = []
    for _sid, _parent, name, start, end, attrs in server_spans:
        if not t0 <= start <= t1:
            continue
        if name == "service.server.answer" and attrs:
            answers[(attrs[0], attrs[1])] = start
        elif name in ("storage.txfile.sync", "storage.diskbbs.flush"):
            barriers.append((start, end))
    barriers.sort()
    waited = stalled = 0.0
    for _sid, _parent, name, start, _end, attrs in client_spans:
        if name != "service.client.request" or not attrs or not t0 <= start <= t1:
            continue
        served = answers.get((attrs[0], attrs[1]))
        if served is None:
            continue
        waited += max(0.0, served - start)
        for b0, b1 in barriers:
            if b0 >= served:
                break
            stalled += max(0.0, min(b1, served) - max(b0, start))
    stats.joined["queue_wait_s"] = stats.joined.get("queue_wait_s", 0.0) + waited
    stats.joined["fsync_stall_s"] = stats.joined.get("fsync_stall_s", 0.0) + stalled


# -- mine ---------------------------------------------------------------------


def mine_workload(ctx: Ctx, stats: RunStats, tracer) -> None:
    sz = ctx.sizes
    rng = random.Random(ctx.seed)
    base = quest_base(sz.n_tx, sz.n_items, sz.n_patterns)
    support = sz.extra["min_support"]
    reference = eclat(base, support)
    data = ctx.work / "data"
    data.mkdir()
    paths, perms = [], []
    for v in range(sz.extra["variants"]):
        tx, perm = relabel(base, sz.n_items, rng)
        paths.append(data / f"mine{v}.tx")
        write_txfile(paths[-1], tx)
        perms.append(perm)
    stats.stored_bytes_per_tx.append(dir_bytes(data) / (sz.n_tx * len(paths)))
    stats.env["inputs"] = (
        f"Quest T10.I4 D={sz.n_tx} V={sz.n_items} |L|={sz.n_patterns} "
        f"x{len(paths)} relabelings, m={sz.m} k={sz.k}, "
        f"min_support={support} (absolute), {len(reference)} patterns"
    )

    def child(trace: bool, seconds: float, min_rounds: int) -> dict:
        out = ctx.work / f"mine-{int(trace)}.json"
        config = ctx.work / f"mine-{int(trace)}.config.json"
        config.write_text(json.dumps({
            "tx_paths": [str(p) for p in paths], "m": sz.m, "k": sz.k,
            "min_support": support, "seconds": seconds,
            "min_rounds": min_rounds, "trace": trace, "kernel": ctx.kernel,
            "out": str(out),
        }))
        proc = ctx.procs.start(
            f"mine-{int(trace)}",
            [sys.executable, str(BENCH / "launch.py"), "mine", str(config)],
            ctx.work / f"mine-{int(trace)}.log",
        )
        try:
            code = proc.wait(timeout=150.0)
        finally:
            ctx.procs.stop(proc)
        if code != 0:
            raise RuntimeError(
                "mining process failed: "
                + (ctx.work / f"mine-{int(trace)}.log").read_text()[-2000:]
            )
        return json.loads(out.read_text())

    if ctx.trace:
        baseline = child(False, 0.0, 1)
        stats.baseline_ops = sum(len(s) for s in baseline["mine_s"])
        stats.baseline_timed_s = baseline["timed_s"]
    got = child(ctx.trace, ctx.seconds, 1)
    stats.setup_s += got["setup_s"]
    stats.timed_s = got["timed_s"]
    stats.rounds = got["rounds"]
    stats.peak_rss_mb.append(got["peak_rss_mb"])
    stats.env["kernel.mining_process"] = got["kernel"]
    for per_variant in got["mine_s"]:
        for seconds in per_variant:
            stats.record("mine", seconds, None)
    for r in range(stats.rounds):
        wall = sum(per_variant[r] for per_variant in got["mine_s"])
        stats.round_ops_per_s.append(len(paths) / wall)
        stats.round_lead_ms.append(
            statistics.median(per_variant[r] for per_variant in got["mine_s"]) * 1e3)
        stats.round_cpu_ms_per_op.append(got["round_cpu_s"][r] * 1e3 / len(paths))
        stats.round_lines.append(f"{len(paths)} mines in {wall:.3f}s")

    for v, rows in enumerate(got["results"]):
        if len(got["digests"][v]) != 1:
            raise CheckFailed(f"variant {v}: mines of one index disagreed across rounds")
        perm = perms[v]
        expected = {frozenset(perm[i] for i in k): c for k, c in reference.items()}
        found = {frozenset(items): (count, exact) for items, count, exact in rows}
        if set(found) != set(expected):
            raise CheckFailed(
                f"variant {v}: {len(set(found) - set(expected))} extra and "
                f"{len(set(expected) - set(found))} missing patterns"
            )
        for itemset, (count, exact) in found.items():
            truth = expected[itemset]
            if (exact and count != truth) or count < truth:
                raise CheckFailed(
                    f"variant {v}: {sorted(itemset)} counted {count} "
                    f"(exact={exact}), reference {truth}"
                )
    note_check(
        stats,
        f"mine: {len(got['results'])} indexes x {stats.rounds} rounds; every "
        f"pattern set equals the tidset reference ({len(reference)} patterns), "
        f"exact counts equal, estimates >= reference"
    )
    totals = {}
    for row in got["stats"]:
        add_counts(totals, {k: v for k, v in row.items() if k != "false_drop_ratio"})
    add_counts(stats.counters, {f"mining.{k}": v for k, v in totals.items()})
    stats.counters["mining.indexes"] = len(got["stats"])
    if ctx.trace:
        marks = got["trace"]["marks"]
        add_totals(stats.setup_totals, marks[1], minus=marks[0])
        add_totals(stats.program_totals, marks[2], minus=marks[1])
        stats.traced_ops = sum(len(s) for s in got["mine_s"])
        stats.traced_timed_s = got["timed_s"]
        stats.traced_counters = dict(stats.counters)


# -- query ----------------------------------------------------------------------


def query_workload(ctx: Ctx, stats: RunStats, tracer) -> None:
    sz = ctx.sizes
    rng = random.Random(ctx.seed)
    base = quest_base(sz.n_tx, sz.n_items, sz.n_patterns)
    tx, _ = relabel(base, sz.n_items, rng)
    start_dir = ctx.work / "start"
    start_dir.mkdir()
    write_txfile(start_dir / "query.tx", tx)
    pool = sample_itemsets(tx, rng, sz.pool)
    n_count = round(sz.round_ops * 0.7)
    n_exact = round(sz.round_ops * 0.2)
    n_batch = sz.round_ops - n_count - n_exact
    ops = ([("count", rng.choice(pool)) for _ in range(n_count)]
           + [("exact", rng.choice(pool)) for _ in range(n_exact)]
           + [("batch", rng.sample(pool, BATCH_SIZE)) for _ in range(n_batch)])
    rng.shuffle(ops)
    per_conn = split(ops, ctx.conns)
    ref = RefBBS(tx, sz.m, sz.k)
    tids = Tidsets(tx)
    stats.stored_bytes_per_tx.append(dir_bytes(start_dir) / len(tx))
    stats.env["inputs"] = (
        f"Quest T10.I4 D={sz.n_tx} V={sz.n_items} |L|={sz.n_patterns}, "
        f"m={sz.m} k={sz.k}; pool of {len(pool)} distinct 2-3 itemsets "
        f"({len(pool) / 4096:.1f}x the 4096-entry cache); per round "
        f"{n_count} count + {n_exact} exact + {n_batch} count_batch x{BATCH_SIZE}"
    )
    stats.env["server_flags"] = (
        f"serve --db query.tx --m {sz.m} --k {sz.k} (defaults: "
        f"--cache-entries 4096, --scrub-interval 0.25)"
    )

    def start(rdir: Path, traced: bool, nodes: list) -> tuple:
        nodes.append(Node(ctx, "query", [
            "serve", "--db", str(rdir / "query.tx"), "--m", str(sz.m),
            "--k", str(sz.k), "--port", "0",
        ], traced))
        return nodes[-1].wait_serving(), "health"

    def one_round(st: RunStats, traced: bool) -> None:
        rnd = serve_round(ctx, st, tracer, traced, start_dir, start, per_conn)
        check_query(ctx, st, rnd.results, ref, tids, len(tx))

    run_rounds(ctx, stats, one_round, tracer)


def check_query(ctx, st, results, ref: RefBBS, tids: Tidsets, n_tx: int) -> None:
    singles: dict[tuple, int] = {}
    checked = 0
    for conn in results:
        for op, payload, _s, value, error in conn:
            if error is not None:
                continue
            if op == "batch":
                pairs = list(zip(payload, value))
            elif op == "exact":
                pairs = [(payload, value[0])]
                truth = tids.count(payload)
                if value[1] != truth:
                    raise CheckFailed(f"exact count of {payload} is {value[1]}, tidsets say {truth}")
            else:
                pairs = [(payload, value)]
            for itemset, estimate in pairs:
                want = ref.estimate(itemset)
                if estimate != want:
                    raise CheckFailed(f"estimate of {itemset} is {estimate}, reference BBS says {want}")
                if not tids.count(itemset) <= estimate <= n_tx:
                    raise CheckFailed(f"estimate of {itemset} ({estimate}) outside [exact, |D|]")
                if singles.setdefault(itemset, estimate) != estimate:
                    raise CheckFailed(f"{itemset} answered {estimate} and {singles[itemset]}")
                checked += 1
    note_check(
        st,
        f"query: {checked} estimates equal the reference BBS and lie in "
        f"[exact, |D|]; exact counts equal tidset counts; batch entries "
        f"equal single counts of the same itemset"
    )


# -- ingest -------------------------------------------------------------------------


def ingest_workload(ctx: Ctx, stats: RunStats, tracer) -> None:
    sz = ctx.sizes
    n_append = sz.extra["appends"]
    rng = random.Random(ctx.seed)
    whole = quest_base(sz.n_tx + n_append, sz.n_items, sz.n_patterns)
    whole, _ = relabel(whole, sz.n_items, rng)
    base, appended = whole[:sz.n_tx], whole[sz.n_tx:]
    start_dir = ctx.work / "start"
    start_dir.mkdir()
    write_txfile(start_dir / "ingest.tx", base)
    write_segment_log(start_dir / "ingest.bbsd", base, sz.m, sz.k)
    start_bytes = dir_bytes(start_dir)
    pool = sample_itemsets(base, rng, sz.pool)
    tokens = rng.sample(range(TOKEN_MIN, TOKEN_MIN + (1 << 40)), n_append)
    n_count = sz.round_ops - n_append
    # A fixed interleaving: `ratio` appends, then one count, repeated.
    ratio = n_append // n_count
    ops = []
    for i in range(n_count):
        for a in range(i * ratio, (i + 1) * ratio):
            ops.append(("append", (appended[a], tokens[a])))
        ops.append(("count", rng.choice(pool)))
    ops += [("append", (appended[a], tokens[a])) for a in range(n_count * ratio, n_append)]
    per_conn = split(ops, ctx.conns)
    base_tids = Tidsets(base)
    final_tids = Tidsets(base + appended)
    exact_probe = rng.sample(pool, min(32, len(pool))) + [
        tuple(sorted(rng.sample(t, min(2, len(t))))) for t in rng.sample(appended, min(32, len(appended)))
    ]
    stats.env["inputs"] = (
        f"Quest T10.I4 base D={sz.n_tx} V={sz.n_items} |L|={sz.n_patterns} as a "
        f"one-segment DiskBBS log, m={sz.m} k={sz.k}; per round {n_append} "
        f"tokened appends (further Quest transactions) + {n_count} estimate "
        f"counts from a pool of {len(pool)} itemsets"
    )
    stats.env["server_flags"] = (
        f"serve --durable --db ingest.tx --index ingest.bbsd (defaults: "
        f"--cache-entries 4096, --scrub-interval 0.25; durable flush policy: "
        f"journal fsync + one DiskBBS segment flush per append)"
    )

    def start(rdir: Path, traced: bool, nodes: list) -> tuple:
        nodes.append(Node(ctx, "ingest", [
            "serve", "--durable", "--db", str(rdir / "ingest.tx"),
            "--index", str(rdir / "ingest.bbsd"), "--m", str(sz.m),
            "--k", str(sz.k), "--port", "0",
        ], traced))
        return nodes[-1].wait_serving(), "health"

    def post(client, last: bool) -> dict:
        # Exact counts over a grown segment log are slow (one AND per
        # segment per slice), so only the run's last round asks them.
        exact = client.count_batch(exact_probe, exact=True)["results"] if last else []
        return {"status": client.status(), "exact": exact}

    def one_round(st: RunStats, traced: bool) -> None:
        rnd = serve_round(ctx, st, tracer, traced, start_dir, start, per_conn, post)
        acked = check_ingest(ctx, st, rnd.results, rnd.post["status"],
                             rnd.post["exact"], exact_probe, base_tids,
                             final_tids, len(base), len(appended))
        final_bytes = dir_bytes(rnd.rdir)
        st.stored_bytes_per_tx.append(final_bytes / (len(base) + acked))
        st.counters["stored_bytes_per_append"] = (final_bytes - start_bytes) / acked

    run_rounds(ctx, stats, one_round, tracer)
    last_dir = ctx.work / f"round{stats.rounds - 1}-{int(ctx.trace)}"
    for target in ("ingest.bbsd", "ingest.tx"):
        out = subprocess.run(
            [sys.executable, "-m", "repro", "check", str(last_dir / target)],
            cwd=BENCH.parent, env=child_env(), capture_output=True, text=True, timeout=120,
        )
        if out.returncode != 0:
            raise CheckFailed(f"repro-mine check {target} exited {out.returncode}: {out.stdout}")
    note_check(stats, "ingest: repro-mine check passes on the last round's index and journal")


def check_ingest(ctx, st, results, status, exact, exact_probe, base_tids,
                 final_tids, n_base, n_append) -> int:
    positions = []
    for conn in results:
        for op, payload, _s, value, error in conn:
            if error is not None:
                continue
            if op == "append":
                position, deduped, n_after = value
                if deduped or not n_base < n_after <= n_base + n_append:
                    raise CheckFailed(f"append answered {value}")
                positions.append(position)
            else:
                truth = base_tids.count(payload)
                if not truth <= value <= n_base + n_append:
                    raise CheckFailed(f"estimate of {payload} is {value}, base count {truth}")
    acked = len(positions)
    if sorted(positions) != list(range(n_base, n_base + acked)):
        raise CheckFailed("append positions are not distinct and contiguous")
    if status["n_transactions"] != n_base + acked:
        raise CheckFailed(
            f"n_transactions {status['n_transactions']} != {n_base} + {acked} ACKed"
        )
    note_check(
        st,
        f"ingest: {acked} ACKed appends at distinct positions, n_transactions "
        f"= base + ACKed, estimates within [base count, |D|]"
    )
    for itemset, entry in zip(exact_probe, exact):
        truth = final_tids.count(itemset)
        if entry["exact"] != truth or entry["estimate"] < truth:
            raise CheckFailed(f"after the run {itemset} counts {entry}, reference {truth}")
    if exact:
        note_check(st, f"ingest: after the last round {len(exact)} exact counts "
                       f"equal an independent count over base + appended")
    return acked


# -- sharded ------------------------------------------------------------------------


def sharded_workload(ctx: Ctx, stats: RunStats, tracer) -> None:
    sz = ctx.sizes
    ex = sz.extra
    rng = random.Random(ctx.seed)
    base = quest_base(sz.n_tx, sz.n_items, sz.n_patterns)
    base, _ = relabel(base, sz.n_items, rng)
    half = len(base) // 2
    start_dir = ctx.work / "start"
    start_dir.mkdir()
    write_txfile(start_dir / "shard0.tx", base[:half])
    write_txfile(start_dir / "shard1.tx", base[half:])
    # The head shard serves from a one-segment DiskBBS log, so the
    # storage.diskbbs read path and page cache are measured here too; the
    # tail shard (which takes the appends) keeps an in-memory BBS.
    write_segment_log(start_dir / "shard0.bbsd", base[:half], sz.m, sz.k)
    pool = sample_itemsets(base, rng, sz.pool)
    ref = RefBBS(base, sz.m, sz.k)
    tids = Tidsets(base)
    support = ex["min_support"]
    reference = eclat(base, support)
    # Marker transactions: fresh items whose signature covers no pooled
    # itemset's, so an append changes no answer the checks compare.
    pool_sigs = [frozenset(ref.family.itemset_positions(set(p)).tolist()) for p in pool]
    markers: list[tuple] = []
    next_id = MARKER_BASE + rng.randrange(1 << 20)
    while len(markers) < ex["appends"]:
        tx = (next_id, next_id + 1)
        next_id += 2
        sig = set(ref.family.itemset_positions(set(tx)).tolist())
        if not any(s <= sig for s in pool_sigs):
            markers.append(tx)
    tokens = rng.sample(range(TOKEN_MIN, TOKEN_MIN + (1 << 40)), len(markers))
    n_count = sz.round_ops - ex["batches"] - ex["appends"] - ex["mines"]
    ops = ([("count", rng.choice(pool)) for _ in range(n_count)]
           + [("batch", rng.sample(pool, BATCH_SIZE)) for _ in range(ex["batches"])]
           + [("append", (markers[i], tokens[i])) for i in range(len(markers))])
    rng.shuffle(ops)
    per_conn = split(ops, ctx.conns)
    for c in range(ex["mines"]):  # one mine per connection, mid-schedule
        sched = per_conn[c % ctx.conns]
        sched.insert(len(sched) // 2, ("mine", support))
    stats.stored_bytes_per_tx.append(dir_bytes(start_dir) / len(base))
    stats.env["inputs"] = (
        f"Quest T10.I4 D={sz.n_tx} V={sz.n_items} |L|={sz.n_patterns} split "
        f"{half}/{len(base) - half} over 2 shards, m={sz.m} k={sz.k}; pool of "
        f"{len(pool)} itemsets (fits the 4096-entry cache); per round "
        f"{n_count} count + {ex['batches']} count_batch x{BATCH_SIZE} + "
        f"{len(markers)} tokened marker appends + {ex['mines']} mines at "
        f"min_support={support} (absolute, {len(reference)} patterns)"
    )
    stats.env["server_flags"] = (
        "shard-serve --db shardN.tx --m %d --k %d (durable journal; defaults "
        "--cache-entries 4096 --scrub-interval 0.25) x2; serve --router "
        "--shard A --shard B --shardmap shards.json" % (sz.m, sz.k)
    )

    marker_items = [[item] for tx in markers for item in tx]

    def start(rdir: Path, traced: bool, nodes: list) -> tuple:
        for s, index in enumerate((["--index", str(rdir / "shard0.bbsd")], [])):
            nodes.append(Node(ctx, f"shard{s}", [
                "shard-serve", "--db", str(rdir / f"shard{s}.tx"), *index,
                "--m", str(sz.m), "--k", str(sz.k), "--port", "0",
            ], traced))
        shard_ports = [node.wait_serving() for node in nodes]
        nodes.append(Node(ctx, "router", [
            "serve", "--router",
            "--shard", f"{HOST}:{shard_ports[0]}",
            "--shard", f"{HOST}:{shard_ports[1]}",
            "--shardmap", str(rdir / "shards.json"), "--port", "0",
        ], traced))
        return nodes[-1].wait_serving(), "status"

    def post(client, last: bool) -> dict:
        return {
            "markers": client.count_batch(marker_items, exact=True)["results"],
            "status": client.status(),
        }

    def one_round(st: RunStats, traced: bool) -> None:
        rnd = serve_round(ctx, st, tracer, traced, start_dir, start, per_conn, post)
        status = rnd.post["status"]
        st.stored_bytes_per_tx.append(dir_bytes(rnd.rdir) / status["n_transactions"])
        check_sharded(ctx, st, rnd.results, ref, tids, reference,
                      rnd.post["markers"], status, len(base))

    run_rounds(ctx, stats, one_round, tracer)


def check_sharded(ctx, st, results, ref, tids, reference, marker_counts,
                  status, n_base) -> None:
    positions = []
    checked = 0
    for conn in results:
        for op, payload, _s, value, error in conn:
            if error is not None:
                continue
            if op in ("count", "batch"):
                pairs = [(payload, value)] if op == "count" else list(zip(payload, value))
                for itemset, estimate in pairs:
                    want = ref.estimate(itemset)
                    if estimate != want or estimate < tids.count(itemset):
                        raise CheckFailed(
                            f"routed estimate of {itemset} is {estimate}; single "
                            f"BBS over the concatenated shards says {want}"
                        )
                    checked += 1
            elif op == "append":
                position, deduped, _n = value
                if deduped:
                    raise CheckFailed(f"first append answered deduped: {value}")
                positions.append(position)
            elif op == "mine":
                got = {frozenset(items): (count, exact) for items, count, exact in value}
                if set(got) != set(reference):
                    raise CheckFailed(
                        f"routed mine: {len(set(got) - set(reference))} extra, "
                        f"{len(set(reference) - set(got))} missing patterns"
                    )
                for itemset, (count, exact) in got.items():
                    if count < reference[itemset] or (exact and count != reference[itemset]):
                        raise CheckFailed(f"routed mine counts {sorted(itemset)} as {count}")
    if sorted(positions) != list(range(n_base, n_base + len(positions))):
        raise CheckFailed("routed append positions are not distinct and contiguous")
    if status["n_transactions"] != n_base + len(positions):
        raise CheckFailed(f"router reports {status['n_transactions']} transactions")
    for entry in marker_counts:
        if entry["exact"] != 1 or entry["estimate"] < 1:
            raise CheckFailed(f"marker {entry['items']} counts {entry}")
    note_check(
        st,
        f"sharded: {checked} routed estimates equal one BBS over the "
        f"concatenated shards and are >= exact; {len(marker_counts)} marker "
        f"items count exactly once; routed mines equal the tidset reference "
        f"({len(reference)} patterns)"
    )


WORKLOADS = {
    "mine": mine_workload,
    "query": query_workload,
    "ingest": ingest_workload,
    "sharded": sharded_workload,
}
