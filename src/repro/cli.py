"""Command-line interface: generate, index, mine, and query from the shell.

The CLI operates on the persistent formats — transaction file pairs
(:mod:`repro.storage.txfile`) and BBS slice files
(:mod:`repro.storage.slicefile`) — so a full workflow needs no Python::

    repro-mine generate --out /tmp/demo.tx --transactions 2000 --items 500
    repro-mine index    --db /tmp/demo.tx --out /tmp/demo.bbs --m 512
    repro-mine mine     --db /tmp/demo.tx --index /tmp/demo.bbs \
                        --min-support 0.01 --algorithm dfp
    repro-mine count    --db /tmp/demo.tx --index /tmp/demo.bbs \
                        --items 3,17 --tid-mod 7

``repro-mine example`` replays the paper's running example (Tables 1-2).

After a crash, ``repro-mine check <file>`` classifies the damage
(exit 0 = clean, 3 = torn tail, 4 = corrupt) and ``repro-mine repair
<file> [--db ...]`` salvages it — both work on DiskBBS segment logs,
BBS slice files, and transaction-file pairs.

``repro-mine lint`` runs the AST/flow invariant linter
(:mod:`repro.analysis`) over the tree — rules RPR001-RPR015, with
``--format github`` for CI annotations and ``--since REV`` for
changed-files-only pre-commit runs.

``repro-mine serve`` keeps an index resident and answers concurrent
clients over TCP (see :mod:`repro.service`); ``repro-mine query``
talks to a running server::

    repro-mine serve --db /tmp/demo.tx --index /tmp/demo.bbs --port 7707
    repro-mine query --port 7707 count --items 3,17 --exact
    repro-mine query --port 7707 append --items 3,17,42
    repro-mine query --port 7707 mine --min-support 0.01 --wait
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.core.bbs import BBS
from repro.core.constraints import AdHocQueryEngine, ConstraintSlice
from repro.core.mining import ALGORITHMS, mine
from repro.data.diskdb import DiskDatabase
from repro.data.ibm import QuestSpec, generate_transactions
from repro.errors import (
    ConfigurationError,
    CorruptFileError,
    ReproError,
    StorageError,
)
from repro.storage.metrics import IOStats
from repro.storage.txfile import TransactionFileWriter


def _parse_min_support(text: str):
    value = float(text)
    return int(value) if value >= 1 else value


def _add_node_options(parser, role, *, db_required: bool) -> None:
    """The options ``serve`` and ``shard-serve`` share; ``--follower``
    goes into ``role`` (``serve`` makes it exclusive with ``--primary``)."""
    parser.add_argument("--db", required=db_required, default=None,
                        help="transaction file" if db_required else
                             "transaction file (required unless --router)")
    parser.add_argument("--index", default=None,
                        help="BBS slice file or DiskBBS segment log to hold "
                             "resident (omitted: build in memory with --m/--k)")
    parser.add_argument("--m", type=int, default=1600,
                        help="signature width for an in-memory build")
    parser.add_argument("--k", type=int, default=4,
                        help="hash functions for an in-memory build")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (0 = pick one and announce it)")
    parser.add_argument("--max-connections", type=int, default=64,
                        help="admission limit on concurrent connections")
    parser.add_argument("--timeout", type=float, default=30.0,
                        help="per-request timeout in seconds")
    parser.add_argument("--cache-entries", type=int, default=4096,
                        help="LRU result-cache capacity")
    parser.add_argument("--track", type=int, default=None,
                        help="maintain the frequent patterns at this absolute "
                             "min support incrementally (enables `query "
                             "patterns`; a router merges its shards' sets)")
    parser.add_argument("--scrub-interval", type=float, default=0.25,
                        help="seconds between background scrub ticks "
                             "(0 disables the scrubber)")
    role.add_argument("--follower", metavar="HOST:PORT", default=None,
                      help="serve as a read-only replication follower of "
                           "the primary at HOST:PORT: bootstrap from its "
                           "snapshot, tail its journal, refuse appends "
                           "(implies --durable; requires --index)")
    parser.add_argument("--read-queue", type=int, default=512,
                        help="reads allowed to wait for a dispatch slot "
                             "before shedding (typed `overloaded`)")
    parser.add_argument("--write-queue", type=int, default=256,
                        help="appends allowed to wait before shedding")
    parser.add_argument("--mine-queue", type=int, default=32,
                        help="mining jobs allowed outstanding in the worker "
                             "backlog before submissions shed (0 = shed "
                             "every mine that cannot start immediately)")
    parser.add_argument("--brownout-after", type=int, default=4,
                        help="sheds inside a 5s window before the server "
                             "browns out (mine answers from the cached/"
                             "approximate path, marked degraded_load)")
    parser.add_argument("--brownout-recover", type=float, default=2.0,
                        help="shed-free seconds (with drained queues) "
                             "before a brownout clears")


def _build_admission(args):
    """An AdmissionController from the parsed overload options."""
    from repro.service.server import (
        DEFAULT_ADMISSION_LIMITS,
        AdmissionController,
        AdmissionLimits,
    )

    limits = {
        "read": AdmissionLimits(
            DEFAULT_ADMISSION_LIMITS["read"].max_concurrent, args.read_queue
        ),
        "write": AdmissionLimits(
            DEFAULT_ADMISSION_LIMITS["write"].max_concurrent, args.write_queue
        ),
    }
    return AdmissionController(
        limits,
        mine_backlog=args.mine_queue,
        brownout_after=args.brownout_after,
        brownout_recover_s=args.brownout_recover,
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mine",
        description="BBS frequent-pattern mining (ICDE 2002 reproduction)",
    )
    parser.add_argument(
        "--kernel", choices=("numpy", "native", "auto"), default=None,
        help="bit-vector kernel backend (default: $REPRO_KERNEL or numpy; "
             "every backend is bit-identical, `native` needs a C compiler)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate an IBM Quest synthetic database")
    gen.add_argument("--out", required=True, help="transaction file to write")
    gen.add_argument("--transactions", type=int, default=10_000, help="|D|")
    gen.add_argument("--items", type=int, default=10_000, help="|V|")
    gen.add_argument("--avg-size", type=float, default=10.0, help="T")
    gen.add_argument("--pattern-size", type=float, default=10.0, help="I")
    gen.add_argument("--patterns", type=int, default=2000, help="|L|")
    gen.add_argument("--seed", type=int, default=0)

    idx = sub.add_parser("index", help="build a BBS slice file over a database")
    idx.add_argument("--db", required=True, help="transaction file")
    idx.add_argument("--out", required=True, help="slice file to write")
    idx.add_argument("--m", type=int, default=1600, help="signature width (bits)")
    idx.add_argument("--k", type=int, default=4, help="hash functions per item")
    idx.add_argument("--workers", type=int, default=1,
                     help="worker processes for a partitioned parallel build")

    mn = sub.add_parser("mine", help="mine frequent patterns")
    mn.add_argument("--db", required=True)
    mn.add_argument("--index", required=True, help="slice file from `index`")
    mn.add_argument("--min-support", type=_parse_min_support, default=0.003,
                    help="fraction (<1) or absolute count (>=1)")
    mn.add_argument("--algorithm", choices=ALGORITHMS + ("auto",),
                    default="dfp")
    mn.add_argument("--memory", type=int, default=None,
                    help="memory budget in bytes (enables adaptive filtering)")
    mn.add_argument("--top", type=int, default=20,
                    help="print only the N highest-support patterns (0 = all)")
    mn.add_argument("--out", default=None,
                    help="write the full result as JSON for `rules`/`verify`")
    mn.add_argument("--workers", type=int, default=1,
                    help="worker processes for the filter/refinement phases "
                         "(1 = serial; any value yields identical patterns)")

    cnt = sub.add_parser("count", help="ad-hoc count of one pattern")
    cnt.add_argument("--db", required=True)
    cnt.add_argument("--index", required=True)
    cnt.add_argument("--items", required=True,
                     help="comma-separated integer items, e.g. 3,17")
    cnt.add_argument("--tid-mod", type=int, default=None,
                     help="only count transactions whose TID %% MOD == 0")

    rl = sub.add_parser("rules", help="derive association rules from a result")
    rl.add_argument("--result", required=True, help="JSON from `mine --out`")
    rl.add_argument("--min-confidence", type=float, default=0.6)
    rl.add_argument("--top", type=int, default=20,
                    help="print only the N strongest rules (0 = all)")

    vf = sub.add_parser("verify", help="audit a result against its database")
    vf.add_argument("--db", required=True)
    vf.add_argument("--result", required=True, help="JSON from `mine --out`")
    vf.add_argument("--skip-completeness", action="store_true",
                    help="skip the (expensive) missing-pattern check")

    cv = sub.add_parser("import", help="convert a FIMI text file to the binary format")
    cv.add_argument("--fimi", required=True, help="FIMI text file to read")
    cv.add_argument("--out", required=True, help="transaction file to write")

    ck = sub.add_parser(
        "check",
        help="integrity-check a persistent file "
             "(exit 0 = clean, 3 = torn, 4 = corrupt)",
    )
    ck.add_argument("index", help="DiskBBS log, slice file, or transaction file")
    ck.add_argument("--db", default=None,
                    help="also audit the index's counts against this database")

    rp = sub.add_parser(
        "repair",
        help="salvage a damaged DiskBBS log or transaction file in place",
    )
    rp.add_argument("index", help="DiskBBS log or transaction file to repair")
    rp.add_argument("--db", default=None,
                    help="companion transaction file to rebuild lost "
                         "segments from")
    rp.add_argument("--no-quarantine", action="store_true",
                    help="discard damaged bytes instead of saving them to "
                         "a .quarantine sibling")

    sv = sub.add_parser(
        "serve",
        help="serve a resident index over TCP (see `query`)",
    )
    role = sv.add_mutually_exclusive_group()
    role.add_argument("--primary", action="store_true",
                      help="serve as a writable primary (the default; "
                           "explicit for symmetry with --follower)")
    _add_node_options(sv, role, db_required=False)
    sv.add_argument("--durable", action="store_true",
                    help="journal every append to the transaction file, "
                         "fsynced before the ACK, so ACKed appends survive "
                         "kill -9 (boot re-inserts any journaled suffix a "
                         "DiskBBS index had not sealed)")
    sv.add_argument("--supervise", action="store_true",
                    help="run the server as a supervised child: restart it "
                         "after a crash, salvaging the on-disk state first")
    sv.add_argument("--max-restarts", type=int, default=16,
                    help="abnormal worker exits tolerated before the "
                         "supervisor gives up")
    sv.add_argument("--standby", metavar="HOST:PORT", default=None,
                    help="with --supervise: when salvage fails (primary "
                         "storage lost), promote the warm standby at this "
                         "address instead of restarting")
    sv.add_argument("--router", action="store_true",
                    help="serve as a scatter-gather router over the --shard "
                         "servers instead of holding an index resident; "
                         "clients speak the same protocol and see one "
                         "logical index over the concatenated ranges")
    sv.add_argument("--shard", metavar="HOST:PORT", action="append",
                    default=None,
                    help="with --router: one shard server per flag, in "
                         "global transaction-range order (the last shard "
                         "is the append tail)")
    sv.add_argument("--shard-follower", metavar="HOST:PORT", action="append",
                    default=None,
                    help="with --router: the replication follower of the "
                         "corresponding --shard, one per flag in the same "
                         "order ('-' for a shard with no follower)")
    sv.add_argument("--shardmap", metavar="PATH", default=None,
                    help="with --router: persist the range assignment here "
                         "(reloaded on restart; served via `query shardmap`)")
    # The supervisor forwards the options of this parser to its worker.
    sv.set_defaults(parser=sv)

    shard_sv = sub.add_parser(
        "shard-serve",
        help="serve one shard of a sharded deployment (durable `serve` "
             "with the flags a router expects)",
    )
    _add_node_options(shard_sv, shard_sv, db_required=True)
    shard_sv.set_defaults(
        durable=True, supervise=False, router=False, shard=None,
        shard_follower=None,
    )

    qr = sub.add_parser("query", help="query a running `serve` instance")
    qr.add_argument("--host", default="127.0.0.1")
    qr.add_argument("--port", type=int, required=True)
    qr.add_argument("--timeout", type=float, default=30.0,
                    help="overall per-operation deadline in seconds")
    qr.add_argument("--retries", type=int, default=0,
                    help="retry idempotent requests up to this many times "
                         "with backoff (uses the resilient client)")
    qr.add_argument("--deadline", type=float, default=None,
                    help="stamp every request with this remaining-budget "
                         "deadline in seconds; the server (and, through a "
                         "router, every shard) refuses or cancels work "
                         "that outlives it")
    qsub = qr.add_subparsers(dest="query_op", required=True)
    qc = qsub.add_parser("count", help="estimated support of one itemset")
    qc.add_argument("--items", required=True,
                    help="comma-separated integer items, e.g. 3,17")
    qc.add_argument("--exact", action="store_true",
                    help="also probe the database for the exact support")
    qa = qsub.add_parser("append", help="insert one transaction")
    qa.add_argument("--items", required=True)
    qm = qsub.add_parser("mine", help="submit a background mining job")
    qm.add_argument("--min-support", type=_parse_min_support, default=0.003)
    qm.add_argument("--algorithm", choices=ALGORITHMS + ("auto",),
                    default="dfp")
    qm.add_argument("--max-size", type=int, default=None)
    qm.add_argument("--workers", type=int, default=1)
    qm.add_argument("--wait", action="store_true",
                    help="poll until the job finishes and print the result")
    qm.add_argument("--top", type=int, default=20,
                    help="patterns to include when waiting (0 = all)")
    qj = qsub.add_parser("job", help="poll a mining job")
    qj.add_argument("--id", required=True, dest="job_id")
    qj.add_argument("--top", type=int, default=20)
    qx = qsub.add_parser("cancel", help="cancel a mining job")
    qx.add_argument("--id", required=True, dest="job_id")
    qp = qsub.add_parser("patterns", help="the tracked frequent patterns")
    qp.add_argument("--top", type=int, default=20)
    qsub.add_parser("status", help="server status")
    qsub.add_parser("metrics", help="latency histograms + IOStats")
    qsub.add_parser("health", help="liveness check")
    qsub.add_parser("recover", help="heal a degraded server's write path")
    qsub.add_parser("promote",
                    help="promote a replication follower to a writable "
                         "primary (no-op on a primary)")
    qsub.add_parser("shardmap",
                    help="a router's persisted shard range assignment")
    qsub.add_parser("shutdown", help="ask the server to drain and exit")

    from repro.tools.lint import configure_parser as _configure_lint

    _configure_lint(sub.add_parser(
        "lint",
        help="run the repo invariant linter (rules RPR001-RPR015)",
    ))

    sub.add_parser("example", help="replay the paper's running example")
    return parser


def _cmd_generate(args) -> int:
    spec = QuestSpec(
        n_transactions=args.transactions,
        n_items=args.items,
        avg_transaction_size=args.avg_size,
        avg_pattern_size=args.pattern_size,
        n_patterns=args.patterns,
        seed=args.seed,
    )
    with TransactionFileWriter(args.out) as writer:
        for tx in generate_transactions(spec):
            writer.append(tx)
    print(f"wrote {spec.name}: {args.transactions} transactions to {args.out}")
    return 0


def _cmd_index(args) -> int:
    with DiskDatabase(args.db) as db:
        if args.workers > 1:
            from repro.core.parallel import build_partitioned

            bbs = build_partitioned(db, args.m, args.k, workers=args.workers)
        else:
            bbs = BBS.from_database(db, m=args.m, k=args.k)
    bbs.save(args.out)
    print(
        f"indexed {bbs.n_transactions} transactions into {args.out} "
        f"(m={bbs.m}, k={bbs.k}, {bbs.size_bytes} bytes)"
    )
    return 0


def _cmd_mine(args) -> int:
    with DiskDatabase(args.db) as db:
        bbs = BBS.load(args.index)
        if args.algorithm == "auto":
            from repro.core.planner import mine_auto

            result = mine_auto(db, bbs, args.min_support,
                               memory_bytes=args.memory, workers=args.workers)
        else:
            result = mine(
                db, bbs, args.min_support, args.algorithm,
                memory_bytes=args.memory, workers=args.workers,
            )
    if args.out:
        result.save_json(args.out)
        print(f"result written to {args.out}")
    print(result.summary())
    ranked = sorted(
        result.patterns.items(), key=lambda kv: (-kv[1].count, sorted(kv[0]))
    )
    shown = ranked if args.top == 0 else ranked[: args.top]
    for itemset, pattern in shown:
        marker = "" if pattern.exact else " (estimated)"
        print(f"  {sorted(itemset)}: {pattern.count}{marker}")
    if args.top and len(ranked) > args.top:
        print(f"  ... and {len(ranked) - args.top} more")
    return 0


def _parse_items(text: str) -> list[int]:
    return [int(piece) for piece in text.split(",") if piece.strip()]


def _cmd_count(args) -> int:
    itemset = _parse_items(args.items)
    with DiskDatabase(args.db) as db:
        bbs = BBS.load(args.index)
        engine = AdHocQueryEngine(db, bbs)
        if args.tid_mod is None:
            estimate = engine.estimated_count(itemset)
            exact = engine.exact_count(itemset)
        else:
            constraint = ConstraintSlice.from_tid_predicate(
                db, lambda tid: tid % args.tid_mod == 0
            )
            estimate = engine.estimated_count_where(itemset, constraint)
            exact = engine.exact_count_where(itemset, constraint)
    print(f"itemset {sorted(set(itemset))}: estimate={estimate} exact={exact}")
    return 0


def _cmd_example(args) -> int:
    from repro.core import bitvec
    from repro.data.datasets import (
        RUNNING_EXAMPLE_TRANSACTIONS,
        running_example,
    )

    db, bbs = running_example()
    print("Table 1 (transactions and signatures, h(x) = x mod 8):")
    for position, (tid, items) in enumerate(
        sorted(RUNNING_EXAMPLE_TRANSACTIONS.items())
    ):
        vector = bbs.hash_family.itemset_positions(items)
        bits = "".join(
            "1" if b in set(int(v) for v in vector) else "0" for b in range(8)
        )
        print(f"  TID {tid}: items={list(items)} vector={bits}")
    print("Table 2 (the 8 bit-slices):")
    for s in range(bbs.m):
        print(f"  slice {s}: {bitvec.to_bitstring(bbs.slice_words(s), len(db))}")
    print("Example 2 (CountItemSet):")
    print(f"  est count({{0, 1}}) = {bbs.count_itemset([0, 1])} (actual 2)")
    print(f"  est count({{1, 3}}) = {bbs.count_itemset([1, 3])} (actual 2 — "
          "an over-estimate, as the paper notes)")
    return 0


def _cmd_rules(args) -> int:
    from repro.core.results import MiningResult
    from repro.rules import generate_rules

    result = MiningResult.load_json(args.result)
    rules = generate_rules(result, args.min_confidence)
    print(f"{len(rules)} rules at confidence >= {args.min_confidence:.0%} "
          f"from {len(result)} patterns")
    shown = rules if args.top == 0 else rules[: args.top]
    for rule in shown:
        print(f"  {rule}")
    if args.top and len(rules) > args.top:
        print(f"  ... and {len(rules) - args.top} more")
    return 0


def _cmd_verify(args) -> int:
    from repro.core.results import MiningResult
    from repro.data.database import TransactionDatabase
    from repro.tools.verify import verify_result

    result = MiningResult.load_json(args.result)
    with DiskDatabase(args.db) as disk:
        database = TransactionDatabase(list(disk))
    report = verify_result(
        result, database, check_completeness=not args.skip_completeness
    )
    print(report)
    return 0 if report.ok else 1


def _cmd_serve(args) -> int:
    """``serve`` and ``shard-serve``: check the flags, supervise or open
    the service, then serve it until it drains."""
    import asyncio

    from repro.service.server import PatternServer

    if args.router:
        return _cmd_serve_router(args)
    if args.shard or args.shard_follower:
        raise ConfigurationError(
            "--shard/--shard-follower only make sense with --router"
        )
    if args.db is None:
        raise ConfigurationError(
            "--db is required (only a --router serves without storage)"
        )
    if args.follower:
        if args.supervise:
            raise ConfigurationError(
                "--follower and --supervise are mutually exclusive; "
                "supervise the primary and use --standby for failover"
            )
        if args.track is not None:
            raise ConfigurationError(
                "--track needs a writable primary; a follower only "
                "mirrors the primary's appends"
            )
        if not args.index:
            raise ConfigurationError(
                "--follower requires --index (the DiskBBS log path the "
                "shipped snapshot is assembled into)"
            )
        # A follower's database *is* its replication journal; it must
        # be durable or a restart would lose acknowledged records.
        args.durable = True

    if args.supervise:
        from repro.service.supervisor import run_supervised

        return run_supervised(args)

    service = _open_service(args)
    try:
        scrubber = None
        if args.scrub_interval > 0:
            from repro.service.scrubber import Scrubber

            scrubber = Scrubber(
                service, interval=args.scrub_interval, db_path=args.db
            )
        tailer = None
        if args.follower:
            from repro.service.replication import FollowerTailer, parse_address

            tailer = FollowerTailer(service, *parse_address(args.follower))
        server = PatternServer(
            service,
            host=args.host,
            port=args.port,
            max_connections=args.max_connections,
            request_timeout=args.timeout,
            scrubber=scrubber,
            tailer=tailer,
            admission=_build_admission(args),
        )
        index = service.index
        print(
            f"resident index: {type(index).__name__} m={index.m} k={index.k} "
            f"over {len(service.database)} transactions"
            + (f", tracking min_support={args.track}" if service.miner else "")
            + (", durable appends" if args.durable else "")
            + (f", follower of {args.follower}" if args.follower else ""),
            flush=True,
        )
        asyncio.run(server.run(announce=lambda msg: print(msg, flush=True)))
        print(
            f"drained after {sum(service.request_counts.values())} request(s)",
            flush=True,
        )
    finally:
        # The drain has closed the service already, unless the server
        # never started; closing again is a no-op.
        service.close()
    return 0


def _open_service(args):
    """Boot a node's :class:`~repro.service.PatternService` from its files.

    The one boot path: bootstrap (a follower), salvage (durable), read
    the transaction file once with its journal tids, open the index by
    its magic, catch it up (a DiskBBS keeps the suffix in its unsealed
    tail), open the journal.
    """
    from repro.data.database import TransactionDatabase
    from repro.service import PatternService
    from repro.storage.recovery import catch_up_index, sniff_magic
    from repro.storage.txfile import TransactionFileReader, salvage_txfile

    stats = IOStats()
    if args.follower:
        from repro.service.replication import bootstrap_follower, parse_address

        for action in bootstrap_follower(
            *parse_address(args.follower), db_path=args.db,
            index_path=args.index, stats=stats,
        ):
            print(f"bootstrap: {action}", flush=True)
    if args.durable:
        # A durable server re-opens its own journal for writing; heal a
        # torn tail from a previous crash before anything reads it.
        tx_report = salvage_txfile(args.db, stats=stats)
        if tx_report.repaired:
            print(f"salvaged {args.db}: {'; '.join(tx_report.actions)}",
                  flush=True)
    database = TransactionDatabase(stats=stats)
    with TransactionFileReader(args.db) as reader:
        for _position, tid, items in reader.scan():
            database.append(items, tid=tid)

    magic = sniff_magic(args.index) if args.index else None
    if args.track is not None and magic == b"BBSD":
        raise ConfigurationError(
            "--track needs an in-memory index (a slice file or an "
            "--m build); a DiskBBS log cannot drive the filter recursion"
        )
    if magic is None:
        index = BBS.from_database(database, m=args.m, k=args.k, stats=stats)
    elif magic == b"BBSD":
        from repro.storage.diskbbs import DiskBBS

        # Tolerant open: a torn tail from a crash is truncated, so a
        # supervised restart (or a manual one) never refuses to serve;
        # the catch-up below re-inserts what it covered.
        index = DiskBBS.recover(args.index, stats=stats)
        if index.last_recovery.repaired:
            print(f"recovered {args.index}: "
                  f"{'; '.join(index.last_recovery.actions)}", flush=True)
    elif magic == b"BBSF":
        index = BBS.load(args.index, stats=stats)
    else:
        raise StorageError(
            f"{args.index} is neither a DiskBBS log nor a slice file "
            f"(magic {magic!r})", path=args.index,
        )

    journal = None
    try:
        caught_up = catch_up_index(index, database)
        if caught_up:
            print(f"reconciled index: re-inserted {caught_up} journaled "
                  f"transaction(s) the index had not covered", flush=True)
        miner = None
        if args.track is not None:
            from repro.core.incremental import IncrementalMiner

            miner = IncrementalMiner(database, index, args.track)
        if args.durable:
            from repro.service.replication import ReplicationLog

            journal = ReplicationLog.open(args.db, stats=stats)
        return PatternService(
            database,
            index,
            miner=miner,
            cache_entries=args.cache_entries,
            journal=journal,
            role="follower" if args.follower else "primary",
            upstream=args.follower,
        )
    except BaseException:
        for store in (journal, index):
            close = getattr(store, "close", None)  # a resident BBS has none
            if close is not None:
                close()
        raise


def _cmd_serve_router(args) -> int:
    """``serve --router``: scatter-gather over the --shard servers."""
    import asyncio

    from repro.service.replication import parse_address
    from repro.service.server import PatternServer
    from repro.service.shard.router import ShardRouter

    for flag in ("supervise", "durable"):
        if getattr(args, flag, False):
            raise ConfigurationError(
                f"--{flag} does not apply to a router: it holds no storage "
                f"of its own (run the shards with `shard-serve`)"
            )
    for flag in ("index", "track", "follower", "standby"):
        if getattr(args, flag, None) is not None:
            raise ConfigurationError(
                f"--{flag} does not apply to a router; configure the "
                f"shard servers instead"
            )
    if args.db is not None:
        raise ConfigurationError(
            "--db does not apply to a router; the shards own the storage"
        )
    if not args.shard:
        raise ConfigurationError(
            "--router needs at least one --shard HOST:PORT"
        )
    addresses = [parse_address(text) for text in args.shard]
    followers = None
    if args.shard_follower:
        if len(args.shard_follower) != len(addresses):
            raise ConfigurationError(
                f"{len(addresses)} --shard flag(s) but "
                f"{len(args.shard_follower)} --shard-follower flag(s); "
                f"pass one per shard, '-' for none"
            )
        followers = [
            None if text == "-" else parse_address(text)
            for text in args.shard_follower
        ]

    holder = {}

    async def _run() -> None:
        router = await ShardRouter.discover(
            addresses, followers=followers, map_path=args.shardmap
        )
        holder["router"] = router
        server = PatternServer(
            router,
            host=args.host,
            port=args.port,
            max_connections=args.max_connections,
            request_timeout=args.timeout,
            admission=_build_admission(args),
        )
        ranges = ", ".join(
            entry.range_label(tail=entry is router.map.tail)
            + f"@{entry.address}"
            for entry in router.map.entries
        )
        print(
            f"routing {len(addresses)} shard(s) "
            f"(generation {router.map.generation}): {ranges}",
            flush=True,
        )
        await server.run(announce=lambda msg: print(msg, flush=True))

    asyncio.run(_run())
    router = holder.get("router")
    if router is not None:
        print(
            f"drained after {sum(router.request_counts.values())} request(s)",
            flush=True,
        )
    return 0


def _cmd_query(args) -> int:
    import json

    from repro.errors import ServiceError
    from repro.service.client import ServiceClient

    deadline_s = getattr(args, "deadline", None)
    if args.retries > 0:
        from repro.service.resilience import RetryingClient, RetryPolicy

        # A --deadline tightens the whole-operation budget: the policy
        # already stamps each attempt with the remaining budget.
        op_deadline = (
            min(args.timeout, deadline_s)
            if deadline_s is not None
            else args.timeout
        )
        policy = RetryPolicy(
            max_attempts=args.retries + 1, op_deadline=op_deadline
        )
        client = RetryingClient(args.host, args.port, policy=policy)
    else:
        try:
            client = ServiceClient(
                args.host,
                args.port,
                timeout=args.timeout,
                deadline_ms=(
                    deadline_s * 1000.0 if deadline_s is not None else None
                ),
            )
        except OSError as exc:
            print(
                f"error: cannot connect to {args.host}:{args.port}: {exc}",
                file=sys.stderr,
            )
            return 1
    op = args.query_op
    try:
        payload = _run_query_op(client, op, args)
    except ServiceError as exc:
        print(f"error [{exc.error_type}]: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(
            f"error: cannot reach {args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        return 1
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _run_query_op(client, op, args):
    with client:
        if op == "count":
            payload = client.count(_parse_items(args.items), exact=args.exact)
        elif op == "append":
            payload = client.append(_parse_items(args.items))
        elif op == "mine":
            job_id = client.mine(
                args.min_support,
                algorithm=args.algorithm,
                max_size=args.max_size,
                workers=args.workers,
            )
            if args.wait:
                payload = client.wait_for_job(job_id, top=args.top)
            else:
                payload = {"job_id": job_id}
        elif op == "job":
            payload = client.job(args.job_id, top=args.top)
        elif op == "cancel":
            payload = client.cancel(args.job_id)
        elif op == "patterns":
            payload = client.patterns(top=args.top)
        else:  # status / metrics / health / recover / promote / shardmap / shutdown
            payload = client.request(op)
    return payload


def _durability_line(stats: IOStats) -> str:
    counters = stats.durability_dict()
    return "durability: " + " ".join(
        f"{name}={value}" for name, value in counters.items()
    )


def _cmd_check(args) -> int:
    from repro.storage.recovery import (
        EXIT_CLEAN,
        EXIT_CORRUPT,
        EXIT_TORN,
        inspect_index,
        sniff_magic,
    )
    from repro.storage.txfile import DATA_MAGIC, inspect_txfile

    path = Path(args.index)
    magic = sniff_magic(path)

    if magic == b"BBSD":
        from repro.storage.diskbbs import DiskBBS

        stats = IOStats()
        report = inspect_index(path, stats=stats)
        print(report)
        print(_durability_line(stats))
        code = {"clean": EXIT_CLEAN, "torn": EXIT_TORN}.get(
            report.status, EXIT_CORRUPT
        )
        if code == EXIT_CLEAN and args.db:
            with DiskBBS.open(path) as index:
                return _audit_index_against_db(
                    index, args.db, catch_up="boot or `repair --db`"
                )
        return code

    if magic == b"BBSF":
        try:
            bbs = BBS.load(path)
        except CorruptFileError as exc:
            print(f"{path}: corrupt — {exc}")
            return EXIT_CORRUPT
        print(f"{path}: clean — slice file, {bbs.n_transactions} "
              f"transaction(s)")
        if args.db:
            return _audit_index_against_db(bbs, args.db, catch_up="boot")
        return EXIT_CLEAN

    if magic == DATA_MAGIC:
        stats = IOStats()
        report = inspect_txfile(path, stats=stats)
        print(report)
        print(_durability_line(stats))
        # Any txfile damage short of a destroyed header is salvageable,
        # so it is classified torn, never corrupt.
        return EXIT_CLEAN if report.clean else EXIT_TORN

    raise StorageError(
        f"{path} is not a recognised repro file (magic {magic!r})",
        path=path,
    )


def _audit_index_against_db(index, db_path: str, *, catch_up: str) -> int:
    """Audit ``index`` against its database's first ``n`` records: the
    rest is behind (exit 3, which ``catch_up`` mends), a mismatch in the
    prefix or an index ahead of its database is corrupt (exit 4)."""
    import itertools

    from repro.data.database import TransactionDatabase
    from repro.storage.recovery import EXIT_CLEAN, EXIT_CORRUPT, EXIT_TORN
    from repro.tools.verify import verify_index

    covered = index.n_transactions
    with DiskDatabase(db_path) as db:
        behind = len(db) - covered
        prefix = TransactionDatabase(itertools.islice(db, covered))
    report = verify_index(index, prefix)
    if not report.ok:
        print(f"index audit vs {db_path}: {len(report.issues)} issue(s)")
        for issue in report.issues:
            print(f"  - {issue}")
        return EXIT_CORRUPT
    print(f"index audit vs {db_path}: OK "
          f"({report.checked_patterns} counts checked)")
    if behind:
        print(f"index audit vs {db_path}: behind by {behind} "
              f"transaction(s) ({catch_up} catches up)")
        return EXIT_TORN
    return EXIT_CLEAN


def _cmd_repair(args) -> int:
    from repro.storage.recovery import salvage_index, sniff_magic
    from repro.storage.txfile import DATA_MAGIC, salvage_txfile

    path = Path(args.index)
    magic = sniff_magic(path)

    if magic == b"BBSD":
        stats = IOStats()
        report = salvage_index(
            path, db=args.db, quarantine=not args.no_quarantine, stats=stats
        )
        print(report)
        print(_durability_line(stats))
        if report.clean and not report.rebuilt_transactions:
            print("nothing to repair")
        return 0

    if magic == DATA_MAGIC:
        stats = IOStats()
        report = salvage_txfile(path, stats=stats)
        print(report)
        print(_durability_line(stats))
        if report.clean:
            print("nothing to repair")
        return 0

    if magic == b"BBSF":
        # Slice files are written atomically; a damaged one has no
        # salvageable journal — it must be regenerated.
        raise StorageError(
            f"{path} is a slice-file snapshot; regenerate it with "
            f"`repro-mine index` instead of repairing", path=path,
        )

    raise StorageError(
        f"{path} is not a recognised repro file (magic {magic!r})",
        path=path,
    )


def _cmd_import(args) -> int:
    from repro.data.fimi import read_fimi

    database = read_fimi(args.fimi)
    with TransactionFileWriter(args.out) as writer:
        for transaction in database:
            writer.append(transaction)
    print(f"imported {len(database)} transactions "
          f"({len(database.items())} distinct items) into {args.out}")
    return 0


def _cmd_lint(args) -> int:
    from repro.tools.lint import run as run_lint

    return run_lint(args)


_COMMANDS = {
    "generate": _cmd_generate,
    "index": _cmd_index,
    "mine": _cmd_mine,
    "count": _cmd_count,
    "rules": _cmd_rules,
    "verify": _cmd_verify,
    "import": _cmd_import,
    "check": _cmd_check,
    "repair": _cmd_repair,
    "serve": _cmd_serve,
    "shard-serve": _cmd_serve,
    "query": _cmd_query,
    "lint": _cmd_lint,
    "example": _cmd_example,
}


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        if args.kernel is not None:
            from repro.core.bitvec import set_kernel_backend

            set_kernel_backend(args.kernel, strict=True)
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    raise SystemExit(main())
