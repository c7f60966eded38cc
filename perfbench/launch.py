"""Benchmark-owned entry points for the program processes.

``python3 perfbench/launch.py serve TRACE_OUT -- <repro-mine argv>``
    Installs the tracing wrappers of :mod:`spans`, then enters
    ``repro.cli.main`` with the given argv, so a traced server has the
    same flags and topology as ``python -m repro``.  When the server has
    drained (SIGTERM), the spans are written to ``TRACE_OUT``.  Each
    SIGUSR1 records the span totals so far (a phase boundary).

``python3 perfbench/launch.py mine CONFIG_JSON``
    The mining process of the ``mine`` workload: loads each transaction
    file and builds its BBS (set-up), then runs serial DFP mines through
    ``repro.core.mining.mine`` in whole rounds until the timed budget is
    spent, and writes timings, results and the program's own
    ``MiningResult`` counters to the ``out`` path named in the config.
    Tracing is on when the config says so.
"""

from __future__ import annotations

import hashlib
import json
import resource
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer  # noqa: E402


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _serve(trace_out: str, argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    # The benchmark marks the start and end of each timed phase.
    signal.signal(signal.SIGUSR1, lambda *_: tracer.mark())
    from repro.cli import main

    code = main(argv)
    snapshot = tracer.snapshot()
    snapshot["peak_rss_mb"] = _peak_rss_mb()
    with open(trace_out, "w") as fh:
        json.dump(snapshot, fh)
    return code


def _pattern_rows(result) -> list:
    return sorted(
        [sorted(items), pattern.count, pattern.exact]
        for items, pattern in result.patterns.items()
    )


def _mine(config_path: str) -> int:
    config = json.loads(Path(config_path).read_text())
    tracer = None
    if config["trace"]:
        tracer = Tracer()
        tracer.install()
    from repro.core import bitvec
    from repro.core.bbs import BBS
    from repro.core.mining import mine
    from repro.data.database import TransactionDatabase
    from repro.data.diskdb import DiskDatabase

    bitvec.set_kernel_backend(config["kernel"], strict=True)
    variants = []
    setup_s = []
    if tracer is not None:
        tracer.mark()
    for path in config["tx_paths"]:
        started = time.perf_counter()
        with DiskDatabase(path) as disk:
            database = TransactionDatabase(list(disk))
        index = BBS.from_database(database, m=config["m"], k=config["k"])
        setup_s.append(time.perf_counter() - started)
        variants.append((database, index))
    if tracer is not None:
        tracer.mark()

    mine_s: list[list[float]] = [[] for _ in variants]
    digests: list[set] = [set() for _ in variants]
    first: list = [None] * len(variants)
    stats: list = [None] * len(variants)
    timed = 0.0
    rounds = 0
    round_cpu_s = []
    while rounds < config["min_rounds"] or timed < config["seconds"]:
        cpu = time.process_time()
        for v, (database, index) in enumerate(variants):
            started = time.perf_counter()
            result = mine(database, index, config["min_support"], "dfp")
            elapsed = time.perf_counter() - started
            timed += elapsed
            mine_s[v].append(elapsed)
            rows = _pattern_rows(result)
            digests[v].add(hashlib.sha256(json.dumps(rows).encode()).hexdigest())
            if first[v] is None:
                first[v] = rows
                fs, rs = result.filter_stats, result.refine_stats
                stats[v] = {
                    "candidates": fs.candidates,
                    "certified": fs.certified,
                    "uncertain": fs.uncertain,
                    "count_itemset_calls": fs.count_itemset_calls,
                    "probes": rs.probes,
                    "probed_tuples": rs.probed_tuples,
                    "false_drops": rs.false_drops,
                    "patterns": len(result.patterns),
                    "false_drop_ratio": result.false_drop_ratio,
                }
        round_cpu_s.append(time.process_time() - cpu)
        rounds += 1
    if tracer is not None:
        tracer.mark()

    out = {
        "setup_s": setup_s,
        "mine_s": mine_s,
        "rounds": rounds,
        "timed_s": timed,
        "round_cpu_s": round_cpu_s,
        "results": first,
        "digests": [sorted(d) for d in digests],
        "stats": stats,
        "kernel": bitvec.active_kernel_backend(),
        "peak_rss_mb": _peak_rss_mb(),
        "trace": tracer.snapshot() if tracer is not None else None,
    }
    Path(config["out"]).write_text(json.dumps(out))
    return 0


def main(argv: list[str]) -> int:
    if len(argv) >= 3 and argv[0] == "serve" and argv[2] == "--":
        return _serve(argv[1], argv[3:])
    if len(argv) == 2 and argv[0] == "mine":
        return _mine(argv[1])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
