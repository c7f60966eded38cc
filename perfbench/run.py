"""End-to-end benchmark of the BBS miner and its serving tiers.

One run::

    python3 perfbench/run.py --workload {mine,query,ingest,sharded} \\
        --seed N --seconds S --trace {0,1}

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The lines before it give per-op latencies and sample
counts, the program's own counters, the environment and every check.

Quick mode (``--quick``) shrinks every input to toy size.  Without
``--workload`` it runs all four workloads, untraced and traced, each in
its own process, and checks each result line; that is the benchmark's
own test (see ``test_quick.py``).

See README.md for the workloads, metrics and reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import support  # noqa: E402
from support import WORK, Procs, tail_summary  # noqa: E402

WORKLOAD_NAMES = ("mine", "query", "ingest", "sharded")


class Interrupted(BaseException):
    """SIGTERM/SIGINT: stop every child, print no result."""


def _on_signal(signum, frame):
    raise Interrupted(signal.Signals(signum).name)


def end_to_end(stats) -> dict:
    """The end-to-end metrics of an untraced run: name -> (value, unit).

    Throughput and the lead op's median latency are taken per round and
    averaged over the run's rounds; on this shared machine that repeated
    better between runs than one median over the whole run.
    """
    return {
        "setup_s": (statistics.median(stats.setup_s), "s"),
        "ops_per_s": (statistics.mean(stats.round_ops_per_s), "1/s"),
        "lead_p50_ms": (statistics.mean(stats.round_lead_ms), "ms"),
        "peak_rss_mb": (statistics.median(stats.peak_rss_mb), "MB"),
        "stored_bytes_per_tx": (statistics.median(stats.stored_bytes_per_tx), "B"),
    }


def _sum(totals: dict, key: str, field: int) -> float:
    """Sum one field over a span name, or over a prefix ending in '.'."""
    if key.endswith("."):
        return sum(row[field] for name, row in totals.items() if name.startswith(key))
    row = totals.get(key)
    return row[field] if row else 0


CALLS, INCL, SELF, UNITS, UNITS2 = range(5)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(workload: str, stats) -> dict:
    """Per-layer metrics of a traced run: name -> (value, unit, base text)."""
    P, C, S, K = stats.program_totals, stats.client_totals, stats.setup_totals, stats.traced_counters
    ops = stats.traced_ops
    out = {}

    def per_op(name, value, unit="s/op"):
        out[name] = (_ratio(value, ops), unit, f"{value:.6g} over {ops} ops")

    def ratio(name, num, den, unit="ratio"):
        out[name] = (_ratio(num, den), unit, f"{num:.6g} / {den:.6g}")

    per_op("core.kernels.calls", _sum(P, "core.kernels.", CALLS), "1/op")
    per_op("core.kernels.words", _sum(P, "core.kernels.", UNITS), "1/op")
    per_op("core.kernels.self_s", _sum(P, "core.kernels.", SELF))
    per_op("core.hashing.self_s", _sum(P, "core.hashing.", SELF))
    ratio("core.bbs.build_s", _sum(S, "core.bbs.build", INCL), _sum(S, "core.bbs.build", CALLS), "s")
    per_op("core.bbs.count_s", _sum(P, "core.bbs.count", INCL))
    per_op("core.bbs.insert_s", _sum(P, "core.bbs.insert", INCL))
    per_op("core.filters.self_s", _sum(P, "core.filters.", SELF))
    if workload == "mine":
        mines = K.get("mining.indexes", 0)
        ratio("core.filters.candidates", K.get("mining.candidates", 0), mines, "1/op")
        ratio("core.checkcount.certified_ratio", K.get("mining.certified", 0), K.get("mining.candidates", 0))
        ratio("core.refine.probes", K.get("mining.probes", 0), mines, "1/op")
        ratio("core.refine.tuples_per_probe", K.get("mining.probed_tuples", 0), K.get("mining.probes", 0), "1")
    else:
        per_op("core.filters.candidates", _sum(P, "core.mining.visit", CALLS), "1/op")
        ratio("core.checkcount.certified_ratio", _sum(P, "core.checkcount.", UNITS), _sum(P, "core.checkcount.", CALLS))
        per_op("core.refine.probes", _sum(P, "core.refine.probe", CALLS), "1/op")
        ratio("core.refine.tuples_per_probe", _sum(P, "core.refine.probe", UNITS), _sum(P, "core.refine.probe", CALLS), "1")
    tuples = _sum(P, "core.refine.probe", UNITS)
    ratio("core.refine.false_drop_ratio", tuples - _sum(P, "core.refine.probe", UNITS2), tuples)
    per_op("core.refine.self_s", _sum(P, "core.refine.", SELF))
    per_op("core.mining.self_s", _sum(P, "core.mining.", SELF))
    per_op("storage.diskbbs.flush_s", _sum(P, "storage.diskbbs.flush", INCL))
    ratio("storage.diskbbs.segments", K.get("diskbbs.segments", 0),
          stats.rounds if "diskbbs.segments" in K else 0, "count")
    ratio("storage.diskbbs.slice_reads_per_count", K.get("diskbbs.slice_reads", 0),
          _sum(P, "storage.diskbbs.count", CALLS), "1")
    hits = K.get("diskbbs.cache_hits", 0)
    ratio("storage.diskbbs.page_cache_hit_ratio", hits, hits + K.get("diskbbs.cache_misses", 0))
    per_op("storage.txfile.sync_s", _sum(P, "storage.txfile.sync", INCL))
    appends = _sum(P, "service.handlers.append", CALLS)
    ratio("storage.fsyncs_per_append", K.get("io.fsyncs", 0), appends, "1")
    ratio("storage.page_writes_per_append", K.get("io.page_writes", 0), appends, "1")
    per_op("service.protocol.self_s", _sum(P, "service.protocol.", SELF))
    per_op("service.protocol.bytes_per_op", _sum(P, "service.protocol.", UNITS), "B/op")
    per_op("service.server.queue_wait_s", stats.joined.get("queue_wait_s", 0.0))
    per_op("service.server.fsync_stall_s", stats.joined.get("fsync_stall_s", 0.0))
    per_op("service.server.write_s", _sum(P, "service.server.write", INCL))
    out["service.server.sheds"] = (K.get("overload.sheds", 0), "count", "program counter")
    for op in ("count", "count_batch", "append", "mine"):
        name = f"service.handlers.{op}"
        ratio(f"{name}.self_s", _sum(P, name, SELF), _sum(P, name, CALLS), "s")
    ratio("service.handlers.mine_job_s", _sum(P, "service.handlers.mine_job", INCL),
          _sum(P, "service.handlers.mine_job", CALLS), "s")
    per_op("service.cache.self_s", _sum(P, "service.cache.", SELF))
    ratio("service.cache.hit_ratio", K.get("cache.hits", 0), K.get("cache.hits", 0) + K.get("cache.misses", 0))
    ratio("service.cache.coalesced_ratio", K.get("batcher.coalesced", 0), K.get("batcher.requests", 0))
    saved = K.get("batcher.slice_ands_saved", 0)
    ratio("service.cache.ands_saved_ratio", saved, saved + K.get("batcher.slice_ands", 0))
    out["service.resilience.retries"] = (K.get("client.retries", 0), "count", "program counter")
    per_op("service.client.self_s", _sum(C, "service.client.", SELF))
    per_op("service.shard.router.fanout_s", _sum(P, "service.shard.router.fanout", INCL))
    per_op("service.shard.router.shard_rtt_s", _sum(P, "service.shard.router.shard_rtt", INCL))
    out["service.shard.router.retries"] = (K.get("router.link_retries", 0), "count", "program counter")
    per_op("service.shard.merge.self_s", _sum(P, "service.shard.merge.", SELF))
    ratio("service.shard.merge.recounted", _sum(P, "service.shard.merge.recount", UNITS),
          _sum(P, "service.shard.merge.recount", CALLS), "1")
    traced = _ratio(stats.traced_ops, stats.traced_timed_s)
    untraced = _ratio(stats.baseline_ops, stats.baseline_timed_s)
    out["trace.overhead"] = (1.0 - _ratio(traced, untraced) if untraced else 0.0, "ratio",
                             f"traced {traced:.4g} ops/s vs untraced {untraced:.4g} ops/s")
    return out


def print_report(args, stats, kernel: str) -> None:
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} rounds={stats.rounds} "
          f"timed={stats.timed_s:.3f}s{' (quick sizes)' if args.quick else ''}")
    import numpy

    print(f"env: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy.__version__} kernel={kernel} (every program process "
          f"runs with --kernel {kernel}) "
          f"connections={stats.env.pop('connections') or 'none (library calls)'}")
    for key, value in stats.env.items():
        print(f"env.{key}: {value}")
    for op in sorted(stats.attempted):
        print(f"op {op}: attempted={stats.attempted[op]} "
              f"failed={stats.failed.get(op, 0)} {tail_summary(stats.lat.get(op, []))}")
    for error in stats.errors:
        print(f"error: {error}")
    for i, line in enumerate(stats.round_lines):
        print(f"round {i}: {line}")
    print(f"setup_s per set-up: {', '.join(f'{s:.3f}' for s in stats.setup_s)}")
    if stats.round_cpu_ms_per_op:
        print(f"program CPU per op (median over rounds): "
              f"{statistics.median(stats.round_cpu_ms_per_op):.4f} ms")
    print("counters: " + " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                                  for k, v in sorted(stats.counters.items())))
    for line in stats.checks:
        print(f"check: {line}")


def run_one(args) -> int:
    from spans import Tracer
    from workloads import CONNECTIONS, WORKLOADS, CheckFailed, Ctx, RunStats

    support.require_program()
    procs = Procs()
    work = WORK / f"run-{os.getpid()}"
    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    stats = RunStats()
    kernel = "?"
    failure = None
    leftover: list[int] = []
    try:
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        kernel = support.resolve_kernel()
        ctx = Ctx(
            workload=args.workload, seed=args.seed, seconds=args.seconds,
            trace=bool(args.trace), quick=args.quick, procs=procs, work=work,
            kernel=kernel, conns=min(CONNECTIONS[args.workload], os.cpu_count() or 1),
        )
        stats.force_check_failure = args.force_check_failure
        stats.env["connections"] = ctx.conns
        WORKLOADS[args.workload](ctx, stats, Tracer() if args.trace else None)
    except CheckFailed as exc:
        failure = str(exc)
    except Interrupted as exc:
        print(f"perfbench: interrupted by {exc}; stopping children", file=sys.stderr)
        return 130
    finally:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        procs.stop_all()
        procs.reap_strays()
        leftover = procs.alive()
        shutil.rmtree(work, ignore_errors=True)
        if leftover:
            print(f"perfbench: child processes still alive: {leftover}", file=sys.stderr)
    if leftover:
        return 3

    print_report(args, stats, kernel)
    attempted = sum(stats.attempted.values())
    failed = sum(stats.failed.values())
    if failure is not None:
        print(f"check FAILED: {failure}")
        print(json.dumps({"correct": False, "attempted": max(1, attempted),
                          "failed": failed, "metrics": {}}))
        return 1
    if args.trace:
        for side, totals in (("program", stats.program_totals), ("client", stats.client_totals)):
            for name, row in sorted(totals.items()):
                if row[CALLS]:
                    print(f"span {side} {name}: calls={row[CALLS]} incl={row[INCL]:.6f}s "
                          f"self={row[SELF]:.6f}s units={row[UNITS]}")
        layers = per_layer(args.workload, stats)
        for name, (value, unit, base) in layers.items():
            print(f"layer {name} = {value:.6g} {unit}  ({base})")
        print(f"tracing overhead: {layers['trace.overhead'][2]} "
              f"-> {layers['trace.overhead'][0]:.1%} slower")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit, _b) in layers.items()}
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in end_to_end(stats).items()}
        for name, spec in metrics.items():
            print(f"metric {name} = {spec['value']:.6g} {spec['unit']}")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def quick_all(args) -> int:
    """Every workload at toy size, untraced and traced, one process each."""
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    names = {0: {m["name"] for m in spec["end_to_end"]},
             1: {m["name"] for m in spec["per_layer"]}}
    workloads = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    bad = 0
    for workload in workloads:
        for trace in (0, 1):
            started = time.monotonic()
            out = subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed",
                 str(args.seed), "--seconds", "0.5", "--trace", str(trace), "--quick"],
                capture_output=True, text=True, timeout=600,
            )
            lines = out.stdout.strip().splitlines()
            problem = None
            if out.returncode != 0 or not lines:
                problem = f"exit {out.returncode}: {out.stderr[-1500:]} {out.stdout[-1500:]}"
            else:
                result = json.loads(lines[-1])
                if not result["correct"] or result["failed"]:
                    problem = f"result {result}"
                elif set(result["metrics"]) != names[trace]:
                    problem = f"metric names differ: {sorted(set(result['metrics']) ^ names[trace])}"
            status = "ok" if problem is None else f"FAILED {problem}"
            print(f"quick {workload} trace={trace}: {status} ({time.monotonic() - started:.1f}s)")
            bad += problem is not None
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="toy input sizes; without --workload, run all four "
                             "workloads traced and untraced and check them")
    parser.add_argument("--force-check-failure", action="store_true",
                        help="fail the first check that passes (tests the "
                             "teardown after a failed check)")
    args = parser.parse_args(argv)
    if args.quick and not args.workload:
        return quick_all(args)
    if not args.workload:
        parser.error("--workload is required (or --quick)")
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
