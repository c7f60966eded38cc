"""The invariant linter: every rule fires on a seeded violation and
stays quiet on the compliant spelling, suppression and baselining
behave, and — the gate this suite exists for — the repo's own tree
scans clean against its checked-in baseline.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    ALL_RULES,
    Baseline,
    BaselineError,
    analyze_paths,
    analyze_source,
    render,
    rules_by_id,
)
from repro.analysis.baseline import BaselineEntry
from repro.tools import lint

REPO_ROOT = Path(__file__).resolve().parents[1]


def check(source, rel_path, rule_id):
    """Findings of one rule over one synthetic module."""
    return analyze_source(
        textwrap.dedent(source), rel_path, rules_by_id([rule_id])
    )


def rules_fired(source, rel_path):
    return {
        f.rule
        for f in analyze_source(textwrap.dedent(source), rel_path, ALL_RULES)
    }


# ---------------------------------------------------------------------------
# RPR001 — un-fsynced durable writes


class TestUnfsyncedDurableWrite:
    PATH = "src/repro/storage/fake.py"

    def test_fires_on_barrierless_os_write(self):
        findings = check(
            """
            import os

            def persist(fd, payload):
                os.write(fd, payload)
                return len(payload)
            """,
            self.PATH,
            "RPR001",
        )
        assert [f.rule for f in findings] == ["RPR001"]
        assert findings[0].symbol == "persist"
        assert "fsync barrier" in findings[0].message

    def test_quiet_when_the_function_fsyncs(self):
        assert not check(
            """
            import os

            def persist(fd, payload):
                os.write(fd, payload)
                os.fsync(fd)
            """,
            self.PATH,
            "RPR001",
        )

    def test_quiet_when_a_durable_helper_is_used(self):
        assert not check(
            """
            def persist(path, payload, stats):
                durable_write_bytes(path, payload, stats)
            """,
            self.PATH,
            "RPR001",
        )

    def test_scoped_to_storage_modules(self):
        assert not check(
            """
            import os

            def persist(fd, payload):
                os.write(fd, payload)
            """,
            "src/repro/core/fake.py",
            "RPR001",
        )

    def test_write_all_counts_as_a_low_level_write(self):
        findings = check(
            """
            def persist(fd, payload):
                write_all(fd, payload)
            """,
            self.PATH,
            "RPR001",
        )
        assert len(findings) == 1


# ---------------------------------------------------------------------------
# RPR002 — blocking calls in async functions


class TestBlockingCallInAsync:
    PATH = "src/repro/service/fake.py"

    def test_fires_on_sleep_in_async(self):
        findings = check(
            """
            import time

            async def handler(self):
                time.sleep(0.1)
            """,
            self.PATH,
            "RPR002",
        )
        assert [f.rule for f in findings] == ["RPR002"]
        assert "asyncio.sleep" in findings[0].message

    def test_fires_on_open_in_async(self):
        findings = check(
            """
            async def handler(path):
                with open(path) as fh:
                    return fh.read()
            """,
            self.PATH,
            "RPR002",
        )
        assert len(findings) == 1

    def test_quiet_in_sync_functions(self):
        assert not check(
            """
            import time

            def worker(self):
                time.sleep(0.1)
            """,
            self.PATH,
            "RPR002",
        )

    def test_nested_sync_def_is_an_escape_hatch(self):
        # A sync def inside an async def runs wherever it is called
        # from (usually an executor) — not flagged.
        assert not check(
            """
            import time

            async def handler(loop):
                def blocking_probe():
                    time.sleep(0.1)
                await loop.run_in_executor(None, blocking_probe)
            """,
            self.PATH,
            "RPR002",
        )

    def test_fires_on_sync_socket_io(self):
        findings = check(
            """
            async def pump(sock):
                return sock.recv(4096)
            """,
            self.PATH,
            "RPR002",
        )
        assert len(findings) == 1
        assert "asyncio stream" in findings[0].message


# ---------------------------------------------------------------------------
# RPR003 — storage-error context and chaining


class TestStorageErrorContext:
    PATH = "src/repro/storage/fake.py"

    def test_fires_on_pathless_storage_error(self):
        findings = check(
            """
            def load(target):
                raise StorageError(f"cannot read {target}")
            """,
            self.PATH,
            "RPR003",
        )
        assert len(findings) == 1
        assert "path=" in findings[0].message

    def test_quiet_with_path_context(self):
        assert not check(
            """
            def load(target):
                raise CorruptFileError("bad header", path=target, offset=0)
            """,
            self.PATH,
            "RPR003",
        )

    def test_fires_on_unchained_wrap_in_handler(self):
        findings = check(
            """
            def load(target):
                try:
                    return target.read_bytes()
                except OSError:
                    raise StorageError("unreadable", path=target)
            """,
            self.PATH,
            "RPR003",
        )
        assert len(findings) == 1
        assert "from" in findings[0].message

    def test_quiet_when_chained(self):
        assert not check(
            """
            def load(target):
                try:
                    return target.read_bytes()
                except OSError as exc:
                    raise StorageError("unreadable", path=target) from exc
            """,
            self.PATH,
            "RPR003",
        )

    def test_from_none_is_an_explicit_decision(self):
        assert not check(
            """
            def probe(client):
                try:
                    return client.ping()
                except OSError:
                    raise ServiceError("unreachable", error_type="io") from None
            """,
            self.PATH,
            "RPR003",
        )


# ---------------------------------------------------------------------------
# RPR004 — event-loop serialisation of index mutation


class TestUnserialisedIndexMutation:
    PATH = "src/repro/service/handlers.py"

    def test_fires_on_sync_insert(self):
        findings = check(
            """
            class Service:
                def adopt(self, items):
                    self.index.insert(items)
            """,
            self.PATH,
            "RPR004",
        )
        assert len(findings) == 1
        assert findings[0].symbol == "Service.adopt"

    def test_quiet_inside_a_coroutine(self):
        assert not check(
            """
            class Service:
                async def append(self, items):
                    self.index.insert(items)
            """,
            self.PATH,
            "RPR004",
        )

    def test_fires_on_direct_epoch_write(self):
        findings = check(
            """
            class Service:
                async def swap(self, fresh, old):
                    fresh._epoch = old._epoch + 1
            """,
            self.PATH,
            "RPR004",
        )
        assert len(findings) == 1
        assert "epoch" in findings[0].message

    def test_scoped_to_the_serving_layer(self):
        assert not check(
            """
            class Builder:
                def build(self, items):
                    self.index.insert(items)
            """,
            "src/repro/core/fake.py",
            "RPR004",
        )

    def test_unshared_receivers_are_ignored(self):
        assert not check(
            """
            def helper(tree, items):
                tree.insert(items)
            """,
            self.PATH,
            "RPR004",
        )


# ---------------------------------------------------------------------------
# RPR005 — deterministic partitioning


class TestNondeterministicPartitioning:
    PATH = "src/repro/core/parallel.py"

    def test_fires_on_set_iteration(self):
        findings = check(
            """
            def partition(items, workers):
                return [chunk for chunk in set(items)]
            """,
            self.PATH,
            "RPR005",
        )
        assert len(findings) == 1
        assert "sorted" in findings[0].message

    def test_fires_on_for_over_set_literal(self):
        findings = check(
            """
            def fan_out(a, b):
                for worker in {a, b}:
                    worker.start()
            """,
            self.PATH,
            "RPR005",
        )
        assert len(findings) == 1

    def test_sorted_set_is_the_sanctioned_spelling(self):
        assert not check(
            """
            def partition(items, workers):
                return [chunk for chunk in sorted(set(items))]
            """,
            self.PATH,
            "RPR005",
        )

    def test_scoped_to_partitioning_modules(self):
        assert not check(
            """
            def anywhere(items):
                return [x for x in set(items)]
            """,
            "src/repro/core/mining.py",
            "RPR005",
        )


# ---------------------------------------------------------------------------
# RPR009 — sanctioned pool spawning


class TestUnsanctionedPoolSpawn:
    PATH = "src/repro/core/parallel.py"

    def test_fires_on_executor_in_core(self):
        findings = check(
            """
            from concurrent.futures import ProcessPoolExecutor

            def fan_out(tasks):
                with ProcessPoolExecutor(max_workers=4) as pool:
                    return list(pool.map(str, tasks))
            """,
            self.PATH,
            "RPR009",
        )
        assert len(findings) == 1
        assert "WorkerPool" in findings[0].message

    def test_fires_on_raw_multiprocessing_pool(self):
        findings = check(
            """
            import multiprocessing

            def fan_out(tasks):
                with multiprocessing.Pool(4) as pool:
                    return pool.map(str, tasks)
            """,
            self.PATH,
            "RPR009",
        )
        assert len(findings) == 1

    def test_pool_module_is_sanctioned(self):
        assert not check(
            """
            from concurrent.futures import ProcessPoolExecutor

            class WorkerPool:
                def __init__(self, workers):
                    self._executor = ProcessPoolExecutor(max_workers=workers)
            """,
            "src/repro/core/pool.py",
            "RPR009",
        )

    def test_scoped_to_core(self):
        assert not check(
            """
            from concurrent.futures import ProcessPoolExecutor

            def fan_out(tasks):
                with ProcessPoolExecutor(max_workers=4) as pool:
                    return list(pool.map(str, tasks))
            """,
            "src/repro/bench/harness.py",
            "RPR009",
        )

    def test_workerpool_usage_is_clean(self):
        assert not check(
            """
            from repro.core.pool import WorkerPool

            def fan_out(tasks):
                pool = WorkerPool(4)
                return pool.collect({pool.submit(str, t): i
                                     for i, t in enumerate(tasks)})
            """,
            self.PATH,
            "RPR009",
        )


# ---------------------------------------------------------------------------
# RPR006 — swallowed exceptions


class TestSwallowedException:
    PATH = "src/repro/service/fake.py"

    def test_fires_on_bare_except(self):
        findings = check(
            """
            def close(writer):
                try:
                    writer.close()
                except:
                    pass
            """,
            self.PATH,
            "RPR006",
        )
        assert len(findings) == 1
        assert "bare" in findings[0].message

    def test_fires_on_silent_broad_except(self):
        findings = check(
            """
            def close(writer):
                try:
                    writer.close()
                except Exception:
                    pass
            """,
            self.PATH,
            "RPR006",
        )
        assert len(findings) == 1

    def test_quiet_when_the_exception_is_recorded(self):
        assert not check(
            """
            def close(writer, log):
                try:
                    writer.close()
                except Exception as exc:
                    log.append(exc)
            """,
            self.PATH,
            "RPR006",
        )

    def test_quiet_when_rereaised(self):
        assert not check(
            """
            def close(writer):
                try:
                    writer.close()
                except Exception:
                    raise
            """,
            self.PATH,
            "RPR006",
        )

    def test_fires_on_broad_suppress(self):
        findings = check(
            """
            import contextlib

            def close(writer):
                with contextlib.suppress(Exception):
                    writer.close()
            """,
            self.PATH,
            "RPR006",
        )
        assert len(findings) == 1

    def test_narrow_suppress_is_fine(self):
        assert not check(
            """
            import contextlib

            def close(writer):
                with contextlib.suppress(OSError):
                    writer.close()
            """,
            self.PATH,
            "RPR006",
        )

    def test_narrow_except_is_out_of_scope(self):
        assert not check(
            """
            def close(writer):
                try:
                    writer.close()
                except OSError:
                    pass
            """,
            self.PATH,
            "RPR006",
        )


# ---------------------------------------------------------------------------
# RPR007 — estimate soundness


class TestEstimateSoundness:
    PATH = "src/repro/core/fake.py"

    def test_fires_on_subtraction_from_an_estimate(self):
        findings = check(
            """
            def headroom(bbs, itemset, threshold):
                return bbs.count_itemset(itemset) - threshold
            """,
            self.PATH,
            "RPR007",
        )
        assert len(findings) == 1
        assert "under-estimate" in findings[0].message

    def test_fires_on_min_of_an_estimate(self):
        findings = check(
            """
            def clamp(bbs, itemset, cap):
                return min(bbs.count_itemset(itemset), cap)
            """,
            self.PATH,
            "RPR007",
        )
        assert len(findings) == 1

    def test_additive_arithmetic_is_safe(self):
        assert not check(
            """
            def padded(bbs, itemset):
                return bbs.count_itemset(itemset) + 1
            """,
            self.PATH,
            "RPR007",
        )

    def test_exact_side_subtraction_is_out_of_scope(self):
        # Arithmetic on confirmed counts never names the estimate calls.
        assert not check(
            """
            def gap(exact_a, exact_b):
                return exact_a - exact_b
            """,
            self.PATH,
            "RPR007",
        )

    def test_scoped_to_core(self):
        assert not check(
            """
            def headroom(bbs, itemset, threshold):
                return bbs.popcount(itemset) - threshold
            """,
            "src/repro/rules/fake.py",
            "RPR007",
        )


class TestJournalWriteOutsideLog:
    PATH = "src/repro/service/fake.py"

    def test_fires_on_raw_writer_construction(self):
        findings = check(
            """
            def open_journal(path, stats):
                from repro.storage.txfile import TransactionFileWriter
                return TransactionFileWriter(path, truncate=False, stats=stats)
            """,
            self.PATH,
            "RPR008",
        )
        assert len(findings) == 1
        assert "ReplicationLog" in findings[0].message

    def test_fires_on_dotted_salvage_call(self):
        findings = check(
            """
            import repro.storage.txfile as txfile

            def heal(path):
                return txfile.salvage_txfile(path)
            """,
            self.PATH,
            "RPR008",
        )
        assert len(findings) == 1

    def test_quiet_through_the_replication_log(self):
        assert not check(
            """
            def open_journal(path, stats):
                from repro.service.replication import ReplicationLog
                return ReplicationLog.open(path, stats=stats)
            """,
            self.PATH,
            "RPR008",
        )

    def test_replication_module_is_sanctioned(self):
        assert not check(
            """
            def open_raw(path):
                from repro.storage.txfile import TransactionFileWriter
                return TransactionFileWriter(path)
            """,
            "src/repro/service/replication.py",
            "RPR008",
        )

    def test_scoped_to_the_service_layer(self):
        assert not check(
            """
            def rewrite(path):
                from repro.storage.txfile import TransactionFileWriter
                return TransactionFileWriter(path, truncate=True)
            """,
            "src/repro/storage/fake.py",
            "RPR008",
        )


class TestShardFanoutOutsideRouter:
    PATH = "src/repro/service/fake.py"

    def test_fires_on_asyncio_open_connection(self):
        findings = check(
            """
            import asyncio

            async def dial(host, port):
                return await asyncio.open_connection(host, port)
            """,
            self.PATH,
            "RPR010",
        )
        assert len(findings) == 1
        assert "service/shard/router.py" in findings[0].message

    def test_fires_on_socket_create_connection(self):
        findings = check(
            """
            import socket

            def dial(host, port):
                return socket.create_connection((host, port), timeout=1.0)
            """,
            self.PATH,
            "RPR010",
        )
        assert len(findings) == 1

    def test_fires_on_raw_socket_construction(self):
        findings = check(
            """
            import socket

            def make(host, port):
                return socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            """,
            self.PATH,
            "RPR010",
        )
        assert len(findings) == 1

    def test_router_module_is_sanctioned(self):
        assert not check(
            """
            import asyncio

            async def dial(host, port):
                return await asyncio.open_connection(host, port)
            """,
            "src/repro/service/shard/router.py",
            "RPR010",
        )

    def test_client_module_is_sanctioned(self):
        assert not check(
            """
            import socket

            def dial(host, port):
                return socket.create_connection((host, port))
            """,
            "src/repro/service/client.py",
            "RPR010",
        )

    def test_scoped_to_the_service_layer(self):
        assert not check(
            """
            import socket

            def dial(host, port):
                return socket.create_connection((host, port))
            """,
            "src/repro/tools/fake.py",
            "RPR010",
        )

    def test_quiet_through_the_shard_link(self):
        assert not check(
            """
            async def fan_out(router, op, args):
                return await router._fanout(op, args)
            """,
            self.PATH,
            "RPR010",
        )


# ---------------------------------------------------------------------------
# RPR011 — unbounded awaits in the serving layer


class TestUnboundedAwaitInService:
    PATH = "src/repro/service/fake.py"

    def test_fires_on_bare_queue_get(self):
        findings = check(
            """
            async def consume(queue):
                return await queue.get()
            """,
            self.PATH,
            "RPR011",
        )
        assert len(findings) == 1
        assert "wait_for" in findings[0].message

    def test_fires_on_bare_stream_read(self):
        findings = check(
            """
            async def header(reader):
                return await reader.readexactly(4)
            """,
            self.PATH,
            "RPR011",
        )
        assert len(findings) == 1

    def test_fires_on_bare_frame_write(self):
        findings = check(
            """
            async def respond(writer, frame):
                await write_frame(writer, frame)
            """,
            self.PATH,
            "RPR011",
        )
        assert len(findings) == 1

    def test_quiet_when_wrapped_in_wait_for(self):
        assert not check(
            """
            import asyncio

            async def consume(queue, budget):
                return await asyncio.wait_for(queue.get(), timeout=budget)
            """,
            self.PATH,
            "RPR011",
        )

    def test_quiet_on_asyncio_composition(self):
        assert not check(
            """
            import asyncio

            async def race(tasks):
                return await asyncio.wait(
                    tasks, return_when=asyncio.FIRST_COMPLETED
                )
            """,
            self.PATH,
            "RPR011",
        )

    def test_quiet_on_bounded_verbs(self):
        assert not check(
            """
            async def fetch(client, op, args):
                return await client.request(op, args)
            """,
            self.PATH,
            "RPR011",
        )

    def test_scoped_to_the_service_layer(self):
        assert not check(
            """
            async def consume(queue):
                return await queue.get()
            """,
            "src/repro/core/fake.py",
            "RPR011",
        )


# ---------------------------------------------------------------------------
# Suppression


class TestNoqa:
    PATH = "src/repro/service/fake.py"

    SOURCE = """
    import time

    async def handler(self):
        time.sleep(0.1){comment}
    """

    def test_named_noqa_suppresses_that_rule(self):
        source = self.SOURCE.format(
            comment="  # repro: noqa(RPR002) -- test fixture"
        )
        assert not check(source, self.PATH, "RPR002")

    def test_bare_noqa_suppresses_every_rule(self):
        source = self.SOURCE.format(comment="  # repro: noqa")
        assert not rules_fired(source, self.PATH)

    def test_noqa_for_a_different_rule_does_not_suppress(self):
        source = self.SOURCE.format(comment="  # repro: noqa(RPR001)")
        assert len(check(source, self.PATH, "RPR002")) == 1

    def test_noqa_is_line_scoped(self):
        source = """
        import time

        async def handler(self):
            pass  # repro: noqa(RPR002)

        async def other(self):
            time.sleep(0.1)
        """
        assert len(check(source, self.PATH, "RPR002")) == 1


# ---------------------------------------------------------------------------
# Rendering


class TestRendering:
    def sample(self):
        return check(
            """
            import time

            async def handler(self):
                time.sleep(0.1)
            """,
            "src/repro/service/fake.py",
            "RPR002",
        )

    def test_text_format(self):
        line = render(self.sample(), "text")
        assert line.startswith("src/repro/service/fake.py:5:")
        assert "RPR002 error:" in line
        assert "[handler]" in line

    def test_json_format_round_trips(self):
        payload = json.loads(render(self.sample(), "json"))
        (finding,) = payload["findings"]
        assert finding["rule"] == "RPR002"
        assert finding["symbol"] == "handler"
        assert finding["line"] == 5

    def test_github_format_is_a_workflow_command(self):
        line = render(self.sample(), "github")
        assert line.startswith("::error file=src/repro/service/fake.py,line=")
        assert "title=RPR002" in line

    def test_unknown_format_is_an_error(self):
        with pytest.raises(ValueError):
            render([], "sarif")

    def test_unknown_rule_id_is_an_error(self):
        with pytest.raises(ValueError):
            rules_by_id(["RPR999"])


# ---------------------------------------------------------------------------
# Baseline


class TestBaseline:
    def finding(self):
        (finding,) = check(
            """
            class Service:
                def adopt(self, items):
                    self.index.insert(items)
            """,
            "src/repro/service/handlers.py",
            "RPR004",
        )
        return finding

    def entry(self, **overrides):
        fields = {
            "rule": "RPR004",
            "path": "src/repro/service/handlers.py",
            "symbol": "Service.adopt",
            "justification": "only called from a coroutine",
        }
        fields.update(overrides)
        return BaselineEntry(**fields)

    def test_matching_entry_accepts_the_finding(self):
        result = Baseline([self.entry()]).apply([self.finding()])
        assert not result.new
        assert len(result.accepted) == 1
        assert not result.stale

    def test_symbol_mismatch_keeps_the_finding_new(self):
        result = Baseline([self.entry(symbol="Service.other")]).apply(
            [self.finding()]
        )
        assert len(result.new) == 1
        assert len(result.stale) == 1

    def test_unused_entries_are_reported_stale(self):
        result = Baseline([self.entry()]).apply([])
        assert result.stale == [self.entry()]

    def test_empty_justification_is_rejected(self, tmp_path):
        target = tmp_path / "baseline.json"
        target.write_text(json.dumps({
            "version": 1,
            "entries": [self.entry(justification="  ").__dict__],
        }))
        with pytest.raises(BaselineError, match="justification"):
            Baseline.load(target)

    def test_missing_fields_are_rejected(self, tmp_path):
        target = tmp_path / "baseline.json"
        target.write_text(json.dumps({
            "version": 1,
            "entries": [{"rule": "RPR004"}],
        }))
        with pytest.raises(BaselineError, match="missing"):
            Baseline.load(target)

    def test_malformed_json_is_rejected(self, tmp_path):
        target = tmp_path / "baseline.json"
        target.write_text("{not json")
        with pytest.raises(BaselineError, match="JSON"):
            Baseline.load(target)

    def test_regenerate_preserves_existing_justifications(self):
        document = Baseline([self.entry()]).regenerate([self.finding()])
        (entry,) = document["entries"]
        assert entry["justification"] == "only called from a coroutine"

    def test_regenerate_marks_new_sites_todo(self):
        document = Baseline.empty().regenerate([self.finding()])
        (entry,) = document["entries"]
        assert entry["justification"].startswith("TODO")


# ---------------------------------------------------------------------------
# CLI


class TestLintCli:
    def seed_tree(self, tmp_path):
        storage = tmp_path / "src" / "repro" / "storage"
        storage.mkdir(parents=True)
        (storage / "bad.py").write_text(textwrap.dedent(
            """
            import os

            def persist(fd, payload):
                os.write(fd, payload)
            """
        ))
        return tmp_path

    def test_findings_exit_1(self, tmp_path, capsys):
        root = self.seed_tree(tmp_path)
        code = lint.main(["src", "--root", str(root), "--no-baseline"])
        out = capsys.readouterr()
        assert code == 1
        assert "RPR001" in out.out
        assert "1 finding(s)" in out.err

    def test_clean_tree_exits_0(self, tmp_path, capsys):
        (tmp_path / "clean.py").write_text("VALUE = 1\n")
        code = lint.main([str(tmp_path / "clean.py"), "--root", str(tmp_path)])
        assert code == 0

    def test_json_output_parses(self, tmp_path, capsys):
        root = self.seed_tree(tmp_path)
        lint.main(
            ["src", "--root", str(root), "--no-baseline", "--format", "json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["rule"] == "RPR001"

    def test_baseline_accepts_the_finding(self, tmp_path, capsys):
        root = self.seed_tree(tmp_path)
        baseline = root / "analysis_baseline.json"
        baseline.write_text(json.dumps({
            "version": 1,
            "entries": [{
                "rule": "RPR001",
                "path": "src/repro/storage/bad.py",
                "symbol": "persist",
                "justification": "fixture: caller holds the barrier",
            }],
        }))
        code = lint.main(
            ["src", "--root", str(root), "--baseline", str(baseline)]
        )
        capsys.readouterr()
        assert code == 0

    def test_stale_entries_fail_under_strict(self, tmp_path, capsys):
        (tmp_path / "clean.py").write_text("VALUE = 1\n")
        baseline = tmp_path / "analysis_baseline.json"
        baseline.write_text(json.dumps({
            "version": 1,
            "entries": [{
                "rule": "RPR001",
                "path": "gone.py",
                "symbol": "gone",
                "justification": "the code this excused was deleted",
            }],
        }))
        relaxed = lint.main([
            str(tmp_path / "clean.py"), "--root", str(tmp_path),
            "--baseline", str(baseline),
        ])
        strict = lint.main([
            str(tmp_path / "clean.py"), "--root", str(tmp_path),
            "--baseline", str(baseline), "--strict",
        ])
        err = capsys.readouterr().err
        assert relaxed == 0
        assert strict == 1
        assert "stale" in err

    def test_write_baseline_round_trips(self, tmp_path, capsys):
        root = self.seed_tree(tmp_path)
        baseline = root / "analysis_baseline.json"
        code = lint.main([
            "src", "--root", str(root),
            "--baseline", str(baseline), "--write-baseline",
        ])
        capsys.readouterr()
        assert code == 0
        document = json.loads(baseline.read_text())
        assert document["entries"][0]["rule"] == "RPR001"
        # A written baseline holds TODO justifications — the loader
        # accepts them (non-empty) but review must replace them.
        code = lint.main(
            ["src", "--root", str(root), "--baseline", str(baseline)]
        )
        capsys.readouterr()
        assert code == 0

    def test_unknown_rule_exits_2(self, capsys):
        assert lint.main(["--rule", "RPR999", "--list-rules"]) == 0
        assert lint.main(["--rule", "RPR999", "src"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_broken_baseline_exits_2(self, tmp_path, capsys):
        target = tmp_path / "baseline.json"
        target.write_text("{not json")
        assert lint.main(["src", "--baseline", str(target)]) == 2

    def test_list_rules_covers_the_catalog(self, capsys):
        assert lint.main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.id in out

    def test_syntax_errors_are_reported_not_dropped(self, tmp_path, capsys):
        (tmp_path / "broken.py").write_text("def oops(:\n")
        code = lint.main([str(tmp_path / "broken.py"), "--root", str(tmp_path)])
        assert code == 0  # no findings — but the skip is visible
        assert "syntax error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# The gate: the repo's own tree is clean


class TestRepoSelfScan:
    def test_repo_scans_clean_against_its_baseline(self):
        findings, skipped = analyze_paths(
            ["src", "tests"], ALL_RULES, root=REPO_ROOT
        )
        assert not skipped, f"unparseable files: {skipped}"
        baseline = Baseline.load(REPO_ROOT / "analysis_baseline.json")
        result = baseline.apply(findings)
        assert not result.new, "unbaselined findings:\n" + "\n".join(
            f.format_text() for f in result.new
        )
        assert not result.stale, (
            "stale baseline entries: "
            + ", ".join(f"{e.rule}@{e.symbol}" for e in result.stale)
        )

    def test_every_baseline_entry_is_justified(self):
        baseline = Baseline.load(REPO_ROOT / "analysis_baseline.json")
        for entry in baseline.entries:
            assert len(entry.justification) > 20, (
                f"{entry.rule} at {entry.symbol}: a justification should "
                f"state the argument, not wave at it"
            )


# ---------------------------------------------------------------------------
# The flow engine: CFG / dataflow / call graph


class TestCFG:
    def cfg_of(self, source):
        import ast as _ast

        from repro.analysis.flow import build_cfg

        tree = _ast.parse(textwrap.dedent(source))
        func = next(
            n for n in _ast.walk(tree)
            if isinstance(n, (_ast.FunctionDef, _ast.AsyncFunctionDef))
        )
        return build_cfg(func)

    def stmt_idx(self, cfg, line):
        for node in cfg.stmt_nodes():
            if node.lineno == line:
                return node.idx
        raise AssertionError(f"no stmt node at line {line}")

    def test_await_points_get_their_own_nodes(self):
        cfg = self.cfg_of("""
        async def f(q):
            a = 1
            b = await q.get()
            return b
        """)
        assert len(cfg.await_nodes()) == 1

    def test_exception_edge_reaches_handler_not_following_stmt_only(self):
        cfg = self.cfg_of("""
        def f(path):
            try:
                data = parse(path)
            except ValueError:
                data = None
            return data
        """)
        parse_idx = self.stmt_idx(cfg, 4)
        handler = next(n for n in cfg.nodes if n.kind == "except")
        assert cfg.reaches(parse_idx, handler.idx)

    def test_uncaught_raise_reaches_raise_exit_not_exit(self):
        cfg = self.cfg_of("""
        def f():
            raise ValueError("no")
        """)
        raise_idx = self.stmt_idx(cfg, 3)
        assert cfg.reaches(raise_idx, cfg.raise_exit)
        assert not cfg.reaches(raise_idx, cfg.exit)

    def test_while_true_has_no_false_exit(self):
        cfg = self.cfg_of("""
        def f(q):
            while True:
                step(q)
        """)
        header = self.stmt_idx(cfg, 3)
        # The only way out of the loop header is the body (and the
        # body's exception edges) — never a fall-through to exit.
        assert not cfg.reaches(header, cfg.exit)

    def test_catch_all_handler_absorbs_the_escape_edge(self):
        cfg = self.cfg_of("""
        def f(shm):
            try:
                risky(shm)
            except BaseException:
                shm.close()
                raise
            return shm
        """)
        risky_idx = self.stmt_idx(cfg, 4)
        close_idx = self.stmt_idx(cfg, 6)
        # With the release blocked, no path from risky() escapes to
        # either exit: the catch-all means every raise runs the close.
        reachable = cfg.reachable_from(
            [risky_idx],
            blocked=lambda i: i == close_idx,
            exc_escapes_blocked=False,
        )
        assert cfg.raise_exit not in reachable

    def test_blocked_barrier_still_escapes_through_its_exception_edge(self):
        cfg = self.cfg_of("""
        def f(journal, sock):
            journal.append(b"x")
            journal.sync()
            ack(sock)
        """)
        write_idx = self.stmt_idx(cfg, 3)
        sync_idx = self.stmt_idx(cfg, 4)
        ack_idx = self.stmt_idx(cfg, 5)
        # Completed-barrier semantics: the flow path past the barrier is
        # cut...
        assert not cfg.reaches(
            write_idx, ack_idx, blocked=lambda i: i == sync_idx
        )
        # ...but the barrier's own raise still escapes its blockedness.
        escaping = cfg.reachable_from(
            [sync_idx], blocked=lambda i: i == sync_idx
        )
        assert cfg.raise_exit in escaping
        assert ack_idx not in escaping
        # Best-effort-release semantics stop the path outright.
        stopped = cfg.reachable_from(
            [sync_idx],
            blocked=lambda i: i == sync_idx,
            exc_escapes_blocked=False,
        )
        assert cfg.raise_exit not in stopped
        assert ack_idx not in stopped

    def test_return_runs_the_pending_finally(self):
        cfg = self.cfg_of("""
        def f(pool, tasks):
            try:
                result = work(pool, tasks)
                return result
            finally:
                pool.close()
        """)
        return_idx = self.stmt_idx(cfg, 5)
        close_idx = self.stmt_idx(cfg, 7)
        assert cfg.reaches(return_idx, close_idx)
        assert not cfg.reaches(
            return_idx, cfg.exit, blocked=lambda i: i == close_idx
        )


class TestDataflow:
    def analyzed(self, source):
        import ast as _ast

        from repro.analysis.flow import build_cfg

        tree = _ast.parse(textwrap.dedent(source))
        func = next(
            n for n in _ast.walk(tree)
            if isinstance(n, (_ast.FunctionDef, _ast.AsyncFunctionDef))
        )
        return build_cfg(func)

    def test_rebinding_kills_the_earlier_definition(self):
        from repro.analysis.flow import reaching_definitions

        cfg = self.analyzed("""
        def f():
            shm = alloc()
            shm = alloc()
            use(shm)
        """)
        by_line = {n.lineno: n.idx for n in cfg.stmt_nodes()}
        facts = reaching_definitions(cfg)
        live_at_use = {
            idx for name, idx in facts[by_line[5]] if name == "shm"
        }
        assert live_at_use == {by_line[4]}

    def test_branches_merge_both_definitions(self):
        from repro.analysis.flow import reaching_definitions

        cfg = self.analyzed("""
        def f(flag):
            if flag:
                x = 1
            else:
                x = 2
            return x
        """)
        by_line = {n.lineno: n.idx for n in cfg.stmt_nodes()}
        facts = reaching_definitions(cfg)
        live = {idx for name, idx in facts[by_line[7]] if name == "x"}
        assert live == {by_line[4], by_line[6]}

    def test_dominators_of_a_diamond(self):
        from repro.analysis.flow import dominators

        cfg = self.analyzed("""
        def f(flag):
            gate()
            if flag:
                left()
            else:
                right()
            join()
        """)
        by_line = {n.lineno: n.idx for n in cfg.stmt_nodes()}
        doms = dominators(cfg)
        join_doms = doms[by_line[8]]
        assert by_line[3] in join_doms  # gate dominates the join
        assert by_line[5] not in join_doms  # one branch arm does not


class TestCallGraph:
    def program_of(self, modules):
        from repro.analysis.engine import ModuleContext
        from repro.analysis.flow import ProgramContext

        return ProgramContext(
            [
                ModuleContext(path, textwrap.dedent(src))
                for path, src in modules.items()
            ]
        )

    def test_resolves_local_and_method_calls(self):
        program = self.program_of({
            "src/repro/service/mod.py": """
            def helper():
                pass

            class Service:
                def step(self):
                    helper()
                    self.other()

                def other(self):
                    pass
            """,
        })
        graph = program.callgraph
        step = "src/repro/service/mod.py::Service.step"
        assert graph.callees(step) == {
            "src/repro/service/mod.py::helper",
            "src/repro/service/mod.py::Service.other",
        }

    def test_resolves_cross_module_imports(self):
        program = self.program_of({
            "src/repro/service/a.py": """
            from repro.service.b import emit

            def run():
                emit()
            """,
            "src/repro/service/b.py": """
            def emit():
                pass
            """,
        })
        graph = program.callgraph
        assert graph.callees("src/repro/service/a.py::run") == {
            "src/repro/service/b.py::emit"
        }

    def test_transitive_closes_over_caller_edges(self):
        program = self.program_of({
            "src/repro/service/chain.py": """
            def leaf():
                emit_frame()

            def middle():
                leaf()

            def top():
                middle()

            def bystander():
                pass
            """,
        })
        graph = program.callgraph

        def is_emitter(info):
            import ast as _ast

            return any(
                isinstance(n, _ast.Call)
                and isinstance(n.func, _ast.Name)
                and n.func.id == "emit_frame"
                for n in info.ctx.body_nodes(info.node)
            )

        closed = graph.transitive(is_emitter)
        names = {fid.rsplit("::", 1)[-1] for fid in closed}
        assert names == {"leaf", "middle", "top"}


# ---------------------------------------------------------------------------
# RPR012 — await-interleaving races


class TestAwaitInterleavingRace:
    PATH = "src/repro/service/fake_router.py"

    def test_read_await_mutate_fires(self):
        findings = check("""
        class Router:
            async def promote(self, state):
                follower = state.follower
                await follower.request("promote")
                self.epoch = self.epoch + 1
        """, self.PATH, "RPR012")
        assert len(findings) == 1

    def test_mutation_via_helper_is_traced_through_the_call_graph(self):
        findings = check("""
        class Router:
            def _bump(self):
                self.epoch = self.epoch + 1

            async def promote(self, state):
                follower = state.follower
                await follower.request("promote")
                self._bump()
        """, self.PATH, "RPR012")
        assert len(findings) == 1
        assert "_bump" in findings[0].message

    def test_post_await_recheck_exonerates(self):
        findings = check("""
        class Router:
            async def promote(self, state):
                follower = state.follower
                await follower.request("promote")
                if state.follower is not None:
                    self.epoch = self.epoch + 1
        """, self.PATH, "RPR012")
        assert not findings

    def test_mutation_before_the_await_is_fine(self):
        findings = check("""
        class Router:
            async def promote(self, state):
                follower = state.follower
                self.epoch = self.epoch + 1
                await follower.request("promote")
        """, self.PATH, "RPR012")
        assert not findings

    def test_outside_service_is_out_of_scope(self):
        findings = check("""
        class Router:
            async def promote(self, state):
                follower = state.follower
                await follower.request("promote")
                self.epoch = self.epoch + 1
        """, "src/repro/core/fake.py", "RPR012")
        assert not findings


# ---------------------------------------------------------------------------
# RPR013 — ACK before the durability barrier


class TestAckBeforeBarrier:
    PATH = "src/repro/service/fake_handler.py"

    def test_ack_after_unbarriered_write_fires(self):
        findings = check("""
        async def op_append(self, record, writer):
            self.journal.append(record)
            await write_frame(writer, {"ok": True})
        """, self.PATH, "RPR013")
        assert len(findings) == 1

    def test_barrier_between_write_and_ack_is_clean(self):
        findings = check("""
        async def op_append(self, record, writer):
            self.journal.append(record)
            self.journal.sync()
            await write_frame(writer, {"ok": True})
        """, self.PATH, "RPR013")
        assert not findings

    def test_ack_through_the_nonblocking_frame_write_fires(self):
        findings = check("""
        async def op_append(self, record, writer):
            self.journal.append(record)
            if write_frame_nowait(writer, {"ok": True}):
                await asyncio.wait_for(writer.drain(), timeout=1.0)
        """, self.PATH, "RPR013")
        assert len(findings) == 1

    def test_barrier_that_can_raise_into_an_acking_handler_fires(self):
        findings = check("""
        async def op_append(self, record, writer):
            self.journal.append(record)
            try:
                self.journal.sync()
            except OSError:
                pass
            await write_frame(writer, {"ok": True})
        """, self.PATH, "RPR013")
        assert len(findings) == 1

    def test_ack_via_helper_is_traced_through_the_call_graph(self):
        findings = check("""
        async def respond(writer, payload):
            await write_frame(writer, payload)

        async def op_append(self, record, writer):
            self.journal.append(record)
            await respond(writer, {"ok": True})
        """, self.PATH, "RPR013")
        assert len(findings) == 1

    def test_helper_that_barriers_internally_discharges_the_write(self):
        findings = check("""
        def apply_replicated(self, record):
            self.journal.append(record)
            self.journal.sync()

        async def op_append(self, record, writer):
            self.apply_replicated(record)
            await write_frame(writer, {"ok": True})
        """, self.PATH, "RPR013")
        assert not findings


# ---------------------------------------------------------------------------
# RPR014 — pool / shared-memory lifecycle


class TestUnreleasedPoolOrShm:
    PATH = "src/repro/core/fake_parallel.py"

    def test_exception_between_create_and_return_fires(self):
        findings = check("""
        def export(n):
            from multiprocessing import shared_memory
            shm = shared_memory.SharedMemory(create=True, size=n)
            meta = build_meta(shm)
            return shm, meta
        """, self.PATH, "RPR014")
        assert len(findings) == 1
        assert "exception path" in findings[0].message

    def test_catch_all_cleanup_then_reraise_is_clean(self):
        findings = check("""
        def export(n):
            from multiprocessing import shared_memory
            shm = shared_memory.SharedMemory(create=True, size=n)
            try:
                meta = build_meta(shm)
            except BaseException:
                shm.close()
                shm.unlink()
                raise
            return shm, meta
        """, self.PATH, "RPR014")
        assert not findings

    def test_pool_never_closed_on_the_normal_path_fires(self):
        findings = check("""
        def mine(tasks):
            pool = WorkerPool(2)
            results = pool.map(tasks)
            collect(results)
        """, self.PATH, "RPR014")
        assert len(findings) == 1

    def test_try_finally_close_is_clean(self):
        findings = check("""
        def mine(tasks):
            pool = WorkerPool(2)
            try:
                results = pool.map(tasks)
                return collect(results)
            finally:
                pool.close()
        """, self.PATH, "RPR014")
        assert not findings

    def test_storing_on_self_escapes_to_an_owner(self):
        findings = check("""
        class Session:
            def __init__(self, n):
                self.pool = WorkerPool(n)
        """, self.PATH, "RPR014")
        assert not findings

    def test_finalizer_registration_is_a_release(self):
        findings = check("""
        import weakref

        def export(n, owner):
            from multiprocessing import shared_memory
            shm = shared_memory.SharedMemory(create=True, size=n)
            weakref.finalize(owner, cleanup, shm)
            fill(shm)
            return shm
        """, self.PATH, "RPR014")
        assert not findings

    def test_attach_without_create_is_out_of_scope(self):
        findings = check("""
        def attach(name):
            from multiprocessing import shared_memory
            shm = shared_memory.SharedMemory(name=name)
            risky(shm)
            return shm
        """, self.PATH, "RPR014")
        assert not findings

    def test_release_of_a_rebinding_does_not_excuse_the_first(self):
        findings = check("""
        def export(n):
            from multiprocessing import shared_memory
            shm = shared_memory.SharedMemory(create=True, size=n)
            shm = shared_memory.SharedMemory(create=True, size=n)
            shm.close()
            shm.unlink()
        """, self.PATH, "RPR014")
        # The first segment is orphaned by the rebinding; the close
        # only credits the second acquisition.
        assert len(findings) == 1
        assert findings[0].line == 4


# ---------------------------------------------------------------------------
# RPR015 — deadline discipline at dial sites


class TestUndisciplinedDial:
    PATH = "src/repro/service/fake_client.py"

    def test_bare_dial_with_no_callers_fires(self):
        findings = check("""
        import asyncio

        async def dial(host, port):
            reader, writer = await asyncio.open_connection(host, port)
            return reader, writer
        """, self.PATH, "RPR015")
        assert len(findings) == 1

    def test_dominating_deadline_check_is_clean(self):
        findings = check("""
        import asyncio

        async def dial(host, port, deadline_ts):
            remaining = deadline_ts - now()
            if remaining <= 0:
                raise TimeoutError()
            reader, writer = await asyncio.open_connection(host, port)
            return reader, writer
        """, self.PATH, "RPR015")
        assert not findings

    def test_deadline_check_on_only_one_branch_fires(self):
        findings = check("""
        import asyncio

        async def dial(host, port, deadline_ts, fast):
            if fast:
                check = deadline_ts - now()
            reader, writer = await asyncio.open_connection(host, port)
            return reader, writer
        """, self.PATH, "RPR015")
        assert len(findings) == 1

    def test_guarded_caller_covers_a_bare_connector(self):
        findings = check("""
        import asyncio

        class Link:
            async def _dial(self):
                self.reader, self.writer = await asyncio.open_connection(
                    self.host, self.port
                )

            async def request(self, deadline_ts):
                remaining = deadline_ts - now()
                if remaining <= 0:
                    raise TimeoutError()
                await self._dial()
        """, self.PATH, "RPR015")
        assert not findings

    def test_one_unguarded_call_site_spoils_the_grace(self):
        findings = check("""
        import asyncio

        class Link:
            async def _dial(self):
                self.reader, self.writer = await asyncio.open_connection(
                    self.host, self.port
                )

            async def request(self, deadline_ts):
                remaining = deadline_ts - now()
                if remaining <= 0:
                    raise TimeoutError()
                await self._dial()

            async def warm(self):
                await self._dial()
        """, self.PATH, "RPR015")
        assert len(findings) == 1


# ---------------------------------------------------------------------------
# Multi-line statements and noqa


class TestMultiLineNoqa:
    PATH = "src/repro/service/fake.py"

    def test_noqa_on_a_continuation_line_covers_the_statement(self):
        source = """
        import time

        async def handler(self):
            time.sleep(
                0.1,
            )  # repro: noqa(RPR002) -- bounded fixture sleep
        """
        assert not check(source, self.PATH, "RPR002")

    def test_bare_noqa_on_a_continuation_line_covers_every_rule(self):
        source = """
        import time

        async def handler(self):
            time.sleep(
                0.1,
            )  # repro: noqa
        """
        assert not rules_fired(source, self.PATH)

    def test_noqa_on_the_def_line_does_not_blanket_the_body(self):
        source = """
        import time

        async def handler(self):  # repro: noqa(RPR002)
            time.sleep(0.1)
        """
        assert len(check(source, self.PATH, "RPR002")) == 1

    def test_noqa_inside_one_statement_does_not_leak_to_the_next(self):
        source = """
        import time

        async def handler(self):
            time.sleep(
                0.1,
            )  # repro: noqa(RPR002)
            time.sleep(0.2)
        """
        assert len(check(source, self.PATH, "RPR002")) == 1

    def test_noqa_on_a_decorator_covers_the_header(self):
        # The decorator lines and the def header are one suppression
        # span; a finding anchored to the header is covered by a noqa
        # on the decorator.
        source = """
        import functools, time

        @functools.wraps(  # repro: noqa(RPR002) -- fixture
            time.sleep(0.1)
        )
        async def handler(self):
            pass
        """
        assert not check(source, self.PATH, "RPR002")


# ---------------------------------------------------------------------------
# Baseline staleness


class TestBaselineStaleness:
    def entry(self, rule, path, symbol):
        return BaselineEntry(
            rule=rule, path=path, symbol=symbol,
            justification="seeded for the staleness tests, long enough",
        )

    def findings_for(self, source, rel_path):
        return analyze_source(textwrap.dedent(source), rel_path, ALL_RULES)

    VIOLATION = """
    import time

    async def handler(self):
        time.sleep(0.1)
    """

    def test_entry_for_a_removed_rule_id_goes_stale(self):
        findings = self.findings_for(
            self.VIOLATION, "src/repro/service/mod.py"
        )
        baseline = Baseline(
            [self.entry("RPR999", "src/repro/service/mod.py", "handler")]
        )
        result = baseline.apply(findings)
        # The unknown-rule entry matches nothing: the finding stays
        # new and the entry is reported stale, not silently dropped.
        assert [e.rule for e in result.stale] == ["RPR999"]
        assert len(result.new) == 1

    def test_entry_goes_stale_when_the_symbol_moves_files(self):
        moved = self.findings_for(
            self.VIOLATION, "src/repro/service/new_home.py"
        )
        baseline = Baseline(
            [self.entry("RPR002", "src/repro/service/old_home.py", "handler")]
        )
        result = baseline.apply(moved)
        assert [e.path for e in result.stale] == [
            "src/repro/service/old_home.py"
        ]
        assert len(result.new) == 1  # the moved finding is not excused

    def test_entry_goes_stale_when_the_symbol_is_renamed(self):
        findings = self.findings_for(
            self.VIOLATION, "src/repro/service/mod.py"
        )
        baseline = Baseline(
            [self.entry("RPR002", "src/repro/service/mod.py", "old_handler")]
        )
        result = baseline.apply(findings)
        assert [e.symbol for e in result.stale] == ["old_handler"]
        assert len(result.new) == 1

    def test_matching_entry_is_not_stale(self):
        findings = self.findings_for(
            self.VIOLATION, "src/repro/service/mod.py"
        )
        baseline = Baseline(
            [self.entry("RPR002", "src/repro/service/mod.py", "handler")]
        )
        result = baseline.apply(findings)
        assert not result.stale
        assert not result.new
        assert len(result.accepted) == 1


# ---------------------------------------------------------------------------
# lint --since


class TestSinceFlag:
    VIOLATION = (
        "import time\n\n\nasync def handler():\n    time.sleep(0.1)\n"
    )

    def seed_repo(self, tmp_path):
        import subprocess

        def git(*argv):
            subprocess.run(
                ["git", "-C", str(tmp_path), *argv],
                check=True, capture_output=True,
                env={
                    "GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
                    "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t",
                    "HOME": str(tmp_path),
                    "PATH": __import__("os").environ["PATH"],
                },
            )

        service = tmp_path / "src" / "repro" / "service"
        service.mkdir(parents=True)
        (service / "old.py").write_text(self.VIOLATION)
        git("init", "-q")
        git("add", ".")
        git("commit", "-q", "-m", "seed")
        return service

    def test_only_changed_files_are_scanned(self, tmp_path, capsys):
        service = self.seed_repo(tmp_path)
        (service / "new.py").write_text(self.VIOLATION)  # untracked
        code = lint.main([
            "src", "--root", str(tmp_path), "--since", "HEAD",
            "--no-baseline", "--format", "json",
        ])
        findings = json.loads(capsys.readouterr().out)["findings"]
        assert code == 1
        # old.py's violation predates HEAD and is not rescanned;
        # the untracked new.py is.
        assert {f["path"] for f in findings} == {
            "src/repro/service/new.py"
        }

    def test_tracked_modification_is_scanned(self, tmp_path, capsys):
        service = self.seed_repo(tmp_path)
        (service / "old.py").write_text(
            self.VIOLATION + "\n\nVALUE = 1\n"
        )
        code = lint.main([
            "src", "--root", str(tmp_path), "--since", "HEAD",
            "--no-baseline", "--format", "json",
        ])
        findings = json.loads(capsys.readouterr().out)["findings"]
        assert code == 1
        assert {f["path"] for f in findings} == {
            "src/repro/service/old.py"
        }

    def test_no_changes_exits_zero(self, tmp_path, capsys):
        self.seed_repo(tmp_path)
        code = lint.main([
            "src", "--root", str(tmp_path), "--since", "HEAD",
            "--no-baseline",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "no python files changed" in captured.err

    def test_paths_filter_still_applies(self, tmp_path, capsys):
        self.seed_repo(tmp_path)
        scripts = tmp_path / "scripts"
        scripts.mkdir()
        (scripts / "tool.py").write_text(self.VIOLATION)
        code = lint.main([
            "src", "--root", str(tmp_path), "--since", "HEAD",
            "--no-baseline",
        ])
        capsys.readouterr()
        # scripts/ is outside the requested scan paths.
        assert code == 0

    def test_bad_revision_exits_2(self, tmp_path, capsys):
        self.seed_repo(tmp_path)
        code = lint.main([
            "src", "--root", str(tmp_path), "--since", "not-a-rev",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "not-a-rev" in captured.err

    def test_stale_reporting_is_skipped_under_since(self, tmp_path, capsys):
        service = self.seed_repo(tmp_path)
        (service / "new.py").write_text("VALUE = 1\n")
        baseline = tmp_path / "analysis_baseline.json"
        baseline.write_text(json.dumps({
            "version": 1,
            "entries": [{
                "rule": "RPR002",
                "path": "src/repro/service/gone.py",
                "symbol": "handler",
                "justification": "entry whose file is not in this scan",
            }],
        }))
        code = lint.main([
            "src", "--root", str(tmp_path), "--since", "HEAD", "--strict",
        ])
        captured = capsys.readouterr()
        # A partial scan cannot judge staleness: no stale warning, no
        # strict failure.
        assert code == 0
        assert "stale" not in captured.err
