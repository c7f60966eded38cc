"""End-to-end tests of the command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture
def capsys_run(capsys):
    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


@pytest.fixture
def generated(tmp_path, capsys_run):
    """A small generated database + index on disk."""
    db_path = str(tmp_path / "demo.tx")
    idx_path = str(tmp_path / "demo.bbs")
    code, out, _ = capsys_run(
        "generate", "--out", db_path,
        "--transactions", "400", "--items", "120",
        "--avg-size", "6", "--pattern-size", "3",
        "--patterns", "40", "--seed", "5",
    )
    assert code == 0
    code, out, _ = capsys_run(
        "index", "--db", db_path, "--out", idx_path, "--m", "256"
    )
    assert code == 0
    return db_path, idx_path


class TestGenerate:
    def test_reports_workload_name(self, tmp_path, capsys_run):
        code, out, _ = capsys_run(
            "generate", "--out", str(tmp_path / "g.tx"),
            "--transactions", "100", "--items", "50",
            "--avg-size", "5", "--pattern-size", "3", "--patterns", "20",
        )
        assert code == 0
        assert "T5.I3.D100" in out

    def test_file_is_readable(self, tmp_path, capsys_run):
        from repro.data.diskdb import DiskDatabase

        path = tmp_path / "g.tx"
        capsys_run("generate", "--out", str(path),
                   "--transactions", "100", "--items", "50",
                   "--patterns", "20")
        with DiskDatabase(path) as db:
            assert len(db) == 100


class TestIndex:
    def test_reports_size(self, generated, capsys_run):
        db_path, _ = generated
        # (already indexed in the fixture; the assertion is in setup)

    def test_index_loadable(self, generated):
        from repro.core.bbs import BBS

        _, idx_path = generated
        bbs = BBS.load(idx_path)
        assert bbs.m == 256
        assert bbs.n_transactions == 400


class TestMine:
    def test_mine_prints_patterns(self, generated, capsys_run):
        db_path, idx_path = generated
        code, out, _ = capsys_run(
            "mine", "--db", db_path, "--index", idx_path,
            "--min-support", "0.02", "--algorithm", "dfp", "--top", "5",
        )
        assert code == 0
        assert "dfp:" in out
        assert "frequent patterns" in out

    def test_mine_matches_library(self, generated, capsys_run):
        from repro.baselines.apriori import apriori
        from repro.data.diskdb import DiskDatabase

        db_path, idx_path = generated
        with DiskDatabase(db_path) as db:
            expected = len(apriori(db, 0.02))
        _, out, _ = capsys_run(
            "mine", "--db", db_path, "--index", idx_path,
            "--min-support", "0.02", "--top", "0",
        )
        assert f"{expected} frequent patterns" in out

    def test_absolute_support_parsed(self, generated, capsys_run):
        db_path, idx_path = generated
        code, out, _ = capsys_run(
            "mine", "--db", db_path, "--index", idx_path,
            "--min-support", "8",
        )
        assert code == 0
        assert "min_support=8" in out


class TestCount:
    def test_plain_count(self, generated, capsys_run):
        from repro.data.diskdb import DiskDatabase

        db_path, idx_path = generated
        with DiskDatabase(db_path) as db:
            item = db.items()[0]
            expected = db.support([item])
        code, out, _ = capsys_run(
            "count", "--db", db_path, "--index", idx_path,
            "--items", str(item),
        )
        assert code == 0
        assert f"exact={expected}" in out

    def test_constrained_count(self, generated, capsys_run):
        db_path, idx_path = generated
        code, out, _ = capsys_run(
            "count", "--db", db_path, "--index", idx_path,
            "--items", "1,2", "--tid-mod", "7",
        )
        assert code == 0
        assert "estimate=" in out


class TestExample:
    def test_replays_running_example(self, capsys_run):
        code, out, _ = capsys_run("example")
        assert code == 0
        assert "TID 100" in out
        assert "slice 0: 10010" in out
        assert "est count({0, 1}) = 2" in out
        assert "est count({1, 3}) = 3" in out


class TestErrors:
    def test_missing_db_is_reported(self, tmp_path, capsys_run):
        code, _, err = capsys_run(
            "index", "--db", str(tmp_path / "nope.tx"),
            "--out", str(tmp_path / "o.bbs"),
        )
        assert code == 1
        assert "error:" in err


class TestMineOut:
    def test_result_json_written(self, generated, capsys_run, tmp_path):
        db_path, idx_path = generated
        out = str(tmp_path / "result.json")
        code, stdout, _ = capsys_run(
            "mine", "--db", db_path, "--index", idx_path,
            "--min-support", "0.02", "--out", out,
        )
        assert code == 0
        assert "result written" in stdout
        from repro.core.results import MiningResult

        result = MiningResult.load_json(out)
        assert len(result) > 0

    def test_auto_algorithm(self, generated, capsys_run):
        db_path, idx_path = generated
        code, stdout, _ = capsys_run(
            "mine", "--db", db_path, "--index", idx_path,
            "--min-support", "0.02", "--algorithm", "auto",
        )
        assert code == 0
        assert "auto:" in stdout


class TestRulesCommand:
    def test_rules_from_saved_result(self, generated, capsys_run, tmp_path):
        db_path, idx_path = generated
        out = str(tmp_path / "result.json")
        capsys_run("mine", "--db", db_path, "--index", idx_path,
                   "--min-support", "0.02", "--out", out)
        code, stdout, _ = capsys_run(
            "rules", "--result", out, "--min-confidence", "0.5", "--top", "5",
        )
        assert code == 0
        assert "rules at confidence" in stdout


class TestVerifyCommand:
    def test_clean_result_passes(self, generated, capsys_run, tmp_path):
        db_path, idx_path = generated
        out = str(tmp_path / "result.json")
        capsys_run("mine", "--db", db_path, "--index", idx_path,
                   "--min-support", "0.05", "--out", out)
        code, stdout, _ = capsys_run(
            "verify", "--db", db_path, "--result", out,
        )
        assert code == 0
        assert "OK" in stdout

    def test_tampered_result_fails(self, generated, capsys_run, tmp_path):
        import json

        db_path, idx_path = generated
        out = tmp_path / "result.json"
        capsys_run("mine", "--db", db_path, "--index", idx_path,
                   "--min-support", "0.05", "--out", str(out))
        payload = json.loads(out.read_text())
        if payload["patterns"]:
            payload["patterns"][0]["count"] += 3
        out.write_text(json.dumps(payload))
        code, stdout, _ = capsys_run(
            "verify", "--db", db_path, "--result", str(out),
            "--skip-completeness",
        )
        assert code == 1
        assert "issue" in stdout


class TestImportCommand:
    def test_fimi_import(self, tmp_path, capsys_run):
        fimi = tmp_path / "in.dat"
        fimi.write_text("1 2 3\n2 3\n1 3\n")
        out = str(tmp_path / "out.tx")
        code, stdout, _ = capsys_run("import", "--fimi", str(fimi), "--out", out)
        assert code == 0
        assert "imported 3 transactions" in stdout
        from repro.data.diskdb import DiskDatabase

        with DiskDatabase(out) as db:
            assert len(db) == 3


class TestCheckDurabilityLine:
    def test_txfile_check_prints_durability_counters(
        self, generated, capsys_run
    ):
        db_path, _ = generated
        code, out, _ = capsys_run("check", db_path)
        assert code == 0
        assert "durability:" in out
        for counter in ("fsyncs=", "salvage_events=",
                        "torn_bytes_truncated="):
            assert counter in out

    def test_diskbbs_check_prints_durability_counters(
        self, tmp_path, capsys_run
    ):
        from repro.storage.diskbbs import DiskBBS

        path = tmp_path / "d.bbsd"
        with DiskBBS.create(path, m=64) as disk:
            disk.insert([1, 2])
            disk.insert([2, 3])
        code, out, _ = capsys_run("check", str(path))
        assert code == 0
        assert "durability:" in out and "fsyncs=" in out

    def test_repair_prints_durability_counters(self, generated, capsys_run):
        db_path, _ = generated
        code, out, _ = capsys_run("repair", db_path)
        assert code == 0
        assert "durability:" in out


class TestQueryCommand:
    @pytest.fixture
    def serving(self, generated):
        """The generated fixture index served on a background thread."""
        import json as _json

        from repro.core.bbs import BBS
        from repro.data.database import TransactionDatabase
        from repro.data.diskdb import DiskDatabase
        from repro.service.handlers import PatternService
        from repro.service.server import start_server_thread
        from repro.storage.metrics import IOStats

        db_path, idx_path = generated
        stats = IOStats()
        with DiskDatabase(db_path) as disk:
            database = TransactionDatabase(list(disk), stats=stats)
        index = BBS.load(idx_path, stats=stats)
        service = PatternService(database, index)
        with start_server_thread(service) as handle:
            yield database, index, handle, _json

    def test_count_round_trip(self, serving, capsys_run):
        database, index, handle, json = serving
        code, out, _ = capsys_run(
            "query", "--port", str(handle.port),
            "count", "--items", "3,17", "--exact",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["estimate"] == index.count_itemset([3, 17])
        assert payload["exact"] == database.support([3, 17])

    def test_append_and_status(self, serving, capsys_run):
        database, index, handle, json = serving
        n_before = len(database)
        code, out, _ = capsys_run(
            "query", "--port", str(handle.port), "append", "--items", "1,2,3"
        )
        assert code == 0
        assert json.loads(out)["n_transactions"] == n_before + 1
        code, out, _ = capsys_run(
            "query", "--port", str(handle.port), "status"
        )
        assert code == 0
        status = json.loads(out)
        assert status["n_transactions"] == n_before + 1
        assert status["epoch"] == index.epoch

    def test_mine_wait_prints_result(self, serving, capsys_run):
        _, _, handle, json = serving
        code, out, _ = capsys_run(
            "query", "--port", str(handle.port),
            "mine", "--min-support", "0.05", "--wait", "--top", "5",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["state"] == "done"
        assert payload["result"]["n_patterns"] >= 0
        assert len(payload["result"]["patterns"]) <= 5

    def test_metrics_round_trip(self, serving, capsys_run):
        _, _, handle, json = serving
        capsys_run("query", "--port", str(handle.port),
                   "count", "--items", "3")
        code, out, _ = capsys_run(
            "query", "--port", str(handle.port), "metrics"
        )
        assert code == 0
        metrics = json.loads(out)
        assert "io" in metrics and "latency" in metrics

    def test_connection_refused_is_exit_one(self, capsys_run):
        import socket

        # Grab a port that is definitely closed.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        code, _, err = capsys_run(
            "query", "--port", str(port), "health"
        )
        assert code == 1
        assert "connect" in err.lower() or "refused" in err.lower()


def _subparsers():
    """The subcommand parsers of the real CLI, by name."""
    import argparse

    from repro.cli import _build_parser

    (sub,) = [
        action for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return sub.choices


def _option_table(parser):
    """Every option of ``parser``: strings, default, required, choices,
    action kind and type."""
    return {
        action.dest: (
            tuple(action.option_strings), action.default, action.required,
            action.choices, type(action).__name__,
            getattr(action.type, "__name__", None),
        )
        for action in parser._actions
    }


_STORE, _TRUE, _APPEND = "_StoreAction", "_StoreTrueAction", "_AppendAction"

#: The options ``serve`` and ``shard-serve`` share (``shard-serve``
#: requires ``--db``).
_NODE_OPTIONS = {
    "help": (("-h", "--help"), "==SUPPRESS==", False, None, "_HelpAction",
             None),
    "db": (("--db",), None, False, None, _STORE, None),
    "index": (("--index",), None, False, None, _STORE, None),
    "m": (("--m",), 1600, False, None, _STORE, "int"),
    "k": (("--k",), 4, False, None, _STORE, "int"),
    "host": (("--host",), "127.0.0.1", False, None, _STORE, None),
    "port": (("--port",), 0, False, None, _STORE, "int"),
    "max_connections": (("--max-connections",), 64, False, None, _STORE,
                        "int"),
    "timeout": (("--timeout",), 30.0, False, None, _STORE, "float"),
    "cache_entries": (("--cache-entries",), 4096, False, None, _STORE, "int"),
    "track": (("--track",), None, False, None, _STORE, "int"),
    "scrub_interval": (("--scrub-interval",), 0.25, False, None, _STORE,
                       "float"),
    "follower": (("--follower",), None, False, None, _STORE, None),
    "read_queue": (("--read-queue",), 512, False, None, _STORE, "int"),
    "write_queue": (("--write-queue",), 256, False, None, _STORE, "int"),
    "mine_queue": (("--mine-queue",), 32, False, None, _STORE, "int"),
    "brownout_after": (("--brownout-after",), 4, False, None, _STORE, "int"),
    "brownout_recover": (("--brownout-recover",), 2.0, False, None, _STORE,
                         "float"),
}

_SERVE_ONLY_OPTIONS = {
    "primary": (("--primary",), False, False, None, _TRUE, None),
    "durable": (("--durable",), False, False, None, _TRUE, None),
    "supervise": (("--supervise",), False, False, None, _TRUE, None),
    "max_restarts": (("--max-restarts",), 16, False, None, _STORE, "int"),
    "standby": (("--standby",), None, False, None, _STORE, None),
    "router": (("--router",), False, False, None, _TRUE, None),
    "shard": (("--shard",), None, False, None, _APPEND, None),
    "shard_follower": (("--shard-follower",), None, False, None, _APPEND,
                       None),
    "shardmap": (("--shardmap",), None, False, None, _STORE, None),
}


class TestServeOptions:
    def test_serve_options_are_pinned(self):
        serve = _subparsers()["serve"]
        assert _option_table(serve) == {**_NODE_OPTIONS, **_SERVE_ONLY_OPTIONS}
        groups = [
            sorted(action.dest for action in group._group_actions)
            for group in serve._mutually_exclusive_groups
        ]
        assert groups == [["follower", "primary"]]

    def test_shard_serve_options_are_pinned(self):
        shard = _subparsers()["shard-serve"]
        assert _option_table(shard) == {
            **_NODE_OPTIONS,
            "db": (("--db",), None, True, None, _STORE, None),
        }

    @pytest.mark.parametrize("argv", [
        ["serve"], ["shard-serve", "--db", "d.tx"],
    ])
    def test_overload_defaults_are_the_admission_defaults(self, argv):
        import inspect

        from repro.cli import _build_parser
        from repro.service.server import (
            DEFAULT_ADMISSION_LIMITS,
            AdmissionController,
        )

        args = _build_parser().parse_args(argv)
        ctor = inspect.signature(AdmissionController).parameters
        assert args.read_queue == DEFAULT_ADMISSION_LIMITS["read"].max_queue
        assert args.write_queue == DEFAULT_ADMISSION_LIMITS["write"].max_queue
        assert args.mine_queue == ctor["mine_backlog"].default
        assert args.brownout_after == ctor["brownout_after"].default
        assert args.brownout_recover == ctor["brownout_recover_s"].default


class TestServeBoot:
    def test_boot_reads_the_journal_once_and_keeps_its_tids(
        self, tmp_path, monkeypatch
    ):
        import asyncio

        from repro.cli import _build_parser, _open_service
        from repro.service.handlers import PatternService
        from repro.service.resilience import TOKEN_MIN
        from repro.storage.txfile import (
            TransactionFileReader,
            TransactionFileWriter,
        )

        path = tmp_path / "journal.tx"
        records = [
            ([1, 2], None), ([2, 3], TOKEN_MIN + 7), ([3, 4], None),
            ([1, 4], TOKEN_MIN + 9), ([2, 4], None),
        ]
        with TransactionFileWriter(path) as writer:
            for items, tid in records:
                writer.append(items, tid=tid)
        with TransactionFileReader(path) as reader:
            journal_tids = [tid for _, tid, _ in reader.scan()]
        assert journal_tids == [0, TOKEN_MIN + 7, 2, TOKEN_MIN + 9, 4]

        scans = []
        real_scan = TransactionFileReader.scan

        def counted_scan(reader):
            scans.append(reader.path)
            return real_scan(reader)

        monkeypatch.setattr(TransactionFileReader, "scan", counted_scan)
        service = _open_service(_build_parser().parse_args([
            "serve", "--durable", "--db", str(path), "--m", "64",
        ]))
        try:
            assert scans == [path]
            assert [
                service.database.tid(p) for p in range(len(records))
            ] == journal_tids
            replay = asyncio.run(PatternService._OPS["append"](
                service, {"items": [1, 4], "token": TOKEN_MIN + 9}
            ))
            assert replay["deduped"] is True
            assert replay["position"] == 3
            assert len(service.database) == len(records)
        finally:
            service.close()

    def test_index_ahead_of_its_journal_exits_1(self, tmp_path, capsys_run):
        import re

        from repro.storage.diskbbs import DiskBBS
        from repro.storage.txfile import TransactionFileWriter

        transactions = [[i % 5 + 1, i % 3 + 10] for i in range(11)]
        db_path = tmp_path / "short.tx"
        with TransactionFileWriter(db_path) as writer:
            for items in transactions[:7]:
                writer.append(items)
        idx_path = tmp_path / "long.bbsd"
        with DiskBBS.create(idx_path, m=64) as index:
            for items in transactions:
                index.insert(items)
        code, _, err = capsys_run(
            "serve", "--durable", "--db", str(db_path),
            "--index", str(idx_path), "--port", "0", "--scrub-interval", "0",
        )
        assert code == 1
        message = err.replace(str(tmp_path), "")
        assert re.search(r"\b7\b", message), err
        assert re.search(r"\b11\b", message), err
