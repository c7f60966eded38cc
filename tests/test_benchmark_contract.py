"""What the end-to-end benchmark under ``perfbench/`` binds to in ``src/``.

The traced benchmark wraps named functions and methods in place
(``perfbench/spans.py`` ``TARGETS``, plus each service class's own
``handle``), and every round it reads counters out of ``metrics``
answers (``perfbench/workloads.py`` ``service_counters`` and
``router_counters``).  A renamed target or a dropped metrics key would
otherwise fail only a benchmark run.  These tests import the
benchmark's modules and change none of its files.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

from repro.core.bbs import BBS
from repro.service.client import ServiceClient
from repro.service.handlers import PatternService
from repro.service.server import start_server_thread
from repro.service.shard.router import ShardRouter
from repro.service.shard.shardmap import build_map
from tests.conftest import make_random_database

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """Import a benchmark module by name, writing no bytecode beside it."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    return importlib.import_module


def test_every_span_target_resolves_as_the_tracer_installs_it(perfbench):
    spans = perfbench("spans")
    for module_name, attr, _name, _measure in spans.TARGETS:
        module = importlib.import_module(module_name)
        owner, _, fname = attr.rpartition(".")
        if owner:
            # Tracer.install wraps the class's own attribute, not an
            # inherited one.
            assert fname in getattr(module, owner).__dict__, f"{module_name}.{attr}"
        else:
            assert callable(getattr(module, fname)), f"{module_name}.{attr}"
    for cls in (PatternService, ShardRouter):
        assert "handle" in cls.__dict__, cls.__name__


def _node(seed):
    db = make_random_database(seed=seed, n_transactions=120, n_items=20, max_len=6)
    return PatternService(db, BBS.from_database(db, m=128))


def test_node_metrics_feed_service_counters(perfbench):
    workloads = perfbench("workloads")
    with start_server_thread(_node(3)) as handle:
        with ServiceClient(handle.host, handle.port) as client:
            before = client.request("metrics", {})
            client.count_batch([[1, 2], [3], [2, 1]])
            client.count([3])
            after = client.request("metrics", {})
    counters = workloads.service_counters(before, after)
    assert counters["batcher.batches"] == 1
    assert counters["batcher.requests"] == 3
    assert counters["batcher.coalesced"] == 1
    assert counters["batcher.slice_ands"] > 0
    assert counters["cache.hits"] == 1
    assert counters["overload.sheds"] == 0


def test_router_metrics_feed_router_counters(perfbench):
    workloads = perfbench("workloads")
    shards = [start_server_thread(_node(seed)) for seed in (4, 5)]
    try:
        shard_map = build_map(
            [("127.0.0.1", handle.port) for handle in shards],
            [len(handle.server.service.database) for handle in shards],
        )
        with start_server_thread(ShardRouter(shard_map)) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                before = client.request("metrics", {})
                client.count([1, 2])
                after = client.request("metrics", {})
    finally:
        for handle in shards:
            handle.stop()
    assert workloads.router_counters(before, after) == {
        "router.link_retries": 0,
        "overload.sheds": 0,
    }
