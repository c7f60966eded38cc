"""The pattern query service: a long-lived serving layer over BBS.

The paper's index is *dynamic and persistent* (§3.4) — it absorbs
appends without a rebuild — yet a batch CLI re-opens it for every
query.  This package keeps the index resident instead and serves
concurrent clients over a tiny length-prefixed JSON protocol:

* :mod:`repro.service.protocol` — wire frames (requests, responses,
  typed errors) plus sync and asyncio codecs;
* :mod:`repro.service.cache` — the epoch-keyed LRU result cache and
  the batcher that counts one request's cache misses in one
  vectorised AND pass;
* :mod:`repro.service.handlers` — the operations (``count``,
  ``append``, ``mine`` jobs, ``status``/``metrics``/``health``) bound
  to a resident database + index;
* :mod:`repro.service.server` — the asyncio TCP server: admission
  limits, per-request timeouts, graceful drain on SIGTERM;
* :mod:`repro.service.client` — the blocking client used by the CLI,
  the tests, and the CI smoke script;
* :mod:`repro.service.resilience` — the retrying idempotent client,
  circuit breaker, and the server-side idempotency token window;
* :mod:`repro.service.scrubber` — background incremental verification
  of the served bytes, with quarantine on findings;
* :mod:`repro.service.supervisor` — ``serve --supervise``: restart a
  crashed worker after storage salvage, or fail over to a standby;
* :mod:`repro.service.replication` — journal-tailing replication:
  follower bootstrap (snapshot shipping + journal catch-up), the
  serving-loop tailer, and promotion to primary;
* :mod:`repro.service.shard` — scatter-gather sharding: a persisted
  range assignment (:class:`ShardMap`), exact merge semantics, and the
  asyncio router that serves the unchanged wire protocol over N shard
  servers.

See DESIGN.md ("Service layer", "Failure model") and
docs/wire_protocol.md.
"""

from repro.service.cache import CountCache, MicroBatcher, canonical_itemset
from repro.service.client import ServiceClient
from repro.service.handlers import PatternService
from repro.service.replication import (
    FollowerTailer,
    ReplicationLog,
    ReplicationState,
    bootstrap_follower,
    parse_address,
    salvage_journal,
)
from repro.service.resilience import (
    CircuitBreaker,
    IdempotencyWindow,
    RetryingClient,
    RetryPolicy,
)
from repro.service.scrubber import Scrubber
from repro.service.server import PatternServer, start_server_thread
from repro.service.shard import ShardEntry, ShardMap, ShardRouter, build_map

__all__ = [
    "CircuitBreaker",
    "CountCache",
    "FollowerTailer",
    "IdempotencyWindow",
    "MicroBatcher",
    "PatternServer",
    "PatternService",
    "ReplicationLog",
    "ReplicationState",
    "RetryPolicy",
    "RetryingClient",
    "Scrubber",
    "ServiceClient",
    "ShardEntry",
    "ShardMap",
    "ShardRouter",
    "bootstrap_follower",
    "build_map",
    "canonical_itemset",
    "parse_address",
    "salvage_journal",
    "start_server_thread",
]
