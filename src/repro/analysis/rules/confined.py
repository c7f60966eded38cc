"""RPR008/RPR009/RPR010 — calls confined to their sanctioned module.

Three invariants share one shape: within one part of the tree, a family
of calls may appear only in the module that owns the machinery around
them — journal writes in the replication log (RPR008), process pools in
``core/pool.py`` (RPR009), outbound dials in the router and the clients
(RPR010).  docs/static_analysis.md gives each rule's argument.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from repro.analysis.engine import ModuleContext, Rule, call_name, dotted_name
from repro.analysis.findings import Finding


@dataclass(frozen=True, kw_only=True)
class ConfinedCall(Rule):
    """Flags ``calls`` in ``scope`` modules outside the ``sanctioned`` ones.

    A call matches on its final dotted component; ``per_function`` rules
    scan function bodies, the others the whole module.  ``message`` is
    formatted with ``dotted``, ``name`` and ``func``.
    """

    id: str
    name: str
    rationale: str
    scope: str
    sanctioned: tuple[str, ...]
    calls: frozenset[str]
    message: str
    per_function: bool
    severity: str = "error"

    def applies_to(self, ctx: ModuleContext) -> bool:
        return self.scope in ctx.rel_path and not ctx.rel_path.endswith(
            self.sanctioned
        )

    def _sites(self, ctx: ModuleContext) -> Iterator[tuple[str, ast.AST]]:
        if not self.per_function:
            for node in ast.walk(ctx.tree):
                yield "", node
            return
        for func in ctx.functions():
            for node in ctx.body_nodes(func):
                yield func.name, node

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for func, node in self._sites(ctx):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name in self.calls:
                yield self.finding(
                    ctx,
                    node,
                    self.message.format(
                        dotted=dotted_name(node.func) or name,
                        name=name,
                        func=func,
                    ),
                )


JOURNAL_WRITE_OUTSIDE_LOG = ConfinedCall(
    id="RPR008",
    name="journal-write-outside-replication-log",
    rationale=(
        "service-layer journal mutations must go through the "
        "ReplicationLog API, or the journal can diverge from the served "
        "database that replicate reads its records from"
    ),
    scope="service/",
    sanctioned=("service/replication.py",),
    calls=frozenset({"TransactionFileWriter", "salvage_txfile"}),
    message=(
        "{dotted} called in {func}(): service-layer journal writes must "
        "go through repro.service.replication.ReplicationLog "
        "(append/salvage), not the raw txfile API"
    ),
    per_function=True,
)

UNSANCTIONED_POOL_SPAWN = ConfinedCall(
    id="RPR009",
    name="unsanctioned-pool-spawn",
    rationale=(
        "per-call executor spawns repay the pool-startup tax that made "
        "parallel mining lose wall-clock, and bypass WorkerPool's crash "
        "handling and shared-memory cleanup"
    ),
    scope="core/",
    sanctioned=("core/pool.py",),
    calls=frozenset({"ProcessPoolExecutor", "Pool"}),
    message=(
        "{name}(...) spawned outside core/pool.py; core code must reuse "
        "repro.core.pool.WorkerPool so pools persist across calls and "
        "crashes tear down shared memory"
    ),
    per_function=False,
)

SHARD_FANOUT_OUTSIDE_ROUTER = ConfinedCall(
    id="RPR010",
    name="shard-fanout-outside-router",
    rationale=(
        "service modules must not open their own connections; shard "
        "fan-out belongs to the router (breakers, failover, range "
        "accounting) and caller transport to the sanctioned clients"
    ),
    scope="service/",
    sanctioned=("service/shard/router.py", "service/client.py"),
    calls=frozenset({"open_connection", "create_connection", "socket"}),
    message=(
        "{dotted} called in {func}(): service modules must not dial "
        "connections themselves — shard fan-out goes through "
        "service/shard/router.py and client transport through "
        "service/client.py"
    ),
    per_function=True,
)
