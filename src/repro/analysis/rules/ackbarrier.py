"""RPR013 — ACK reachable after a buffered durable write, before its barrier.

The durability contract (DESIGN.md, ``storage/`` docstrings) is
*fsync-before-ACK*: once a success frame leaves the server, the write it
acknowledges must survive power loss — journal append, then ``sync()``,
then respond.  RPR001 checks the write/barrier pairing syntactically
inside one function; this rule checks the *ordering against the ACK*,
on every CFG path including exception edges: a ``write_frame`` that is
reachable after a buffered durable write without crossing a *completed*
barrier is an ACK the crash can orphan.

Path semantics matter here: a barrier call that **raises** did not act
as a barrier, so paths escaping a ``sync()`` through its exception edge
(into an ``except`` that answers the client anyway) still fire.  Helper
calls are traced through the call graph: a call to a helper that
transitively emits frames counts as an ACK site, and a call to a helper
that performs the barrier counts as a barrier.  A helper that both
writes and barriers internally (``apply_replicated``) is treated as a
barrier, not as an open write — its internal ordering is its own
function's obligation.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import (
    FlowRule,
    ModuleContext,
    call_name,
    dotted_name,
)
from repro.analysis.findings import Finding
from repro.analysis.flow.callgraph import FunctionInfo
from repro.analysis.flow.cfg import iter_stmt_nodes
from repro.analysis.flow.program import ProgramContext

#: Barrier call names (mirrors RPR001's vocabulary).
_BARRIER_NAMES = {
    "fsync",
    "fsync_file",
    "fsync_path",
    "fsync_dir",
    "sync",
    "fdatasync",
    "durable_replace",
    "durable_write_bytes",
}

#: Frame-emitting calls: the ACK leaves through one of these.
_ACK_NAMES = {"write_frame", "write_frame_nowait", "write_frame_sock"}

#: Receiver-name fragments marking a buffered *durable* write target.
_DURABLE_RECEIVERS = {"journal", "log", "wal"}


def _is_durable_write(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    name = call_name(node)
    func = node.func
    if isinstance(func, ast.Attribute):
        chain = set(dotted_name(func.value).split("."))
        if name in ("append", "write", "write_all") and (
            chain & _DURABLE_RECEIVERS
        ):
            return True
        if name in ("write", "pwrite") and "os" in chain:
            return True
    elif isinstance(func, ast.Name) and name == "write_all":
        return True
    return False


def _is_barrier(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and call_name(node) in _BARRIER_NAMES


def _is_ack(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and call_name(node) in _ACK_NAMES


def _function_acks(info: FunctionInfo) -> bool:
    return any(_is_ack(node) for node in info.ctx.body_nodes(info.node))


def _function_barriers(info: FunctionInfo) -> bool:
    return any(_is_barrier(node) for node in info.ctx.body_nodes(info.node))


class AckBeforeBarrier(FlowRule):
    id = "RPR013"
    name = "ack-before-barrier"
    severity = "error"
    rationale = (
        "a response frame reachable after a buffered durable write but "
        "before its fsync barrier acknowledges data a crash can lose"
    )

    def applies_to(self, ctx: ModuleContext) -> bool:
        return "storage/" in ctx.rel_path or "service/" in ctx.rel_path

    def check_flow(
        self, program: ProgramContext, ctx: ModuleContext
    ) -> Iterator[Finding]:
        graph = program.callgraph
        acking_fids = program.cache(
            "rpr013.acking", lambda: graph.transitive(_function_acks)
        )
        barrier_fids = program.cache(
            "rpr013.barrier", lambda: graph.transitive(_function_barriers)
        )
        for func in ctx.functions():
            yield from self._check_function(
                program, ctx, func, acking_fids, barrier_fids
            )

    def _check_function(
        self,
        program: ProgramContext,
        ctx: ModuleContext,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        acking_fids: set[str],
        barrier_fids: set[str],
    ) -> Iterator[Finding]:
        cfg = program.cfg(func)
        writes: list[int] = []
        barriers: set[int] = set()
        acks: list[tuple[int, ast.AST]] = []
        for node in cfg.stmt_nodes():
            stmt = node.stmt
            if stmt is None:
                continue
            is_write = is_barrier = is_ack = False
            for sub in iter_stmt_nodes(stmt):
                if not isinstance(sub, ast.Call):
                    continue
                if _is_barrier(sub):
                    is_barrier = True
                elif _is_durable_write(sub):
                    is_write = True
                elif _is_ack(sub):
                    is_ack = True
                else:
                    callee = program.callgraph.resolve_call(ctx, func, sub)
                    if callee is None:
                        continue
                    if callee in barrier_fids:
                        # Helpers that barrier internally discharge the
                        # obligation even if they also write.
                        is_barrier = True
                    elif callee in acking_fids:
                        is_ack = True
            if is_barrier:
                barriers.add(node.idx)
            elif is_write:
                writes.append(node.idx)
            if is_ack and not is_barrier:
                acks.append((node.idx, stmt))
        if not writes or not acks:
            return
        for ack_idx, stmt in acks:
            if any(
                cfg.reaches(
                    w, ack_idx, blocked=lambda i: i in barriers
                )
                for w in writes
            ):
                yield self.finding(
                    ctx,
                    stmt,
                    "response frame reachable after a buffered durable "
                    "write with no completed fsync/commit barrier on the "
                    "path (exception edges count: a sync() that raises "
                    "did not act as a barrier) — barrier first, then ACK",
                )
