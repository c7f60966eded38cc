"""RPR004/RPR005 — event-loop serialisation and worker determinism.

**RPR004** guards the serving layer's lock-free concurrency model
(``service/handlers.py`` docstring): all shared-index mutation happens
on the event loop, so ``count`` and ``append`` serialise by
construction.  A ``self.index.insert(...)`` / ``self.miner.insert(...)``
reachable from a *sync* function in ``handlers.py``/``scrubber.py`` is
exactly how that model breaks — a worker thread would interleave with a
half-applied insert.  Direct writes to an index's ``epoch``/``_epoch``
are flagged for the same reason: the epoch is the cache-freshness token
and must only advance inside the index's own serialised ``insert``.
Functions that *are* only ever called from the loop (recovery helpers)
are documented false positives — baseline them with the call-path
justification rather than weakening the rule.

**RPR005** guards the parallel layer's determinism promise
(``core/parallel.py`` docstring, DESIGN.md): identical results and
statistics for any ``workers=N``.  Iterating a ``set``/``frozenset`` to
build worker partitions or merge order breaks it silently — Python set
order varies across processes with hash randomisation.  The rule flags
``for``/comprehension iteration directly over set expressions in
partitioning modules; wrap them in ``sorted(...)``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import ModuleContext, Rule, call_name
from repro.analysis.findings import Finding

#: Receivers whose .insert() mutates event-loop-shared state.
_SHARED_RECEIVERS = {"index", "miner"}
_EPOCH_ATTRS = {"epoch", "_epoch"}


class UnserialisedIndexMutation(Rule):
    id = "RPR004"
    name = "unserialised-index-mutation"
    severity = "error"
    rationale = (
        "shared-index mutation off the event loop races the lock-free "
        "count/append handlers"
    )

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.rel_path.endswith(
            ("service/handlers.py", "service/scrubber.py")
        )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                yield from self._check_insert(ctx, node)
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                yield from self._check_epoch_write(ctx, node)

    def _check_insert(
        self, ctx: ModuleContext, call: ast.Call
    ) -> Iterator[Finding]:
        func = call.func
        if not (isinstance(func, ast.Attribute) and func.attr == "insert"):
            return
        receiver = func.value
        if isinstance(receiver, ast.Attribute):
            name = receiver.attr
        elif isinstance(receiver, ast.Name):
            name = receiver.id
        else:
            return
        if name not in _SHARED_RECEIVERS:
            return
        if ctx.in_async_function(call):
            return  # on the loop: serialised by construction
        yield self.finding(
            ctx,
            call,
            f"{name}.insert() outside an async (event-loop) scope; shared "
            f"index mutation must serialise through the loop — if this "
            f"helper is only called from a coroutine, baseline it with "
            f"that call path as justification",
        )

    def _check_epoch_write(
        self, ctx: ModuleContext, stmt: ast.Assign | ast.AugAssign
    ) -> Iterator[Finding]:
        targets = (
            stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        )
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and target.attr in _EPOCH_ATTRS
            ):
                yield self.finding(
                    ctx,
                    stmt,
                    f"direct write to .{target.attr} bypasses the index's "
                    f"serialised insert path; the epoch is the cache "
                    f"freshness token and must advance with the mutation "
                    f"it describes",
                )


class NondeterministicPartitioning(Rule):
    id = "RPR005"
    name = "nondeterministic-partitioning"
    severity = "error"
    rationale = (
        "set iteration order varies across processes; partitioning from "
        "it breaks the workers=N determinism promise"
    )

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.rel_path.endswith("parallel.py")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            iters: list[ast.AST] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
            ):
                iters.extend(gen.iter for gen in node.generators)
            for target in iters:
                if self._is_set_expr(target):
                    yield self.finding(
                        ctx,
                        target,
                        "iteration over a set feeds worker partitioning; "
                        "set order is nondeterministic across processes — "
                        "wrap the iterable in sorted(...)",
                    )

    @staticmethod
    def _is_set_expr(expr: ast.AST) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        return isinstance(expr, ast.Call) and call_name(expr) in (
            "set",
            "frozenset",
        )
