"""The rule registry: every repo invariant the linter enforces.

Rule ids are stable (``RPR001``...) and referenced by noqa comments and
baseline entries; never renumber an existing rule.
"""

from __future__ import annotations

from repro.analysis.engine import Rule
from repro.analysis.rules.ackbarrier import AckBeforeBarrier
from repro.analysis.rules.asyncsafety import BlockingCallInAsync
from repro.analysis.rules.concurrency import (
    NondeterministicPartitioning,
    UnserialisedIndexMutation,
)
from repro.analysis.rules.confined import (
    JOURNAL_WRITE_OUTSIDE_LOG,
    SHARD_FANOUT_OUTSIDE_ROUTER,
    UNSANCTIONED_POOL_SPAWN,
)
from repro.analysis.rules.deadlines import UndisciplinedDial
from repro.analysis.rules.durability import UnfsyncedDurableWrite
from repro.analysis.rules.errorhygiene import (
    StorageErrorContext,
    SwallowedException,
)
from repro.analysis.rules.estimates import EstimateSoundness
from repro.analysis.rules.interleaving import AwaitInterleavingRace
from repro.analysis.rules.lifecycle import UnreleasedPoolOrShm
from repro.analysis.rules.loadsafety import UnboundedAwaitInService

#: One instance per rule, in id order.
ALL_RULES: list[Rule] = [
    UnfsyncedDurableWrite(),
    BlockingCallInAsync(),
    StorageErrorContext(),
    UnserialisedIndexMutation(),
    NondeterministicPartitioning(),
    SwallowedException(),
    EstimateSoundness(),
    JOURNAL_WRITE_OUTSIDE_LOG,
    UNSANCTIONED_POOL_SPAWN,
    SHARD_FANOUT_OUTSIDE_ROUTER,
    UnboundedAwaitInService(),
    AwaitInterleavingRace(),
    AckBeforeBarrier(),
    UnreleasedPoolOrShm(),
    UndisciplinedDial(),
]


def rules_by_id(ids: list[str] | None = None) -> list[Rule]:
    """The registered rules, optionally filtered to ``ids``.

    Unknown ids raise ``ValueError`` so a typoed ``--rule RPR0010`` is
    an error, not a silently empty scan.
    """
    if not ids:
        return list(ALL_RULES)
    known = {rule.id: rule for rule in ALL_RULES}
    unknown = [rule_id for rule_id in ids if rule_id not in known]
    if unknown:
        raise ValueError(
            f"unknown rule id(s) {unknown}; known: {sorted(known)}"
        )
    return [known[rule_id] for rule_id in ids]


__all__ = ["ALL_RULES", "rules_by_id"]
