"""Reconciliation: conflict detection and trust-based resolution.

In a CDSS, conflicts between participants' updates are not prevented by
locking: each participant makes updates against its own replica and conflicts
are detected and resolved *at import time* (Section II; reference [2]).  A
conflict arises when two participants publish different values for the same
key of the same relation within the window the importer is reconciling.

The resolution policy reproduced here is the priority (trust) scheme of the
ORCHESTRA reconciliation work: the importing participant assigns a priority to
every publisher; the highest-priority value wins, ties are broken
deterministically (lexicographically smallest value), and unresolvable
conflicts can optionally be deferred (left unapplied) instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from ..common.errors import ReconciliationError
from ..common.types import Schema, Value


@dataclass(frozen=True)
class CandidateUpdate:
    """One participant's proposed value for a target tuple."""

    relation: str
    key: tuple[Value, ...]
    values: tuple[Value, ...]
    publisher: str


@dataclass
class Conflict:
    """Two or more distinct proposed values for the same key."""

    relation: str
    key: tuple[Value, ...]
    candidates: list[CandidateUpdate]

    def publishers(self) -> list[str]:
        return [candidate.publisher for candidate in self.candidates]


@dataclass
class ReconciliationOutcome:
    """Accepted values plus the conflicts that were detected along the way.

    ``accepted`` holds one winner per ``(relation, key)`` group among the
    candidates offered.  A participant's import offers only the keys it
    touched (see :meth:`Participant.import_updates`), so there ``accepted``
    covers those keys, not the whole replica.
    """

    accepted: dict[tuple[str, tuple[Value, ...]], CandidateUpdate] = field(default_factory=dict)
    conflicts: list[Conflict] = field(default_factory=list)
    deferred: list[Conflict] = field(default_factory=list)

    def accepted_rows(self, relation: str) -> list[tuple[Value, ...]]:
        return [
            candidate.values
            for (rel, _key), candidate in sorted(self.accepted.items(), key=lambda kv: kv[0])
            if rel == relation
        ]


class Reconciler:
    """Trust-priority based conflict resolution for one importing participant."""

    def __init__(self, priorities: Mapping[str, int], defer_unresolved: bool = False) -> None:
        self.priorities = dict(priorities)
        self.defer_unresolved = defer_unresolved

    def priority_of(self, publisher: str) -> int:
        return self.priorities.get(publisher, 0)

    def reconcile(self, candidates: Iterable[CandidateUpdate]) -> ReconciliationOutcome:
        """Group candidate updates by (relation, key), detect conflicts and pick winners."""
        outcome = ReconciliationOutcome()
        grouped: dict[tuple[str, tuple[Value, ...]], list[CandidateUpdate]] = {}
        for candidate in candidates:
            grouped.setdefault((candidate.relation, candidate.key), []).append(candidate)

        for group_key, group in sorted(grouped.items(), key=lambda kv: repr(kv[0])):
            distinct_values = {candidate.values for candidate in group}
            if len(distinct_values) == 1:
                outcome.accepted[group_key] = group[0]
                continue
            conflict = Conflict(group[0].relation, group[0].key, sorted(group, key=lambda c: c.publisher))
            outcome.conflicts.append(conflict)
            winner = self._resolve(conflict)
            if winner is None:
                outcome.deferred.append(conflict)
            else:
                outcome.accepted[group_key] = winner
        return outcome

    def _resolve(self, conflict: Conflict) -> CandidateUpdate | None:
        best_priority = max(self.priority_of(c.publisher) for c in conflict.candidates)
        best = [c for c in conflict.candidates if self.priority_of(c.publisher) == best_priority]
        distinct_best_values = {c.values for c in best}
        if len(distinct_best_values) == 1:
            return best[0]
        if self.defer_unresolved:
            return None
        # Deterministic tie-break so every participant resolves identically.
        return min(best, key=lambda c: (repr(c.values), c.publisher))


def candidates_from_rows(
    relation: Schema, rows_by_publisher: Mapping[str, Iterable[tuple[Value, ...]]]
) -> list[CandidateUpdate]:
    """Build candidate updates from per-publisher row sets (helper for tests
    and for participants importing from several peers)."""
    candidates = []
    for publisher, rows in rows_by_publisher.items():
        for values in rows:
            values = tuple(values)
            if len(values) != relation.arity:
                raise ReconciliationError(
                    f"row {values!r} does not match schema {relation.name!r}"
                )
            candidates.append(
                CandidateUpdate(relation.name, relation.key_of(values), values, publisher)
            )
    return candidates
