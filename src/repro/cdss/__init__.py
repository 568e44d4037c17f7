"""Collaborative data sharing layer: schema mappings, update exchange,
reconciliation, participants and the Orchestra facade."""

from .mappings import ImportDelta, SchemaMapping, UpdateExchange
from .participant import ImportReport, Orchestra, Participant, share_relations
from .reconciliation import (
    CandidateUpdate,
    Conflict,
    Reconciler,
    ReconciliationOutcome,
    candidates_from_rows,
)
from .replica import KeyedRelation

__all__ = [
    "CandidateUpdate",
    "Conflict",
    "ImportDelta",
    "ImportReport",
    "KeyedRelation",
    "Orchestra",
    "Participant",
    "Reconciler",
    "ReconciliationOutcome",
    "SchemaMapping",
    "UpdateExchange",
    "candidates_from_rows",
    "share_relations",
]
