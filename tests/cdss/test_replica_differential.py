"""The keyed CDSS cycle against the list-walking one it replaced.

``Participant`` keeps its replica keyed, reconciles only the keys an import
touched and applies them by key; a publish looks previous versions up in a
per-page map.  None of that may change what the system does.  Seeded random
sequences of inserts, modifies, deletes, curated rows, publishes and imports
run once on the new code and once on the references kept under ``tests/`` —
``reference_participant.py`` (replica as a row list, whole-replica
reconciliation) with ``reference_find_current.py`` (the page walk) patched
into the publish — and every observation must agree:

* every replica's rows, in order, after every step;
* each import's ``ImportDelta``s, ``conflicts`` and ``deferred`` (and each
  value the new ``accepted`` holds is the one the reference accepted);
* every page version each publish wrote, with its tuple IDs in order.

Two publishers (A, B) feed one importer (C) through a projection, a join,
and a second projection into the same target, so two deltas share a
relation and imported rows conflict with each other as well as with C's own.
Editing one key twice before a publish puts two equal-epoch IDs on a page,
which the next edit of that key must look up.
"""

import importlib.util
import itertools
import random
from pathlib import Path

import pytest

from reference_participant import ReferenceParticipant

from repro.cdss import Orchestra, Participant, SchemaMapping
from repro.cdss.reconciliation import Reconciler
from repro.common.types import Schema
from repro.query.expressions import col
from repro.storage.client import _PublishOperation


def _load_reference_find_current():
    path = Path(__file__).resolve().parents[1] / "storage" / "reference_find_current.py"
    spec = importlib.util.spec_from_file_location("reference_find_current", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.reference_find_current_id


reference_find_current_id = _load_reference_find_current()

SITE_A = Schema("SiteA", ["a_id", "a_name", "a_group"], key=["a_id"])
SITE_B = Schema("SiteB", ["b_id", "b_ref", "b_kind"], key=["b_id"])
COPY = Schema("Copy", ["c_id", "c_label"], key=["c_id"])
JOINED = Schema("Joined", ["j_id", "j_name", "j_kind"], key=["j_id"])
MAPPINGS = [
    SchemaMapping("copy_a", COPY, [SITE_A], outputs=[("c_id", col("a_id")), ("c_label", col("a_name"))]),
    SchemaMapping("join_ab", JOINED, [SITE_B, SITE_A], join=[("b_ref", "a_id")], outputs=[
        ("j_id", col("b_id")), ("j_name", col("a_name")), ("j_kind", col("b_kind")),
    ]),
    SchemaMapping("copy_b", COPY, [SITE_B], outputs=[("c_id", col("b_id")), ("c_label", col("b_kind"))]),
]
RECONCILERS = {
    "imports_win": lambda: Reconciler({"import": 10, "C": 1}),
    "local_wins": lambda: Reconciler({"C": 10, "import": 1}),
    "tie_deferred": lambda: Reconciler({}, defer_unresolved=True),
}
KEYS = range(24)
STEPS = 120


def run_cycle(participant_cls, reconciler: str, seed: int, script: list | None, monkeypatch):
    """Run one seeded sequence and return ``(observations, script)``.

    Without ``script`` the steps are drawn from the seed, from the state the
    run sees, and recorded; with one, the recorded steps are replayed.
    """
    pages_written = []
    write_version = _PublishOperation._write_version

    def recording_write_version(self, refs, new_pages, new_tuples):
        pages_written.append((self.relation, self.epoch, list(refs), [
            (page.page_id, list(page.tuple_ids)) for page in new_pages
        ]))
        return write_version(self, refs, new_pages, new_tuples)

    monkeypatch.setattr(_PublishOperation, "_write_version", recording_write_version)

    orchestra = Orchestra(num_nodes=4)
    a = orchestra.add_participant(participant_cls("A", [SITE_A]))
    b = orchestra.add_participant(participant_cls("B", [SITE_B]))
    c = orchestra.add_participant(participant_cls("C", [COPY, JOINED], mappings=MAPPINGS))
    c.reconciler = RECONCILERS[reconciler]()
    rng = random.Random(seed)
    recorded = []
    observations = []

    def held(participant, relation):
        return [row[0] for row in participant.local_database[relation].rows]

    def draw():
        kind = rng.choices(
            ["insert", "modify", "modify_twice", "delete", "curate", "edit_c", "publish", "import"],
            weights=[6, 6, 1, 2, 1, 1, 3, 2],
        )[0]
        site, relation = rng.choice([(a, "SiteA"), (b, "SiteB")])
        keys = held(site, relation)
        if kind == "insert":
            free = [key for key in KEYS if key not in keys]
            return ("insert", site.name, relation, random_row(relation, rng.choice(free))) if free else None
        if kind in ("modify", "modify_twice"):
            if not keys:
                return None
            key = rng.choice(keys)
            return (kind, site.name, relation, random_row(relation, key), random_row(relation, key))
        if kind == "delete":
            return ("delete", site.name, relation, rng.choice(keys + [99]))
        if kind in ("curate", "edit_c"):
            target = rng.choice(["Copy", "Joined"])
            c_keys = held(c, target)
            if kind == "curate":
                free = [key for key in KEYS if key not in c_keys]
                return ("curate", target, random_row(target, rng.choice(free))) if free else None
            return ("edit_c", target, random_row(target, rng.choice(c_keys))) if c_keys else None
        if kind == "publish":
            return ("publish", rng.choice(["A", "B", "C"]))
        return ("import",)

    def random_row(relation, key):
        if relation == "SiteA":
            return (key, f"n{rng.randrange(4)}", rng.randrange(3))
        if relation == "SiteB":
            return (key, rng.choice(list(KEYS)), rng.choice("uvw"))
        if relation == "Copy":
            return (key, rng.choice(["n0", "n1", "u", "curated"]))
        return (key, f"n{rng.randrange(4)}", "curated")

    participants = {"A": a, "B": b, "C": c}
    if script is None:
        # Both sources must exist before the first import can run its mappings.
        opening = [("insert", "A", "SiteA", random_row("SiteA", key)) for key in KEYS[:12]]
        opening += [("insert", "B", "SiteB", random_row("SiteB", key)) for key in KEYS[:12]]
        opening += [("publish", "A"), ("publish", "B"), ("import",)]
        script = itertools.chain(opening, (draw() for _ in range(STEPS)))
    for step in script:
        if step is None:
            continue
        recorded.append(step)
        kind = step[0]
        if kind == "insert":
            participants[step[1]].insert(step[2], *step[3])
        elif kind == "modify":
            participants[step[1]].modify(step[2], *step[3])
        elif kind == "modify_twice":
            participants[step[1]].modify(step[2], *step[3])
            participants[step[1]].modify(step[2], *step[4])
        elif kind == "delete":
            participants[step[1]].delete(step[2], step[3])
        elif kind == "curate":
            c.local_database[step[1]].add(*step[2])
        elif kind == "edit_c":
            c.modify(step[1], *step[2])
        elif kind == "publish":
            observations.append(("epoch", participants[step[1]].publish()))
        else:
            report = c.import_updates()
            outcome = report.reconciliation
            observations.append(("import", report.epoch, report.deltas, outcome.conflicts, outcome.deferred))
            observations.append(("accepted", outcome.accepted))
        observations.append(("replicas", [
            (name, relation, list(data.rows))
            for name, participant in participants.items()
            for relation, data in participant.local_database.items()
        ]))
    monkeypatch.undo()
    observations.append(("pages", pages_written))
    return observations, recorded


@pytest.mark.parametrize("reconciler", sorted(RECONCILERS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_keyed_cycle_matches_list_walking_cycle(reconciler, seed, monkeypatch):
    new, script = run_cycle(Participant, reconciler, seed, None, monkeypatch)
    monkeypatch.setattr(_PublishOperation, "_find_current_id", reference_find_current_id)
    reference, _ = run_cycle(ReferenceParticipant, reconciler, seed, script, monkeypatch)

    assert len(new) == len(reference)
    imports = conflicts = deferred = 0
    for got, want in zip(new, reference):
        assert got[0] == want[0]
        if got[0] == "accepted":
            # Only the touched keys are offered; what was accepted for them
            # is what the whole-replica reconciliation accepted.
            assert {key: want[1][key] for key in got[1]} == got[1]
            continue
        assert got == want
        if got[0] == "import":
            imports += 1
            conflicts += len(got[3])
            deferred += len(got[4])
    # The script exercises what it is meant to.
    assert imports >= 3 and conflicts >= 1
    assert (deferred >= 1) == (reconciler == "tie_deferred")
    assert sum(len(pages) for _relation, _epoch, _refs, pages in new[-1][1]) >= 10
