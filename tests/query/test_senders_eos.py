"""``sender_eos`` on a sender set against the per-sender loop it replaces.

An initiator EOS relay names every sender that had no rows for the
receiving node; the receiver credits the whole set with one completion check
instead of one credit (and check) per sender.  Each case drives two
receivers with the same relay messages — one through the per-sender
reference loop kept below, one through ``sender_eos`` — and compares, after
every message, whether the receiver finished, how many end-of-stream markers
it emitted upward and its final sender sets.  The initiator's result
collector gets the same comparison.
"""

import pytest

from repro.query.operators import ExchangeReceiver, RuntimeOperator
from repro.query.physical import PhysShip
from repro.query.service import _ResultCollector

PARTICIPANTS = ("a", "b", "c", "d")


class _Context:
    """The slice of the fragment context an exchange receiver reads."""

    address = "a"

    def __init__(self) -> None:
        self.phase = 0
        self.failed_nodes: set[str] = set()

    def participants(self) -> list[str]:
        return list(PARTICIPANTS)


class _CountingParent(RuntimeOperator):
    def __init__(self, context) -> None:
        super().__init__(context, op_id=99)
        self.eos_count = 0

    def end_of_stream(self, input_index: int = 0) -> None:
        self.eos_count += 1


def _receiver():
    context = _Context()
    receiver = ExchangeReceiver(context, exchange_id=7)
    parent = _CountingParent(context)
    receiver.connect(parent)
    return receiver, parent


def _reference_receiver_eos(receiver: ExchangeReceiver, senders, phase: int) -> None:
    """The per-sender credit: one sender, then one completion check, each."""
    for sender in senders:
        receiver._eos_senders.add((sender, phase))
        if receiver._pending is not None and receiver._pending_phase == phase:
            receiver._pending.discard(sender)
        receiver._check_done()


def _reference_collector_eos(collector: _ResultCollector, senders, phase: int) -> None:
    for sender in senders:
        collector._eos_by_phase.setdefault(phase, set()).add(sender)
        pending = collector._pending.get(phase)
        if pending is not None:
            pending.discard(sender)


#: (failed nodes, [("reset", phase) | (senders, phase), ...])
CASES = {
    # The relay's third sender completes the receiver; "a" (already
    # credited) follows it in the same message.
    "completes_mid_list": (set(), [(["a"], 0), (["b", "c", "d", "a"], 0)]),
    # Phase-0 markers still in flight after the recovery phase started must
    # not count towards phase 1.
    "stale_phase_sender": (
        set(),
        [(["a", "b"], 0), ("reset", 1), (["c", "d", "a", "b"], 0), (["a", "b"], 1),
         (["c", "d"], 1)],
    ),
    # A failed sender is never waited for.
    "failed_sender": ({"c"}, [(["a"], 0), (["b", "d"], 0)]),
    "empty_relay": (set(), [([], 0), (["a", "b", "c", "d"], 0), ([], 0)]),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_sender_eos_matches_the_per_sender_loop(case):
    failed, messages = CASES[case]
    looped, looped_parent = _receiver()
    batched, batched_parent = _receiver()
    for receiver in (looped, batched):
        receiver.context.failed_nodes |= failed
    finish_points = []
    for index, (senders, phase) in enumerate(messages):
        if senders == "reset":
            for receiver in (looped, batched):
                receiver.context.phase = phase
                receiver.reset_for_phase(phase)
            continue
        _reference_receiver_eos(looped, senders, phase)
        batched.sender_eos(senders, phase)
        assert batched.finished == looped.finished, index
        assert batched_parent.eos_count == looped_parent.eos_count, index
        if looped.finished and not finish_points:
            finish_points.append(index)
    assert finish_points, "every case runs the receiver to completion"
    assert batched_parent.eos_count == looped_parent.eos_count == 1
    assert batched._eos_senders == looped._eos_senders
    assert batched._pending == looped._pending


@pytest.mark.parametrize("case", sorted(CASES))
def test_collector_sender_eos_matches_the_per_sender_loop(case):
    failed, messages = CASES[case]
    ship = PhysShip(op_id=1)
    looped = _ResultCollector(ship, PARTICIPANTS)
    batched = _ResultCollector(ship, PARTICIPANTS)
    current = 0
    for senders, phase in messages:
        if senders == "reset":
            current = phase
            for collector in (looped, batched):
                collector.reset_eos(PARTICIPANTS, failed)
            continue
        _reference_collector_eos(looped, senders, phase)
        batched.sender_eos(senders, phase)
        assert batched.is_complete(failed, current) == looped.is_complete(failed, current)
    assert batched.is_complete(failed, current)
    assert batched._eos_by_phase == looped._eos_by_phase
    assert batched._pending == looped._pending
