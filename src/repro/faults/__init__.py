"""Deterministic fault injection and seeded chaos scenarios.

FoundationDB-style simulation testing for the reproduced system: the same
discrete-event network that runs the paper's figures can be subjected to
message loss, duplication, reordering, link delays, bidirectional partitions
with scheduled heals, transient CPU/bandwidth degradation and crash-restart
of whole nodes — all driven from a single ``random.Random(seed)``, so every
failure a randomized run finds replays exactly from its seed.

* :class:`FaultInjector` — the packet-level chaos source, hooked into
  :class:`repro.net.simnet.Network` send/deliver.
* :class:`ScenarioRunner` / :func:`run_scenario` — seeded composition of a
  multi-tenant workload with a randomized fault schedule, run to quiescence
  and checked against system-wide invariants.
* :mod:`repro.faults.invariants` — the checkers themselves (operation
  conservation, durable-epoch monotonicity, acked-publish durability,
  reference byte-equality, cache coherence, membership agreement,
  replication-factor restoration).

Replay a failing seed from the command line::

    PYTHONPATH=src python -m repro.faults.scenarios --seed 1234
"""

from .injector import FaultInjector, FaultStats, LinkChaos

#: Re-exported from :mod:`repro.faults.scenarios`, loaded on first use: an
#: eager import would put the module in ``sys.modules`` before
#: ``python -m repro.faults.scenarios`` runs it, which makes ``runpy`` warn.
_SCENARIO_NAMES = frozenset({"ScenarioConfig", "ScenarioReport", "ScenarioRunner", "run_scenario"})


def __getattr__(name: str):
    if name in _SCENARIO_NAMES:
        from . import scenarios

        return getattr(scenarios, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "FaultInjector",
    "FaultStats",
    "LinkChaos",
    "ScenarioConfig",
    "ScenarioReport",
    "ScenarioRunner",
    "run_scenario",
]
