"""Reproduction of "Reliable Storage and Querying for Collaborative Data
Sharing Systems" (Taylor & Ives, ICDE 2010).

The package implements the distributed, replicated, versioned storage layer
and the fault-tolerant distributed query processor of the ORCHESTRA
collaborative data sharing system, running on a deterministic discrete-event
network simulator.  The README's "Architecture" and "Repository map"
sections list the subsystems; "Running the tests and benchmarks" covers the
reproduced evaluation.
"""

__version__ = "1.2.0"
