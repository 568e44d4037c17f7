"""Network profiles matching the three experimental settings in the paper.

Section VI evaluates the system on:

* a **local-area** 16-node cluster with Gigabit Ethernet (Sections VI-B);
* a **simulated wide-area network** created by shaping the LAN with NetEm
  (added latency) and the HTB queueing discipline (reduced per-node
  bandwidth), used for the bandwidth sweep of Figure 17 and the latency
  observations of Section VI-C;
* **Amazon EC2 "large" instances** (7.5 GB RAM, virtualised dual-core 2 GHz
  Opteron) for the 10–100 node scalability experiments of Figures 18–20.

Each profile bundles a default :class:`~repro.net.simnet.HostSpec` with the
link latency used between nodes.  Benchmarks construct clusters from these
profiles so that each figure runs under the same network conditions as the
corresponding experiment in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from .simnet import HostSpec, Network


@dataclass(frozen=True)
class NetworkProfile:
    """A named combination of host characteristics and link latency."""

    name: str
    host: HostSpec
    latency: float
    failure_detection_delay: float = 0.05

    def create_network(self) -> Network:
        return Network(
            latency=self.latency,
            default_host=self.host,
            failure_detection_delay=self.failure_detection_delay,
        )

    def with_latency(self, latency_seconds: float) -> "NetworkProfile":
        """Derive a profile with added link latency (the NetEm shaping of
        Section VI-C)."""
        return NetworkProfile(
            name=f"{self.name}-lat{int(latency_seconds * 1000)}ms",
            host=self.host,
            latency=latency_seconds,
            failure_detection_delay=self.failure_detection_delay,
        )


#: The 16-node local cluster: dual-core 2.4 GHz Xeon, Gigabit Ethernet.
LAN_GIGABIT = NetworkProfile(
    name="lan-gigabit",
    host=HostSpec(
        cpu_factor=1.0,
        egress_bandwidth=125_000_000.0,
        ingress_bandwidth=125_000_000.0,
        disk_read_bandwidth=80_000_000.0,
    ),
    latency=0.0001,  # ~0.1 ms LAN round trip
)

#: A wide-area baseline: institutional broadband, ~20 ms latency, 3200 KB/s.
WAN_DEFAULT = NetworkProfile(
    name="wan",
    host=HostSpec(
        cpu_factor=1.0,
        egress_bandwidth=3_200_000.0,
        ingress_bandwidth=3_200_000.0,
        disk_read_bandwidth=80_000_000.0,
    ),
    latency=0.020,
)

#: Amazon EC2 "large" instances: slightly slower virtualised 2 GHz cores,
#: high bandwidth between instances inside the data centre.
EC2_LARGE = NetworkProfile(
    name="ec2-large",
    host=HostSpec(
        cpu_factor=0.8,
        egress_bandwidth=100_000_000.0,
        ingress_bandwidth=100_000_000.0,
        disk_read_bandwidth=60_000_000.0,
    ),
    latency=0.0005,
)


def wan_profile(bandwidth_kbytes_per_second: float, latency_ms: float = 20.0) -> NetworkProfile:
    """A shaped WAN profile, mirroring the paper's NetEm/HTB configuration.

    ``bandwidth_kbytes_per_second`` is the per-node bandwidth in KB/s exactly
    as on the x-axis of Figure 17 (the paper sweeps 100–3200 KB/s).
    """
    return NetworkProfile(
        name=f"wan-{int(bandwidth_kbytes_per_second)}KBps-{int(latency_ms)}ms",
        host=HostSpec(
            cpu_factor=1.0,
            egress_bandwidth=bandwidth_kbytes_per_second * 1000.0,
            ingress_bandwidth=bandwidth_kbytes_per_second * 1000.0,
            disk_read_bandwidth=80_000_000.0,
        ),
        latency=latency_ms / 1000.0,
    )


PROFILES = {
    "lan": LAN_GIGABIT,
    "wan": WAN_DEFAULT,
    "ec2": EC2_LARGE,
}
