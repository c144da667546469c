"""Spontaneous dynamic mesh networking.

This package implements the network substrate beneath Model 1 of the paper:
edge devices that come into radio range of each other spontaneously form a
mesh, maintain it asynchronously through periodic beacons (no global
coordinator, no synchronised rounds), and dissolve it just as spontaneously
when they drive apart.

* :mod:`repro.mesh.messages` — beacon and data message formats.
* :mod:`repro.mesh.neighbor` — per-node neighbour tables with expiry.
* :mod:`repro.mesh.discovery` — the asynchronous beaconing agent, which
  also keeps the node's membership epoch.
* :mod:`repro.mesh.topology` — global topology snapshots for evaluation.
* :mod:`repro.mesh.routing` — greedy geographic multi-hop forwarding.
* :mod:`repro.mesh.transport` — reliable fragmenting transfers with
  acknowledgements and bounded retransmission.
* :mod:`repro.mesh.node` — :class:`MeshNode`, the bundle of all of the above
  that the AirDnD core attaches to.
"""

from repro.mesh.messages import Beacon, DataMessage
from repro.mesh.neighbor import NeighborEntry, NeighborTable
from repro.mesh.discovery import BeaconAgent
from repro.mesh.topology import TopologyObserver, TopologySnapshot
from repro.mesh.routing import GreedyGeoRouter
from repro.mesh.transport import ReliableTransport, Transfer
from repro.mesh.node import MeshNode

__all__ = [
    "Beacon",
    "DataMessage",
    "NeighborEntry",
    "NeighborTable",
    "BeaconAgent",
    "TopologyObserver",
    "TopologySnapshot",
    "GreedyGeoRouter",
    "ReliableTransport",
    "Transfer",
    "MeshNode",
]
