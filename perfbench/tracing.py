"""Layer tracer: self time and call counts of each layer's public functions.

The tracer wraps class attributes (and two module functions) of the
``repro`` packages in this process, before the scenario is built, and
keeps a span stack so every wrapped call is charged its *self* time: its
duration minus the part its wrapped callees covered.  No file under
``src/`` changes.  The wrappers keep the wrapped function's ``__name__``
and ``__qualname__``, so bound methods and functions pickle by the same
name and snapshot bytes are unaffected.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Dict, List, Tuple

#: (layer, module, class or None for a module function, attribute, key).
#: The key is the metric prefix: ``<key>.self_s`` and ``<key>.calls``.
TARGETS: Tuple[Tuple[str, str, str, str, str], ...] = (
    ("simcore", "repro.simcore.simulator", "Simulator", "step", "simcore.Simulator.step"),
    ("mobility", "repro.mobility.vehicle", "Vehicle", "advance", "mobility.Vehicle.advance"),
    ("mobility", "repro.geometry.substrate", "SpatialSubstrate", "update", "mobility.SpatialSubstrate.update"),
    ("radio", "repro.radio.interfaces", "RadioEnvironment", "transmit", "radio.RadioEnvironment.transmit"),
    ("radio", "repro.radio.interfaces", "RadioInterface", "deliver", "radio.RadioInterface.deliver"),
    ("radio", "repro.radio.interfaces", "_BatchFrameDelivery", "__call__", "radio.batch_delivery"),
    ("geometry", "repro.geometry.los", "VisibilityMap", "line_of_sight_batch", "geometry.VisibilityMap.line_of_sight_batch"),
    ("data", "repro.data.sensors", "LidarSensor", "capture", "data.LidarSensor.capture"),
    ("mesh", "repro.mesh.neighbor", "NeighborTable", "observe", "mesh.NeighborTable.observe"),
    ("mesh", "repro.mesh.neighbor", "NeighborTable", "active_names", "mesh.NeighborTable.active_names"),
    ("mesh", "repro.mesh.neighbor", "NeighborTable", "expire", "mesh.NeighborTable.expire"),
    ("mesh", "repro.mesh.topology", "TopologyObserver", "take_snapshot", "mesh.TopologyObserver.take_snapshot"),
    ("mesh", "repro.mesh.discovery", "BeaconAgent", "build_beacon", "mesh.BeaconAgent.build_beacon"),
    ("mesh", "repro.mesh.transport", "ReliableTransport", "send", "mesh.ReliableTransport.send"),
    ("core", "repro.core.orchestrator", "Orchestrator", "submit", "core.Orchestrator.submit"),
    ("core", "repro.core.candidate", "CandidateScorer", "rank", "core.CandidateScorer.rank"),
    ("compute", "repro.compute.node", "ComputeNode", "submit", "compute.ComputeNode.submit"),
    ("compute", "repro.compute.faas", "FaaSRuntime", "invoke", "compute.FaaSRuntime.invoke"),
    ("snapshot", "repro.snapshot.scenario", None, "snapshot_scenario", "snapshot.snapshot_scenario"),
    ("snapshot", "repro.snapshot.scenario", None, "restore_scenario", "snapshot.restore_scenario"),
    ("service", "repro.service.session", "SimulationSession", "step", "service.SimulationSession.step"),
    ("service", "repro.service.session", "SimulationSession", "evict", "service.SimulationSession.evict"),
    ("service", "repro.service.session", "SimulationSession", "restore", "service.SimulationSession.restore"),
)

LAYERS = ("simcore", "mobility", "radio", "geometry", "data", "mesh", "core", "compute", "snapshot", "service")

#: Keys whose time is spent outside the run window (checkpoints).
CHECKPOINT_KEYS = (
    "service.SimulationSession.evict",
    "service.SimulationSession.restore",
    "snapshot.snapshot_scenario",
    "snapshot.restore_scenario",
)


class LayerTracer:
    """Installs the wrappers on entry and removes them on exit.

    ``stats[key]`` is a two-element list ``[self_seconds, calls]``.
    """

    def __init__(self) -> None:
        self.stats: Dict[str, List[float]] = {t[4]: [0.0, 0] for t in TARGETS}
        self._stack: List[float] = []
        self._installed: List[Tuple[object, str, object]] = []

    def _wrap(self, original, entry):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                entry[0] += elapsed - stack.pop()
                entry[1] += 1
                if stack:
                    stack[-1] += elapsed

        return wrapper

    def __enter__(self) -> "LayerTracer":
        for _, module_name, class_name, attr, key in TARGETS:
            module = importlib.import_module(module_name)
            owner = module if class_name is None else getattr(module, class_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(original, self.stats[key]))
            self._installed.append((owner, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)
        self._stack.clear()
