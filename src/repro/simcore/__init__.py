"""Discrete-event simulation kernel.

Every other subsystem in the AirDnD reproduction runs on top of this small,
dependency-free discrete-event simulator.  The kernel provides:

* :class:`~repro.simcore.simulator.Simulator` — the event loop with a virtual
  clock, one-shot and periodic event scheduling, and named processes.
* :class:`~repro.simcore.entity.SimEntity` — a base class for objects that
  live inside a simulation (vehicles, radios, compute nodes, orchestrators).
* :class:`~repro.simcore.rng.RandomStreams` — independent, reproducible random
  number streams keyed by name so that changing one subsystem's randomness
  does not perturb another's.
* :class:`~repro.simcore.monitor.Monitor` — metric collection (counters,
  time series, samples) queried by the experiment harness.

Event tracing lives in :mod:`repro.telemetry.trace`.
"""

from repro.simcore.event import Event, EventQueue
from repro.simcore.entity import SimEntity
from repro.simcore.monitor import Counter, Monitor, SampleSeries, TimeSeries
from repro.simcore.rng import RandomStreams
from repro.simcore.simulator import Simulator, StepOutcome, StopSimulation

__all__ = [
    "Event",
    "EventQueue",
    "SimEntity",
    "Simulator",
    "StepOutcome",
    "StopSimulation",
    "RandomStreams",
    "Monitor",
    "Counter",
    "TimeSeries",
    "SampleSeries",
]
