"""Legacy name kept so old snapshot artifacts still load.

Simulators once carried a disabled-by-default ``TraceLog``; event tracing
now lives in :mod:`repro.telemetry.trace`.  Snapshot artifacts written
before the removal (the golden test fixture among them) pickle a
``TraceLog`` instance, so the class must stay importable.
:meth:`Simulator.__setstate__ <repro.simcore.simulator.Simulator>` drops
the loaded instance again.
"""


class TraceLog:
    """Inert placeholder for unpickling legacy artifacts; records nothing."""
