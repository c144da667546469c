"""Simulation-as-a-service: steppable sessions behind a small facade.

The package turns the repo's deterministic scenario engine into a
multiplexed service while keeping the determinism contract intact — a
session that is stepped in slices, interleaved with other sessions,
paused, evicted to a snapshot, and restored produces delivered-frame
sequences and reports byte-identical to an uninterrupted
``Scenario.run()`` (gated by benchmark E17 and the interleaving property
suite).

Layers, bottom up (each importable without the ones above it):

- :mod:`repro.service.bus` — in-process pub/sub for tick/state/topology/
  report events (sync callbacks + bounded asyncio queues).
- :mod:`repro.service.session` — :class:`SimulationSession`, the lifecycle
  state machine around one scenario's run window.
- :mod:`repro.service.registry` — :class:`SessionRegistry`, creation and
  cooperative round-robin scheduling of many sessions.
- :mod:`repro.service.app` — the framework-free ASGI HTTP + WebSocket
  facade (``repro serve``).
- :mod:`repro.service.httpd` / :mod:`repro.service.testing` — the stdlib
  ASGI server ``repro serve`` runs and an in-process test client.

Everything is stdlib-plus-repo only.  Import from the defining module: a
session never loads the asyncio machinery the facade and server need.
"""
