"""The pull-based fabric worker: claim, heartbeat, run, commit, repeat.

``repro worker --store PATH`` runs one of these.  Any number of workers —
across processes or machines sharing the filesystem — can drain the same
:class:`~repro.fabric.store.JobStore`; the store's lease transaction is the
only coordination point, so there is no controller process to lose.

One claimed cell runs through the exact same
:class:`~repro.experiments.runner.ScenarioRunOnce` path a ``repro sweep
--jobs N`` worker uses, so a cell's metrics are a pure function of its
``(scenario, params, seed)`` key regardless of which worker runs it, how
often it was retried, or what else died around it — the property the E18
chaos benchmark turns into a byte-identity gate.

Crash-safety mechanics:

* a daemon **heartbeat thread** renews the lease on a timer through its own
  store connection; if a renewal reports the lease lost, the eventual
  ``complete`` is a no-op and the result is discarded (some other worker
  owns the cell now);
* the **result artifact** is written atomically — temp file in the target
  directory, ``fsync``, ``os.replace`` — with the metrics' SHA-256 stamped
  in the JSON, so a SIGKILL mid-write can never leave a torn artifact that
  parses;
* **SIGTERM** drains cleanly: the current cell finishes and commits, then
  the loop exits; a second SIGTERM (or SIGINT) abandons the in-flight cell
  by *releasing* its lease — the attempt is refunded and the cell is
  immediately claimable by someone else.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import socket
import tempfile
import threading
import time
from typing import Callable, Dict, Optional

from repro.experiments.runner import ScenarioRunOnce
from repro.fabric.store import JobStore, Lease
from repro.telemetry.trace import current_tracer

#: Artifact schema tag.
CELL_ARTIFACT_SCHEMA = "repro.fabric.cell/1"

#: How often the heartbeat thread renews, as a fraction of the lease TTL.
HEARTBEAT_FRACTION = 0.25


class _AbandonCell(BaseException):
    """Raised inside the worker loop by a second SIGTERM / SIGINT.

    Derives from ``BaseException`` so an over-broad ``except Exception``
    inside scenario code cannot swallow the abandon request.
    """


def default_worker_id() -> str:
    """A worker identity unique across hosts and processes."""
    return f"{socket.gethostname()}:{os.getpid()}"


def metrics_sha256(metrics: Dict[str, float]) -> str:
    """The digest stamped into (and verified against) cell artifacts.

    Canonical form: sorted keys, compact separators — independent of the
    insertion order the artifact's ``metrics`` object itself preserves.
    """
    canonical = json.dumps(metrics, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_cell_artifact(
    directory: str, lease: Lease, metrics: Dict[str, float]
) -> str:
    """Atomically write one cell's result artifact; returns its path.

    Temp file + ``fsync`` + ``os.replace`` in the same directory, exactly
    the discipline :mod:`repro.snapshot` applies: after a crash the artifact
    either exists in full (hash verifies) or not at all.
    """
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(
        directory, f"cell-{lease.index:05d}-r{lease.repetition}.json"
    )
    document = {
        "schema": CELL_ARTIFACT_SCHEMA,
        "index": lease.index,
        "repetition": lease.repetition,
        "name": lease.name,
        "seed": lease.seed,
        "params": lease.params,
        "metrics_sha256": metrics_sha256(metrics),
        "metrics": metrics,
    }
    handle, temp_path = tempfile.mkstemp(
        dir=directory, prefix=".cell-", suffix=".tmp"
    )
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as stream:
            # allow_nan: cell metrics legitimately contain NaN (e.g. a mean
            # latency with zero completed tasks).  Python's json module
            # round-trips the NaN/Infinity tokens, and the sweep exporter —
            # not the artifact — is where strict-JSON null mapping happens.
            json.dump(document, stream, indent=2)
            stream.write("\n")
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(temp_path, path)
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise
    return path


def read_cell_artifact(path: str) -> Dict[str, object]:
    """Load and hash-verify one cell artifact."""
    with open(path, "r", encoding="utf-8") as stream:
        document = json.load(stream)
    if document.get("schema") != CELL_ARTIFACT_SCHEMA:
        raise ValueError(
            f"{path!r} is not a fabric cell artifact "
            f"(schema {document.get('schema')!r})"
        )
    digest = metrics_sha256(document["metrics"])
    if digest != document["metrics_sha256"]:
        raise ValueError(
            f"{path!r} is corrupt: metrics hash to {digest}, "
            f"artifact stamps {document['metrics_sha256']}"
        )
    return document


def artifact_dir_for(store_path: str) -> str:
    """The artifact directory convention: ``<store>.artifacts/`` beside it."""
    return store_path + ".artifacts"


class _Heartbeat:
    """Daemon thread renewing one lease until stopped.

    Uses its *own* store connection — sqlite3 connections are not shareable
    across threads — and records whether any renewal reported the lease
    lost, which the worker checks before trusting its completion.
    """

    def __init__(self, store_path: str, lease: Lease, interval: float) -> None:
        self._store_path = store_path
        self._lease = lease
        self._interval = interval
        self._stop = threading.Event()
        self.lost = False
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *_exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        with JobStore(self._store_path) as store:
            while not self._stop.wait(self._interval):
                renewed = store.heartbeat(self._lease)
                tracer = current_tracer()
                if tracer is not None:
                    tracer.instant(
                        "heartbeat",
                        "fabric",
                        args={
                            "index": self._lease.index,
                            "repetition": self._lease.repetition,
                            "renewed": renewed,
                        },
                    )
                if not renewed:
                    self.lost = True
                    return


class FabricWorker:
    """The worker loop. One instance per process.

    Parameters
    ----------
    store_path:
        The job store to drain.
    worker_id:
        Identity recorded on leases (default ``host:pid``).
    run_cell:
        Callable ``(params, seed) -> metrics``; defaults to the store's own
        scenario via :class:`ScenarioRunOnce` — override in tests.
    heartbeat_interval:
        Lease renewal period (default: a quarter of the lease TTL).
    poll_interval:
        Sleep between claim attempts when nothing is claimable.
    max_cells:
        Stop after completing this many cells (``None`` = unbounded).
    exit_when_idle:
        Return once nothing is claimable *and* every cell is terminal
        (the batch mode the CLI and benchmarks use); ``False`` keeps
        polling until signalled (the long-lived daemon mode).
    install_signal_handlers:
        Install the SIGTERM/SIGINT drain/abandon handlers (main thread of
        a dedicated worker process only).
    """

    def __init__(
        self,
        store_path: str,
        *,
        worker_id: Optional[str] = None,
        run_cell: Optional[Callable[[Dict[str, object], int], Dict[str, float]]] = None,
        heartbeat_interval: Optional[float] = None,
        poll_interval: float = 0.2,
        max_cells: Optional[int] = None,
        exit_when_idle: bool = True,
        install_signal_handlers: bool = False,
    ) -> None:
        self.store_path = store_path
        self.worker_id = worker_id or default_worker_id()
        self.poll_interval = poll_interval
        self.max_cells = max_cells
        self.exit_when_idle = exit_when_idle
        self.install_signal_handlers = install_signal_handlers
        self.artifact_dir = artifact_dir_for(store_path)
        self.completed = 0
        self.failed = 0
        self.abandoned = 0
        self._heartbeat_interval = heartbeat_interval
        self._run_cell = run_cell
        self._draining = False
        self._abandon_requested = False

    # ------------------------------------------------------------- signals

    def _on_signal(self, signum, _frame) -> None:
        if self._draining or signum == signal.SIGINT:
            # Second notice (or an interactive ^C): abandon the in-flight
            # cell by releasing its lease, then exit.
            self._abandon_requested = True
            raise _AbandonCell()
        self._draining = True

    # ---------------------------------------------------------------- loop

    def _build_run_cell(self, store: JobStore):
        if self._run_cell is not None:
            return self._run_cell
        meta = store.metadata
        scenario = meta.get("scenario")
        if scenario is None:
            raise ValueError(
                f"store {self.store_path!r} records no scenario; pass "
                "run_cell explicitly"
            )
        return ScenarioRunOnce(
            scenario=scenario,
            duration=float(meta.get("duration", 20.0)),
            overrides=tuple(sorted((meta.get("overrides") or {}).items())),
        )

    def run(self) -> int:
        """Drain the store; returns the number of cells completed."""
        if self.install_signal_handlers:
            signal.signal(signal.SIGTERM, self._on_signal)
            signal.signal(signal.SIGINT, self._on_signal)
        with JobStore(self.store_path) as store:
            run_cell = self._build_run_cell(store)
            interval = (
                store.lease_ttl * HEARTBEAT_FRACTION
                if self._heartbeat_interval is None
                else self._heartbeat_interval
            )
            try:
                while not self._draining:
                    if self.max_cells is not None and self.completed >= self.max_cells:
                        break
                    lease = store.claim(self.worker_id)
                    if lease is None:
                        if self.exit_when_idle and store.unfinished() == 0:
                            break
                        time.sleep(self.poll_interval)
                        continue
                    self._run_lease(store, run_cell, lease, interval)
            except _AbandonCell:
                pass
        return self.completed

    def _run_lease(self, store: JobStore, run_cell, lease: Lease, interval) -> None:
        tracer = current_tracer()
        trace_start = tracer.clock() if tracer is not None else 0.0
        outcome = "completed"
        try:
            with _Heartbeat(self.store_path, lease, interval) as heartbeat:
                metrics = dict(run_cell(lease.params, lease.seed))
            if heartbeat.lost:
                # Someone else owns the cell now; complete() below would be
                # a no-op anyway, but skip the artifact write too: the owner
                # will produce the identical one.
                self.abandoned += 1
                outcome = "abandoned"
                return
            artifact = write_cell_artifact(self.artifact_dir, lease, metrics)
            if not store.complete(lease, metrics, artifact=artifact):
                self.abandoned += 1
                outcome = "abandoned"
                return
        except _AbandonCell:
            store.release(lease)
            self.abandoned += 1
            outcome = "abandoned"
            raise
        except Exception as error:  # noqa: BLE001 - any cell failure retries
            state = store.fail(lease, f"{type(error).__name__}: {error}")
            if state is not None:
                self.failed += 1
            outcome = "failed"
        else:
            self.completed += 1
        finally:
            if tracer is not None:
                tracer.span(
                    "cell",
                    "fabric",
                    trace_start,
                    args={
                        "index": lease.index,
                        "repetition": lease.repetition,
                        "seed": lease.seed,
                        "worker": self.worker_id,
                        "outcome": outcome,
                    },
                )


def worker_metrics_render(worker: "FabricWorker") -> Callable[[], str]:
    """Build the exposition callable a worker's ``--metrics-port`` serves.

    Combines the worker's own cell counters with a fresh store observation
    per scrape — sqlite connections are thread-bound, so the render opens
    (and closes) its own on the server thread.
    """
    from repro.telemetry.prometheus import (
        job_store_points,
        render_exposition,
        worker_points,
    )

    def render() -> str:
        points = list(worker_points(worker))
        with JobStore(worker.store_path) as store:
            points.extend(job_store_points(store.observe()))
        return render_exposition(points)

    return render


def run_worker(worker: "FabricWorker", metrics_port: Optional[int] = None) -> int:
    """Run ``worker`` to completion, optionally beside a ``/metrics`` sidecar.

    With ``metrics_port`` set (0 = any free port), a
    :class:`~repro.telemetry.httpd.MetricsServer` serves
    :func:`worker_metrics_render` for the worker's lifetime, and its URL is
    printed as a ``metrics: http://…`` line before the first cell runs.
    """
    if metrics_port is None:
        return worker.run()
    from repro.telemetry.httpd import MetricsServer

    with MetricsServer(worker_metrics_render(worker), port=metrics_port) as server:
        print(f"metrics: http://{server.host}:{server.port}/metrics", flush=True)
        return worker.run()


def worker_main(
    store_path: str,
    *,
    worker_id: Optional[str] = None,
    heartbeat_interval: Optional[float] = None,
    poll_interval: float = 0.2,
    max_cells: Optional[int] = None,
    exit_when_idle: bool = True,
    metrics_port: Optional[int] = None,
) -> int:
    """Module-level entry point (picklable for ``multiprocessing.Process``).

    ``metrics_port`` attaches the ``/metrics`` sidecar (see
    :func:`run_worker`).
    """
    worker = FabricWorker(
        store_path,
        worker_id=worker_id,
        heartbeat_interval=heartbeat_interval,
        poll_interval=poll_interval,
        max_cells=max_cells,
        exit_when_idle=exit_when_idle,
        install_signal_handlers=True,
    )
    return run_worker(worker, metrics_port)
