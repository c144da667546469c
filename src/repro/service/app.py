"""Simulation-as-a-service: a framework-free ASGI HTTP + WebSocket facade.

The app speaks the plain `ASGI 3 <https://asgi.readthedocs.io/>`_ protocol
directly — no web framework — so the service layer stays importable with
zero dependencies beyond the package itself.  ``repro serve`` runs it
under the bundled stdlib server in :mod:`repro.service.httpd`; tests drive
it in-process through :class:`repro.service.testing.ASGITestClient`.

Endpoints (JSON in/out unless noted; full protocol in ``docs/SERVICE.md``)::

    GET    /healthz                     liveness + per-state session counts
    GET    /metrics                     Prometheus exposition (text 0.0.4)
    GET    /sessions                    list session summaries
    POST   /sessions                    create (scenario/n/seed/duration/
                                        fault_horizon/step_slice/knobs;
                                        "start": true opens the window)
    GET    /sessions/{id}               session status
    GET    /sessions/{id}/report        final (or interim) report
    POST   /sessions/{id}/start         created -> running
    POST   /sessions/{id}/step          one slice ({"max_events": N} optional)
    POST   /sessions/{id}/pause         running -> paused
    POST   /sessions/{id}/resume        paused -> running
    POST   /sessions/{id}/fast-forward  drive the window to completion
    POST   /sessions/{id}/snapshot      artifact bytes, or {"path": ...} to
                                        write server-side
    POST   /sessions/{id}/evict         pause if needed, snapshot, drop
    POST   /sessions/{id}/restore       evicted -> paused
    DELETE /sessions/{id}               forget the session
    WS     /sessions/{id}/stream        tick/state/topology/report events

Errors map to conventional statuses: unknown session → 404, an operation
the lifecycle state forbids → 409, bad parameters → 400.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import asdict
from typing import Any, Dict, Optional

from repro.service.registry import SessionRegistry, UnknownSessionError
from repro.service.session import SessionState, SessionStateError
from repro.simcore.simulator import StepOutcome

_STATUS_PHRASES = {
    200: "OK",
    201: "Created",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    500: "Internal Server Error",
}


def _outcome_payload(outcome: StepOutcome) -> Dict[str, Any]:
    payload = asdict(outcome)
    payload["exhausted"] = outcome.exhausted
    return payload


class ServiceApp:
    """The ASGI application object (``async def __call__(scope, ...)``)."""

    def __init__(
        self,
        registry: Optional[SessionRegistry] = None,
        *,
        auto_drive: bool = True,
    ) -> None:
        self.registry = registry if registry is not None else SessionRegistry()
        #: Whether lifespan startup launches the background scheduler that
        #: auto-advances ``running`` sessions.  Off, every slice must be
        #: requested explicitly via ``/step`` — the mode deterministic
        #: test harnesses use.
        self.auto_drive = auto_drive
        self._driver: Optional[asyncio.Task] = None

    # ----------------------------------------------------------- ASGI entry

    async def __call__(self, scope: Dict[str, Any], receive, send) -> None:
        if scope["type"] == "lifespan":
            await self._lifespan(receive, send)
        elif scope["type"] == "http":
            await self._http(scope, receive, send)
        elif scope["type"] == "websocket":
            await self._websocket(scope, receive, send)
        else:  # pragma: no cover - no other scope types exist today
            raise RuntimeError(f"unsupported ASGI scope type {scope['type']!r}")

    # ------------------------------------------------------------- lifespan

    async def _lifespan(self, receive, send) -> None:
        while True:
            message = await receive()
            if message["type"] == "lifespan.startup":
                if self.auto_drive and self._driver is None:
                    self._driver = asyncio.get_running_loop().create_task(
                        self.registry.drive()
                    )
                await send({"type": "lifespan.startup.complete"})
            elif message["type"] == "lifespan.shutdown":
                if self._driver is not None:
                    self.registry.stop_driving()
                    self._driver.cancel()
                    try:
                        await self._driver
                    except asyncio.CancelledError:
                        pass
                    self._driver = None
                await send({"type": "lifespan.shutdown.complete"})
                return

    # ----------------------------------------------------------------- HTTP

    async def _http(self, scope, receive, send) -> None:
        method = scope["method"].upper()
        parts = [part for part in scope["path"].split("/") if part]
        try:
            status, payload, raw = await self._route(method, parts, receive)
        except UnknownSessionError as error:
            status, payload, raw = 404, {"error": f"unknown session {error.args[0]!r}"}, None
        except SessionStateError as error:
            status, payload, raw = 409, {"error": str(error)}, None
        except (ValueError, TypeError) as error:
            status, payload, raw = 400, {"error": str(error)}, None
        if raw is not None:
            body, content_type = raw
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = b"application/json"
        await send(
            {
                "type": "http.response.start",
                "status": status,
                "headers": [
                    (b"content-type", content_type),
                    (b"content-length", str(len(body)).encode("ascii")),
                ],
            }
        )
        await send({"type": "http.response.body", "body": body})

    async def _route(self, method: str, parts, receive):
        """Dispatch one request; returns ``(status, json_payload, raw)``."""
        registry = self.registry
        if parts == ["healthz"] and method == "GET":
            return (
                200,
                {
                    "status": "ok",
                    "sessions": len(registry),
                    "states": registry.state_counts(),
                    "scheduler_passes": registry.scheduler_passes,
                    "sessions_stepped": registry.sessions_stepped,
                },
                None,
            )
        if parts == ["metrics"] and method == "GET":
            from repro.telemetry.prometheus import (
                CONTENT_TYPE,
                session_registry_exposition,
            )

            body = session_registry_exposition(registry).encode("utf-8")
            return 200, None, (body, CONTENT_TYPE.encode("ascii"))
        if parts == ["sessions"]:
            if method == "GET":
                return (
                    200,
                    {"sessions": [s.status() for s in registry.sessions()]},
                    None,
                )
            if method == "POST":
                return await self._create_session(receive)
            return 405, {"error": "method not allowed"}, None
        if len(parts) >= 2 and parts[0] == "sessions":
            session_id = parts[1]
            action = parts[2] if len(parts) == 3 else None
            if len(parts) > 3:
                return 404, {"error": "not found"}, None
            return await self._session_route(method, session_id, action, receive)
        return 404, {"error": "not found"}, None

    async def _create_session(self, receive):
        body = await _read_json(receive)
        scenario_name = body.get("scenario")
        if not scenario_name:
            raise ValueError("create needs a 'scenario' name")
        session = self.registry.create(
            str(scenario_name).replace("_", "-"),
            n=body.get("n"),
            seed=int(body.get("seed", 0)),
            duration=float(body.get("duration", 20.0)),
            fault_horizon=body.get("fault_horizon"),
            step_slice=body.get("step_slice"),
            knobs=body.get("knobs"),
        )
        if body.get("start"):
            session.start()
        return 201, session.status(), None

    async def _session_route(self, method, session_id, action, receive):
        registry = self.registry
        if action is None:
            if method == "GET":
                return 200, registry.get(session_id).status(), None
            if method == "DELETE":
                registry.delete(session_id)
                return 200, {"deleted": session_id}, None
            return 405, {"error": "method not allowed"}, None
        if method == "GET" and action == "report":
            return 200, {"report": registry.get(session_id).interim_report()}, None
        if method != "POST":
            return 405, {"error": "method not allowed"}, None
        session = registry.get(session_id)
        if action == "start":
            session.start()
            return 200, session.status(), None
        if action == "step":
            body = await _read_json(receive)
            max_events = body.get("max_events")
            outcome = session.step(
                None if max_events is None else int(max_events)
            )
            return (
                200,
                {"outcome": _outcome_payload(outcome), "status": session.status()},
                None,
            )
        if action == "pause":
            session.pause()
            return 200, session.status(), None
        if action == "resume":
            session.resume()
            return 200, session.status(), None
        if action == "fast-forward":
            report = await self._fast_forward(session)
            return 200, {"report": report, "status": session.status()}, None
        if action == "snapshot":
            body = await _read_json(receive)
            path = body.get("path")
            blob = session.snapshot(path)
            if path is not None:
                return 200, {"written": path, "bytes": len(blob)}, None
            return 200, None, (blob, b"application/octet-stream")
        if action == "evict":
            registry.evict(session_id)
            return 200, session.status(), None
        if action == "restore":
            registry.restore(session_id)
            return 200, session.status(), None
        return 404, {"error": "not found"}, None

    async def _fast_forward(self, session) -> Dict[str, float]:
        """Drive a session to completion without hogging the event loop."""
        if session.state is SessionState.CREATED:
            session.start()
        while session.state in (SessionState.RUNNING, SessionState.PAUSED):
            session.step()
            await asyncio.sleep(0)
        assert session.report is not None
        return session.report.as_dict()

    # ------------------------------------------------------------ WebSocket

    async def _websocket(self, scope, receive, send) -> None:
        parts = [part for part in scope["path"].split("/") if part]
        message = await receive()
        assert message["type"] == "websocket.connect"
        if len(parts) != 3 or parts[0] != "sessions" or parts[2] != "stream":
            await send({"type": "websocket.close", "code": 4404})
            return
        try:
            session = self.registry.get(parts[1])
        except UnknownSessionError:
            await send({"type": "websocket.close", "code": 4404})
            return
        await send({"type": "websocket.accept"})
        await send(
            {
                "type": "websocket.send",
                "text": json.dumps({"type": "hello", **session.status()}),
            }
        )
        if session.state is SessionState.FINISHED and session.report is not None:
            # Late subscriber: replay the terminal report, then close.
            await send(
                {
                    "type": "websocket.send",
                    "text": json.dumps(
                        {
                            "type": "report",
                            "session": session.id,
                            "report": session.report.as_dict(),
                        }
                    ),
                }
            )
            await send({"type": "websocket.close", "code": 1000})
            return
        queue = session.bus.connect_queue()
        try:
            await self._stream(queue, receive, send)
        finally:
            session.bus.disconnect_queue(queue)

    async def _stream(self, queue, receive, send) -> None:
        """Forward bus events until the client leaves or the run finishes."""
        receive_task = asyncio.ensure_future(receive())
        queue_task = asyncio.ensure_future(queue.get())
        try:
            while True:
                done, _ = await asyncio.wait(
                    {receive_task, queue_task},
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if receive_task in done:
                    message = receive_task.result()
                    if message["type"] == "websocket.disconnect":
                        return
                    # Inbound frames are ignored; keep listening.
                    receive_task = asyncio.ensure_future(receive())
                if queue_task in done:
                    event = queue_task.result()
                    await send(
                        {"type": "websocket.send", "text": json.dumps(event)}
                    )
                    if event.get("type") == "report":
                        await send({"type": "websocket.close", "code": 1000})
                        return
                    queue_task = asyncio.ensure_future(queue.get())
        finally:
            for task in (receive_task, queue_task):
                if not task.done():
                    task.cancel()


async def _read_json(receive) -> Dict[str, Any]:
    """Drain an ASGI request body and parse it as JSON (empty → ``{}``)."""
    chunks = []
    while True:
        message = await receive()
        if message["type"] != "http.request":  # pragma: no cover - disconnect
            break
        chunks.append(message.get("body", b""))
        if not message.get("more_body"):
            break
    body = b"".join(chunks)
    if not body:
        return {}
    try:
        payload = json.loads(body)
    except json.JSONDecodeError as error:
        raise ValueError(f"request body is not valid JSON: {error}") from None
    if not isinstance(payload, dict):
        raise ValueError("request body must be a JSON object")
    return payload


def create_app(
    registry: Optional[SessionRegistry] = None, *, auto_drive: bool = True
) -> ServiceApp:
    """Build the service's ASGI application."""
    return ServiceApp(registry, auto_drive=auto_drive)
