"""The worker's ``/metrics`` sidecar: a tiny ASGI app on the service's server.

``repro worker --metrics-port N`` attaches one of these to the worker
process so a Prometheus scraper can watch cells complete without any hook
into the worker loop itself.  :func:`metrics_app` is the whole protocol
surface; :class:`MetricsServer` runs it on
:class:`~repro.service.httpd.StdlibASGIServer` — the HTTP/1.1 stack the
service facade uses — on a daemon thread with its own event loop.  Fully
passive: the render callable is invoked per scrape on the server thread,
the worker never blocks on it.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Callable

from repro.service.httpd import StdlibASGIServer
from repro.telemetry.prometheus import CONTENT_TYPE


def metrics_app(render: Callable[[], str]):
    """An ASGI app serving ``render()``'s exposition text on ``GET /metrics``.

    Every scrape calls ``render`` afresh.  Any other path answers ``404``;
    a render that raises answers ``500`` with the error in the body.
    """

    async def app(scope, receive, send) -> None:
        if scope["type"] == "lifespan":
            while True:
                message = await receive()
                await send({"type": message["type"] + ".complete"})
                if message["type"] == "lifespan.shutdown":
                    return
        if scope["path"] != "/metrics":
            status, body, content_type = 404, b"only /metrics lives here", "text/plain"
        else:
            try:
                body = render().encode("utf-8")
                status, content_type = 200, CONTENT_TYPE
            except Exception as error:  # noqa: BLE001 - surface as 500
                status, content_type = 500, "text/plain"
                body = f"metrics render failed: {error}".encode("utf-8")
        await send(
            {
                "type": "http.response.start",
                "status": status,
                "headers": [(b"content-type", content_type.encode("ascii"))],
            }
        )
        await send({"type": "http.response.body", "body": body})

    return app


class MetricsServer:
    """Serve :func:`metrics_app` over TCP from a background thread.

    Parameters
    ----------
    render:
        Zero-arg callable returning the current exposition document; called
        once per scrape, on the server thread — it must open its own
        connections to thread-bound resources (e.g. a fresh ``JobStore``).
    host / port:
        Bind address.  ``port=0`` picks a free port; the bound port is
        available as :attr:`port` after construction.
    """

    def __init__(
        self, render: Callable[[], str], *, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self._loop = asyncio.new_event_loop()
        self._server = StdlibASGIServer(metrics_app(render), host, port)
        self._loop.run_until_complete(self._server.start())
        self.host, self.port = host, self._server.port
        self._thread = threading.Thread(
            target=self._loop.run_forever, daemon=True, name="metrics-server"
        )

    def start(self) -> "MetricsServer":
        """Start serving in the background; returns self."""
        self._thread.start()
        return self

    def stop(self) -> None:
        """Close the listener and open connections, then join the thread."""
        stopped = asyncio.run_coroutine_threadsafe(self._server.stop(), self._loop)
        stopped.result(timeout=5.0)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5.0)
        self._loop.close()

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()
