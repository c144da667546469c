"""A minimal stdlib ASGI server: HTTP/1.1 + WebSocket over ``asyncio``.

``repro serve`` prefers uvicorn (the ``[service]`` optional extra) — this
module is the dependency-free fallback that makes the service usable from a
bare install.  It implements just enough of HTTP/1.1 (request parsing,
``Content-Length`` bodies, keep-alive) and RFC 6455 (handshake, masked
client frames, text/close/ping opcodes, unfragmented messages) to carry the
facade in :mod:`repro.service.app`; it is intentionally not a
general-purpose web server.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import json
import struct
from typing import Any, Callable, Dict, List, Optional, Tuple

#: RFC 6455 magic GUID concatenated to ``Sec-WebSocket-Key`` in handshakes.
WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

#: Hard cap on request body / WebSocket frame size (64 MiB) — the service's
#: payloads are tiny JSON documents; anything larger is a protocol error.
MAX_BODY = 64 * 1024 * 1024

_PHRASES = {
    200: "OK", 201: "Created", 204: "No Content", 400: "Bad Request",
    404: "Not Found", 405: "Method Not Allowed", 409: "Conflict",
    500: "Internal Server Error",
}


class _Connection:
    """One accepted TCP connection, serving requests until it closes."""

    def __init__(self, app, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.app = app
        self.reader = reader
        self.writer = writer

    async def serve(self) -> None:
        try:
            while True:
                head = await self._read_head()
                if head is None:
                    return
                method, path, query, headers = head
                if headers.get("upgrade", "").lower() == "websocket":
                    await self._serve_websocket(path, query, headers)
                    return
                keep_alive = await self._serve_http(method, path, query, headers)
                if not keep_alive:
                    return
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self.writer.close()

    # ------------------------------------------------------------- parsing

    async def _read_head(
        self,
    ) -> Optional[Tuple[str, str, bytes, Dict[str, str]]]:
        try:
            raw = await self.reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            return None
        lines = raw.decode("latin-1").split("\r\n")
        request_line = lines[0].split(" ")
        if len(request_line) != 3:
            return None
        method, target, _version = request_line
        path, _, query = target.partition("?")
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            key, _, value = line.partition(":")
            headers[key.strip().lower()] = value.strip()
        return method, path, query.encode("latin-1"), headers

    # ---------------------------------------------------------------- HTTP

    async def _serve_http(self, method, path, query, headers) -> bool:
        length = int(headers.get("content-length", "0") or "0")
        if length > MAX_BODY:
            await self._write_simple(400, b'{"error": "body too large"}')
            return False
        body = await self.reader.readexactly(length) if length else b""
        scope = {
            "type": "http",
            "asgi": {"version": "3.0"},
            "http_version": "1.1",
            "method": method.upper(),
            "path": path,
            "raw_path": path.encode("latin-1"),
            "query_string": query,
            "headers": [
                (key.encode("latin-1"), value.encode("latin-1"))
                for key, value in headers.items()
            ],
            "scheme": "http",
        }
        sent = False

        async def receive():
            nonlocal sent
            if sent:
                return {"type": "http.disconnect"}
            sent = True
            return {"type": "http.request", "body": body, "more_body": False}

        messages: List[Dict[str, Any]] = []

        async def send(message):
            messages.append(message)

        try:
            await self.app(scope, receive, send)
        except Exception as error:  # noqa: BLE001 - surface as a 500
            payload = json.dumps({"error": f"{type(error).__name__}: {error}"})
            await self._write_simple(500, payload.encode())
            return False
        status = 500
        response_headers: List[Tuple[bytes, bytes]] = []
        chunks: List[bytes] = []
        for message in messages:
            if message["type"] == "http.response.start":
                status = message["status"]
                response_headers = list(message.get("headers", []))
            elif message["type"] == "http.response.body":
                chunks.append(message.get("body", b""))
        response_body = b"".join(chunks)
        keep_alive = headers.get("connection", "keep-alive").lower() != "close"
        head_lines = [f"HTTP/1.1 {status} {_PHRASES.get(status, 'Unknown')}"]
        seen_length = False
        for key, value in response_headers:
            name = key.decode("latin-1")
            if name.lower() == "content-length":
                seen_length = True
            head_lines.append(f"{name}: {value.decode('latin-1')}")
        if not seen_length:
            head_lines.append(f"Content-Length: {len(response_body)}")
        head_lines.append(f"Connection: {'keep-alive' if keep_alive else 'close'}")
        self.writer.write(
            ("\r\n".join(head_lines) + "\r\n\r\n").encode("latin-1") + response_body
        )
        await self.writer.drain()
        return keep_alive

    async def _write_simple(self, status: int, body: bytes) -> None:
        self.writer.write(
            (
                f"HTTP/1.1 {status} {_PHRASES.get(status, 'Unknown')}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
            ).encode("latin-1")
            + body
        )
        await self.writer.drain()

    # ----------------------------------------------------------- WebSocket

    async def _serve_websocket(self, path, query, headers) -> None:
        key = headers.get("sec-websocket-key")
        if not key:
            await self._write_simple(400, b'{"error": "missing websocket key"}')
            return
        accept = base64.b64encode(
            hashlib.sha1((key + WS_GUID).encode("ascii")).digest()
        ).decode("ascii")
        scope = {
            "type": "websocket",
            "asgi": {"version": "3.0"},
            "path": path,
            "query_string": query,
            "headers": [
                (k.encode("latin-1"), v.encode("latin-1"))
                for k, v in headers.items()
            ],
            "scheme": "ws",
        }
        handshake_done = False
        closed = False
        inbound: asyncio.Queue = asyncio.Queue()
        inbound.put_nowait({"type": "websocket.connect"})

        async def _reader_loop():
            while True:
                frame = await self._read_frame()
                if frame is None:
                    inbound.put_nowait({"type": "websocket.disconnect", "code": 1006})
                    return
                opcode, payload = frame
                if opcode == 0x8:  # close
                    inbound.put_nowait({"type": "websocket.disconnect", "code": 1000})
                    return
                if opcode == 0x9:  # ping -> pong
                    await self._write_frame(0xA, payload)
                    continue
                if opcode == 0x1:
                    inbound.put_nowait(
                        {"type": "websocket.receive", "text": payload.decode("utf-8")}
                    )
                elif opcode == 0x2:
                    inbound.put_nowait({"type": "websocket.receive", "bytes": payload})

        reader_task: Optional[asyncio.Task] = None

        async def receive():
            return await inbound.get()

        async def send(message):
            nonlocal handshake_done, closed, reader_task
            if message["type"] == "websocket.accept":
                self.writer.write(
                    (
                        "HTTP/1.1 101 Switching Protocols\r\n"
                        "Upgrade: websocket\r\nConnection: Upgrade\r\n"
                        f"Sec-WebSocket-Accept: {accept}\r\n\r\n"
                    ).encode("latin-1")
                )
                await self.writer.drain()
                handshake_done = True
                reader_task = asyncio.get_running_loop().create_task(_reader_loop())
            elif message["type"] == "websocket.send":
                if "text" in message and message["text"] is not None:
                    await self._write_frame(0x1, message["text"].encode("utf-8"))
                else:
                    await self._write_frame(0x2, message.get("bytes", b""))
            elif message["type"] == "websocket.close":
                if handshake_done and not closed:
                    await self._write_frame(
                        0x8, struct.pack("!H", message.get("code", 1000))
                    )
                elif not handshake_done:
                    await self._write_simple(404, b'{"error": "not found"}')
                closed = True

        try:
            await self.app(scope, receive, send)
        finally:
            if reader_task is not None and not reader_task.done():
                reader_task.cancel()

    async def _read_frame(self) -> Optional[Tuple[int, bytes]]:
        try:
            first = await self.reader.readexactly(2)
        except (asyncio.IncompleteReadError, ConnectionError):
            return None
        opcode = first[0] & 0x0F
        masked = bool(first[1] & 0x80)
        length = first[1] & 0x7F
        if length == 126:
            length = struct.unpack("!H", await self.reader.readexactly(2))[0]
        elif length == 127:
            length = struct.unpack("!Q", await self.reader.readexactly(8))[0]
        if length > MAX_BODY:
            return None
        mask = await self.reader.readexactly(4) if masked else b""
        payload = await self.reader.readexactly(length) if length else b""
        if masked:
            payload = bytes(
                byte ^ mask[index % 4] for index, byte in enumerate(payload)
            )
        return opcode, payload

    async def _write_frame(self, opcode: int, payload: bytes) -> None:
        header = bytes([0x80 | opcode])
        length = len(payload)
        if length < 126:
            header += bytes([length])
        elif length < 1 << 16:
            header += bytes([126]) + struct.pack("!H", length)
        else:
            header += bytes([127]) + struct.pack("!Q", length)
        self.writer.write(header + payload)
        await self.writer.drain()


class StdlibASGIServer:
    """Bind the app to a TCP port and serve until stopped."""

    def __init__(self, app, host: str = "127.0.0.1", port: int = 8000) -> None:
        self.app = app
        self.host = host
        self.port = port
        self._server: Optional[asyncio.base_events.Server] = None
        #: Open connections: handler task -> its stream writer.
        self._connections: Dict[asyncio.Task, asyncio.StreamWriter] = {}

    async def start(self) -> None:
        """Start listening (resolves ``port=0`` to the bound port)."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def _handle(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._connections[task] = writer
        try:
            await _Connection(self.app, reader, writer).serve()
        finally:
            del self._connections[task]

    async def serve_forever(self) -> None:
        """Start (if needed) and block serving connections."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting, close open (kept-alive) connections, close the listener."""
        if self._server is not None:
            self._server.close()
            for writer in self._connections.values():
                writer.close()
            await asyncio.gather(*self._connections, return_exceptions=True)
            await self._server.wait_closed()
            self._server = None


async def _serve_with_lifespan(app, host: str, port: int, on_ready) -> None:
    """Lifespan startup, bind, ``on_ready``, serve forever, shutdown on cancel."""
    to_app: asyncio.Queue = asyncio.Queue()
    from_app: asyncio.Queue = asyncio.Queue()
    lifespan = asyncio.get_running_loop().create_task(
        app({"type": "lifespan", "asgi": {"version": "3.0"}}, to_app.get, from_app.put)
    )
    to_app.put_nowait({"type": "lifespan.startup"})
    await from_app.get()  # startup.complete
    server = StdlibASGIServer(app, host, port)
    try:
        await server.start()
        on_ready(server.host, server.port)
        await server.serve_forever()
    finally:
        await server.stop()
        to_app.put_nowait({"type": "lifespan.shutdown"})
        try:
            await asyncio.wait_for(lifespan, 5.0)
        except asyncio.TimeoutError:  # pragma: no cover - defensive
            lifespan.cancel()


def run_server(
    app, on_ready: Callable[[str, int], None], host: str = "127.0.0.1", port: int = 8000
) -> None:
    """Blocking entry point used by ``repro serve`` (Ctrl-C to stop); calls
    ``on_ready(host, port)`` once the socket is bound, with the bound port."""
    try:
        asyncio.run(_serve_with_lifespan(app, host, port, on_ready))
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
