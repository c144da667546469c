"""The bundled stdlib ASGI server, exercised over real TCP sockets.

HTTP requests go through ``urllib``; the WebSocket handshake and framing
are driven by a tiny raw-socket client below (masked client frames, as RFC
6455 requires of clients), so the server's frame codec is tested against
bytes it does not produce itself.
"""

import asyncio
import base64
import hashlib
import json
import os
import socket
import struct
import threading
import urllib.error
import urllib.request

import pytest

from repro.service.app import create_app
from repro.service.httpd import WS_GUID, StdlibASGIServer

DURATION = 4.0


class _ServerThread:
    """The stdlib server on an ephemeral port, on a background loop."""

    def __init__(self):
        self.loop = asyncio.new_event_loop()
        self.app = create_app(auto_drive=False)
        self.server = StdlibASGIServer(self.app, "127.0.0.1", 0)
        self.loop.run_until_complete(self.server.start())
        self.port = self.server.port
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        try:
            self.loop.run_until_complete(self.server.serve_forever())
        except asyncio.CancelledError:
            pass

    def stop(self):
        self.loop.call_soon_threadsafe(
            lambda: [task.cancel() for task in asyncio.all_tasks(self.loop)]
        )
        self._thread.join(timeout=5)

    def request(self, method, path, body=None):
        data = None if body is None else json.dumps(body).encode()
        request = urllib.request.Request(
            f"http://127.0.0.1:{self.port}{path}", data=data, method=method
        )
        if data is not None:
            request.add_header("Content-Type", "application/json")
        try:
            with urllib.request.urlopen(request, timeout=5) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())


@pytest.fixture(scope="module")
def server():
    srv = _ServerThread()
    yield srv
    srv.stop()


# --------------------------------------------------------------------- HTTP


def test_full_session_lifecycle_over_tcp(server):
    status, payload = server.request("GET", "/healthz")
    assert status == 200 and payload["status"] == "ok"

    status, created = server.request(
        "POST",
        "/sessions",
        {"scenario": "urban-grid", "n": 4, "seed": 0, "duration": DURATION,
         "start": True},
    )
    assert status == 201
    sid = created["id"]

    status, stepped = server.request(
        "POST", f"/sessions/{sid}/step", {"max_events": 25}
    )
    assert status == 200
    assert stepped["outcome"]["events_fired"] == 25

    status, finished = server.request("POST", f"/sessions/{sid}/fast-forward")
    assert status == 200
    assert finished["status"]["state"] == "finished"
    assert finished["report"]["duration_s"] == DURATION

    status, _ = server.request("DELETE", f"/sessions/{sid}")
    assert status == 200


def test_error_statuses_over_tcp(server):
    assert server.request("GET", "/sessions/s9999")[0] == 404
    assert server.request("POST", "/sessions", {})[0] == 400


def test_keep_alive_serves_multiple_requests_per_connection(server):
    with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
        for _ in range(2):
            sock.sendall(
                b"GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n"
            )
            head = b""
            while b"\r\n\r\n" not in head:
                head += sock.recv(4096)
            headers, _, body_start = head.partition(b"\r\n\r\n")
            assert headers.startswith(b"HTTP/1.1 200")
            length = int(
                [line for line in headers.split(b"\r\n")
                 if line.lower().startswith(b"content-length")][0].split(b":")[1]
            )
            body = body_start
            while len(body) < length:
                body += sock.recv(4096)
            assert json.loads(body[:length])["status"] == "ok"


# ---------------------------------------------------------------- WebSocket


def _mask(payload: bytes) -> bytes:
    key = os.urandom(4)
    masked = bytes(b ^ key[i % 4] for i, b in enumerate(payload))
    return key + masked


def _send_frame(sock, opcode: int, payload: bytes) -> None:
    length = len(payload)
    head = bytes([0x80 | opcode])
    if length < 126:
        head += bytes([0x80 | length])
    else:
        head += bytes([0x80 | 126]) + struct.pack("!H", length)
    sock.sendall(head + _mask(payload))


class _FrameReader:
    """Reads server frames, starting from bytes already received.

    The server may send its first frame in the same TCP segment as the
    ``101`` response head, so whatever followed ``\r\n\r\n`` in the
    handshake read is the start of the frame stream, not something to drop.
    """

    def __init__(self, sock, pending: bytes = b"") -> None:
        self.sock = sock
        self.pending = pending

    def exact(self, n: int) -> bytes:
        while len(self.pending) < n:
            chunk = self.sock.recv(4096)
            if not chunk:
                raise EOFError("socket closed")
            self.pending += chunk
        data, self.pending = self.pending[:n], self.pending[n:]
        return data

    def frame(self):
        first = self.exact(2)
        opcode = first[0] & 0x0F
        length = first[1] & 0x7F
        if length == 126:
            length = struct.unpack("!H", self.exact(2))[0]
        elif length == 127:
            length = struct.unpack("!Q", self.exact(8))[0]
        return opcode, self.exact(length)


def test_websocket_stream_over_tcp(server):
    _, created = server.request(
        "POST",
        "/sessions",
        {"scenario": "urban-grid", "n": 4, "seed": 1, "duration": DURATION,
         "start": True},
    )
    sid = created["id"]
    key = base64.b64encode(os.urandom(16)).decode()
    expected_accept = base64.b64encode(
        hashlib.sha1((key + WS_GUID).encode()).digest()
    ).decode()
    with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
        sock.sendall(
            (
                f"GET /sessions/{sid}/stream HTTP/1.1\r\n"
                "Host: localhost\r\nUpgrade: websocket\r\n"
                "Connection: Upgrade\r\n"
                f"Sec-WebSocket-Key: {key}\r\n"
                "Sec-WebSocket-Version: 13\r\n\r\n"
            ).encode()
        )
        head = b""
        while b"\r\n\r\n" not in head:
            head += sock.recv(4096)
        head, _, rest = head.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 101")
        assert expected_accept.encode() in head
        reader = _FrameReader(sock, rest)

        opcode, payload = reader.frame()
        assert opcode == 0x1
        hello = json.loads(payload)
        assert hello["type"] == "hello" and hello["id"] == sid

        # A ping is answered with a pong carrying the same payload.
        _send_frame(sock, 0x9, b"ping-me")
        opcode, payload = reader.frame()
        assert (opcode, payload) == (0xA, b"ping-me")

        # Advance the session over HTTP; the tick arrives on the stream.
        server.request("POST", f"/sessions/{sid}/step", {"max_events": 20})
        opcode, payload = reader.frame()
        tick = json.loads(payload)
        assert tick["type"] == "tick" and tick["events_fired"] == 20

        _send_frame(sock, 0x8, struct.pack("!H", 1000))
