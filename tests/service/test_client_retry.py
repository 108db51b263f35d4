"""Client-side retry/backoff against a scripted socket server.

The rules under test: connection errors and timeouts retry idempotent
GETs only; HTTP 503 retries *every* method (the server refused or shed the
request before folding it, so a resend cannot double-count); other 5xx
retry GETs only; ``retries=0`` restores fail-fast.
"""

import json
import socket
import threading
import time

import pytest

from repro.exceptions import ServiceHTTPError
from repro.service import ServiceClient


class ScriptedServer:
    """A real listening socket that answers each connection's requests
    from a fixed script of (status, body) tuples, recording what arrives.
    A third element stalls the reply by that many seconds."""

    def __init__(self, script):
        self.script = list(script)
        self.requests = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(10.0)
        self.port = self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while self.script:
            try:
                connection, _ = self._listener.accept()
            except (OSError, socket.timeout):
                return
            with connection:
                connection.settimeout(10.0)
                while self.script:
                    try:
                        request = self._read_request(connection)
                    except (OSError, socket.timeout, ValueError):
                        break  # client reconnects after a drop
                    if request is None:
                        break
                    self.requests.append(request)
                    status, body, *stall = self.script.pop(0)
                    if status is None:
                        # scripted connection drop, mid-request
                        break
                    time.sleep(sum(stall))
                    payload = json.dumps(body).encode()
                    reason = {200: "OK", 500: "Error", 503: "Unavailable"}
                    try:
                        connection.sendall(
                            f"HTTP/1.1 {status} {reason.get(status, 'X')}\r\n"
                            f"Content-Type: application/json\r\n"
                            f"Content-Length: {len(payload)}\r\n\r\n".encode()
                            + payload
                        )
                    except OSError:
                        break  # the client gave up waiting and hung up

    def _read_request(self, connection):
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = connection.recv(4096)
            if not chunk:
                return None
            data += chunk
        head, _, rest = data.partition(b"\r\n\r\n")
        lines = head.decode().split("\r\n")
        method, path, _ = lines[0].split(" ", 2)
        length = 0
        for line in lines[1:]:
            if line.lower().startswith("content-length:"):
                length = int(line.split(":", 1)[1])
        while len(rest) < length:
            rest += connection.recv(4096)
        return (method, path, rest[:length])

    def close(self):
        # Closing a listener does not wake an ``accept`` blocked on it in
        # another thread; shutting it down does, so the thread ends now
        # instead of at the accept timeout.
        self._listener.shutdown(socket.SHUT_RDWR)
        self._listener.close()
        self._thread.join(timeout=10)
        assert not self._thread.is_alive()


def make_client(port, **kwargs):
    kwargs.setdefault("retries", 3)
    kwargs.setdefault("retry_base", 0.01)  # keep test backoffs tiny
    kwargs.setdefault("timeout", 10.0)
    return ServiceClient("127.0.0.1", port, **kwargs)


def test_post_retries_on_503_and_succeeds(tmp_path):
    server = ScriptedServer(
        [
            (503, {"error": "degraded"}),
            (503, {"error": "degraded"}),
            (200, {"accepted": 3}),
        ]
    )
    try:
        client = make_client(server.port)
        result = client.send_reports("demo", [1, 2, 3])
        assert result["accepted"] == 3
        client.close()
    finally:
        server.close()
    posts = [r for r in server.requests if r[0] == "POST"]
    assert len(posts) == 3
    assert posts[0][2] == posts[1][2] == posts[2][2]  # identical resends


def test_post_does_not_retry_other_5xx():
    server = ScriptedServer([(500, {"error": "boom"})])
    try:
        client = make_client(server.port)
        with pytest.raises(ServiceHTTPError, match="500"):
            client.send_reports("demo", [1])
        client.close()
    finally:
        server.close()
    assert len(server.requests) == 1


def test_get_retries_on_500():
    server = ScriptedServer(
        [(500, {"error": "boom"}), (200, {"status": "ok"})]
    )
    try:
        client = make_client(server.port)
        assert client.healthz()["status"] == "ok"
        client.close()
    finally:
        server.close()
    assert len(server.requests) == 2


def test_get_retries_on_connection_drop():
    server = ScriptedServer([(None, None), (200, {"status": "ok"})])
    try:
        client = make_client(server.port)
        assert client.healthz()["status"] == "ok"
        client.close()
    finally:
        server.close()
    assert len(server.requests) == 2


def test_post_does_not_retry_connection_drop():
    """A dropped POST is ambiguous — the server may have folded it — so
    the client must surface the error, never silently resend."""
    server = ScriptedServer([(None, None), (200, {"accepted": 1})])
    try:
        client = make_client(server.port)
        with pytest.raises(OSError):
            client.send_reports("demo", [1])
        client.close()
    finally:
        server.close()
    assert len(server.requests) == 1


#: A client timeout and a scripted stall between one and two timeouts long:
#: the first attempt times out, and a retry sent right after it is
#: answered when the stall ends.
TIMEOUT, STALL = 0.6, 0.9


def test_post_slower_than_timeout_raises_without_resending():
    """A POST whose reply outlasts ``timeout`` is ambiguous like a drop:
    the server may have folded it, so the client raises after one send."""
    server = ScriptedServer([(200, {"accepted": 1}, STALL)])
    try:
        client = make_client(server.port, timeout=TIMEOUT)
        with pytest.raises(TimeoutError):
            client.send_reports("demo", [1])
        client.close()
    finally:
        server.close()
    assert [request[0] for request in server.requests] == ["POST"]


def test_get_slower_than_timeout_retries_and_succeeds():
    server = ScriptedServer([(200, {"status": "late"}, STALL), (200, {"status": "ok"})])
    try:
        client = make_client(server.port, timeout=TIMEOUT)
        assert client.healthz()["status"] == "ok"
        client.close()
    finally:
        server.close()
    assert [request[0] for request in server.requests] == ["GET", "GET"]


def test_retries_zero_fails_fast():
    server = ScriptedServer([(503, {"error": "degraded"})])
    try:
        client = make_client(server.port, retries=0)
        with pytest.raises(ServiceHTTPError, match="503"):
            client.send_reports("demo", [1])
        client.close()
    finally:
        server.close()
    assert len(server.requests) == 1


def test_rejects_negative_retries():
    with pytest.raises(Exception, match="retries"):
        ServiceClient(retries=-1)
