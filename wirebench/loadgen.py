"""Single-threaded, closed-loop load generator for the served stack.

One process, one thread, one ``selectors`` loop.  Each TCP connection sends
its next pre-encoded ``M`` line only after the previous reply completed (a
closed loop), and an optional HTTP keep-alive connection posts rebuild specs
back to back beside them.  Replies are stored raw during the timed
phase and parsed and checked afterwards, so the generator's own CPU stays
small next to the server's (``client.cpu_share`` records how small).
"""

from __future__ import annotations

import json
import selectors
import socket
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

#: Longest any single reply may take before the run counts it as failed.
REPLY_TIMEOUT_S = 60.0


class WireError(Exception):
    """A connection dropped, timed out or broke the protocol."""


@dataclass
class Reply:
    """One answered lookup: which request, when, and the raw reply line."""

    conn: int
    index: int
    start: float
    end: float
    line: bytes


@dataclass
class RebuildReply:
    """One ``POST /rebuild`` round trip; ``spec`` indexes the posted bodies."""

    spec: int
    start: float
    end: float
    status: int
    generation: int


@dataclass
class PhaseResult:
    """What one closed-loop phase sent and received."""

    replies: List[Reply] = field(default_factory=list)
    rebuilds: List[RebuildReply] = field(default_factory=list)
    deadline: float = float("inf")
    wall: float = 0.0
    cpu: float = 0.0


def connect(port: int) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port), timeout=REPLY_TIMEOUT_S)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def rebuild_request(body: bytes) -> bytes:
    head = (
        "POST /rebuild HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode() + body


def parse_http(buffer: bytearray):
    """``(status, body, bytes used)`` once a whole response is buffered."""
    head_end = buffer.find(b"\r\n\r\n")
    if head_end < 0:
        return None
    head = bytes(buffer[:head_end]).decode("latin-1").split("\r\n")
    status = int(head[0].split()[1])
    length = 0
    for header in head[1:]:
        name, _, value = header.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    total = head_end + 4 + length
    if len(buffer) < total:
        return None
    return status, bytes(buffer[head_end + 4 : total]), total


class _Conn:
    """A non-blocking socket with at most one request in flight."""

    def __init__(self, sock: socket.socket, selector: selectors.BaseSelector) -> None:
        self.sock = sock
        self.selector = selector
        self.out = memoryview(b"")
        self.buffer = bytearray()
        self.start = 0.0
        self.busy = False
        self.writing = False
        sock.setblocking(False)
        selector.register(sock, selectors.EVENT_READ, self)

    def send(self, data: bytes, now: float) -> None:
        self.out = memoryview(data)
        self.start = now
        self.busy = True
        self.flush()

    def flush(self) -> None:
        """Write what the socket takes; watch for writability only while blocked."""
        while self.out:
            try:
                sent = self.sock.send(self.out)
            except BlockingIOError:
                if not self.writing:
                    self.selector.modify(
                        self.sock, selectors.EVENT_READ | selectors.EVENT_WRITE, self
                    )
                    self.writing = True
                return
            self.out = self.out[sent:]
        if self.writing:
            self.selector.modify(self.sock, selectors.EVENT_READ, self)
            self.writing = False

    def receive(self) -> None:
        chunk = self.sock.recv(1 << 20)
        if not chunk:
            raise WireError("connection closed by the server")
        self.buffer += chunk

    def release(self) -> None:
        """Back to a blocking socket that still times out, for later commands."""
        self.selector.unregister(self.sock)
        self.sock.settimeout(REPLY_TIMEOUT_S)


class _LineConn(_Conn):
    def __init__(self, index: int, sock, selector, requests: Sequence, cycle: bool) -> None:
        super().__init__(sock, selector)
        self.index = index
        self.requests = requests
        self.cycle = cycle
        self.next = 0

    @property
    def has_more(self) -> bool:
        return self.cycle or self.next < len(self.requests)

    def current(self):
        return self.requests[self.next % len(self.requests)]

    def send_next(self, now: float) -> None:
        self.send(self.current().line, now)

    def complete(self, now: float) -> Optional[Reply]:
        end = self.buffer.find(b"\n")
        if end < 0:
            return None
        if end + 1 != len(self.buffer):
            raise WireError(f"connection {self.index} got an unrequested reply")
        reply = Reply(self.index, self.next, self.start, now, bytes(self.buffer[:end]))
        self.buffer.clear()
        self.next += 1
        self.busy = False
        return reply


class _HttpConn(_Conn):
    def __init__(self, sock, selector, bodies: Sequence[bytes]) -> None:
        super().__init__(sock, selector)
        self.bodies = bodies
        self.posted = 0

    @property
    def has_more(self) -> bool:
        return self.posted < len(self.bodies)

    def post_next(self, now: float) -> None:
        self.send(rebuild_request(self.bodies[self.posted]), now)
        self.posted += 1

    def complete(self, now: float) -> Optional[RebuildReply]:
        parsed = parse_http(self.buffer)
        if parsed is None:
            return None
        status, body, used = parsed
        del self.buffer[:used]
        generation = json.loads(body).get("generation", 0) if status == 200 else 0
        self.busy = False
        return RebuildReply(self.posted - 1, self.start, now, status, generation)


def run_phase(
    socks: Sequence[socket.socket],
    streams: Sequence[Sequence],
    seconds: Optional[float] = None,
    rebuilds: Optional[Tuple[socket.socket, Sequence[bytes]]] = None,
) -> PhaseResult:
    """Drive the connections closed-loop and return every reply.

    With ``seconds``, each connection cycles through its stream until the
    deadline, after which no new request (or rebuild) starts and in-flight
    ones drain.  Without it, each connection sends its stream exactly once.
    ``rebuilds`` is an HTTP socket and the spec bodies it posts in order,
    each as soon as the previous one answered.
    """
    selector = selectors.DefaultSelector()
    conns = [
        _LineConn(i, sock, selector, stream, cycle=seconds is not None)
        for i, (sock, stream) in enumerate(zip(socks, streams))
    ]
    http = _HttpConn(rebuilds[0], selector, rebuilds[1]) if rebuilds is not None else None
    result = PhaseResult()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    deadline = t0 + seconds if seconds is not None else float("inf")
    result.deadline = deadline
    try:
        for conn in conns:
            conn.send_next(t0)
        while True:
            now = time.perf_counter()
            accepting = now < deadline
            if http is not None and not http.busy and accepting and http.has_more:
                http.post_next(now)
            waiting = [c for c in conns if c.busy]
            if http is not None and http.busy:
                waiting.append(http)
            more_posts = http is not None and accepting and http.has_more
            if not waiting and not more_posts:
                break
            events = selector.select(0.05)
            now = time.perf_counter()
            if not events:
                if any(now - c.start > REPLY_TIMEOUT_S for c in waiting):
                    raise WireError(f"no reply within {REPLY_TIMEOUT_S:.0f}s")
                continue
            for key, mask in events:
                conn = key.data
                if mask & selectors.EVENT_WRITE:
                    conn.flush()
                if not mask & selectors.EVENT_READ:
                    continue
                conn.receive()
                if conn is http:
                    done = http.complete(now)
                    if done is not None:
                        result.rebuilds.append(done)
                    continue
                reply = conn.complete(now)
                if reply is None:
                    continue
                result.replies.append(reply)
                if now < deadline and conn.has_more:
                    conn.send_next(now)
    finally:
        result.wall = time.perf_counter() - t0
        result.cpu = time.process_time() - cpu0
        for conn in conns + ([http] if http is not None else []):
            conn.release()
        selector.close()
    return result


def command(sock: socket.socket, line: bytes, multiline: bool = False) -> bytes:
    """Blocking one-off command (``STATS``, ``METRICS``); returns the raw reply.

    ``multiline`` reads until the ``.`` terminator line ``METRICS`` ends with.
    """
    sock.sendall(line)
    buffer = bytearray()
    terminator = b"\n.\n" if multiline else b"\n"
    while not buffer.endswith(terminator):
        chunk = sock.recv(1 << 20)
        if not chunk:
            raise WireError("connection closed during a control command")
        buffer += chunk
    return bytes(buffer)


def post_rebuild(sock: socket.socket, body: bytes, spec: int = -1) -> RebuildReply:
    """Blocking ``POST /rebuild`` on a keep-alive socket, timed."""
    start = time.perf_counter()
    sock.sendall(rebuild_request(body))
    buffer = bytearray()
    parsed = None
    while parsed is None:
        chunk = sock.recv(1 << 16)
        if not chunk:
            raise WireError("rebuild connection closed by the server")
        buffer += chunk
        parsed = parse_http(buffer)
    end = time.perf_counter()
    status, payload, _ = parsed
    generation = json.loads(payload).get("generation", 0) if status == 200 else 0
    return RebuildReply(spec, start, end, status, generation)
