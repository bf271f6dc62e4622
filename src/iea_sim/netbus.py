"""Wire protocol and datagram transports.

One UTF-8 JSON object per datagram:

  Pose:     {"kind":"pose","sender":"veh","seq":N,"t":S,"x":X,"y":Y,"psi":P,"v":V}
  Estimate: {"kind":"est","sender":"mssp2","seq":N,"t":S,"mssp_id":"mssp2",
             "x":X,"y":Y,"t_capture":S}

Two transports share this codec: a seeded lockstep queue with injected
uniform latency and Bernoulli drops (deterministic delivery order, ties on
delivery time broken by sender then seq), and real UDP sockets for the
distributed mode. Node logic runs unmodified over either.
"""

from __future__ import annotations

import heapq
import json
import math
import queue
import random
import socket
import threading
import time
from dataclasses import dataclass
from typing import Union

MAX_DATAGRAM_BYTES = 1400


class DecodeError(ValueError):
    """Datagram is not a valid wire message."""


class OversizeDatagramError(ValueError):
    """Encoded message exceeds MAX_DATAGRAM_BYTES."""


@dataclass(frozen=True)
class PoseMessage:
    sender: str
    seq: int
    t: float
    x: float
    y: float
    psi: float
    v: float


@dataclass(frozen=True)
class EstimateMessage:
    sender: str
    seq: int
    t: float
    mssp_id: str
    x: float
    y: float
    t_capture: float


WireMessage = Union[PoseMessage, EstimateMessage]


def encode(msg: WireMessage) -> bytes:
    """Serialize to one JSON datagram; floats use shortest exact repr."""
    if isinstance(msg, PoseMessage):
        obj = {"kind": "pose", "sender": msg.sender, "seq": msg.seq, "t": msg.t,
               "x": msg.x, "y": msg.y, "psi": msg.psi, "v": msg.v}
    elif isinstance(msg, EstimateMessage):
        obj = {"kind": "est", "sender": msg.sender, "seq": msg.seq, "t": msg.t,
               "mssp_id": msg.mssp_id, "x": msg.x, "y": msg.y,
               "t_capture": msg.t_capture}
    else:
        raise TypeError(f"not a wire message: {type(msg)!r}")
    data = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    if len(data) > MAX_DATAGRAM_BYTES:
        raise OversizeDatagramError(f"datagram of {len(data)} bytes exceeds limit")
    return data


def _float(obj, key) -> float:
    v = obj[key]
    if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
        raise DecodeError(f"field {key!r} is not a finite number")
    return float(v)


def decode(data: bytes) -> WireMessage:
    """Parse a datagram; raises DecodeError on anything malformed."""
    try:
        obj = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DecodeError(str(exc)) from exc
    if not isinstance(obj, dict):
        raise DecodeError("datagram is not a JSON object")
    try:
        kind = obj["kind"]
        sender = obj["sender"]
        seq = obj["seq"]
        if not isinstance(sender, str) or not isinstance(seq, int) or seq < 0:
            raise DecodeError("bad sender or seq")
        if kind == "pose":
            return PoseMessage(sender, seq, _float(obj, "t"), _float(obj, "x"),
                               _float(obj, "y"), _float(obj, "psi"), _float(obj, "v"))
        if kind == "est":
            mssp_id = obj["mssp_id"]
            if not isinstance(mssp_id, str):
                raise DecodeError("bad mssp_id")
            return EstimateMessage(sender, seq, _float(obj, "t"), mssp_id,
                                   _float(obj, "x"), _float(obj, "y"),
                                   _float(obj, "t_capture"))
        raise DecodeError(f"unknown kind {kind!r}")
    except KeyError as exc:
        raise DecodeError(f"missing field {exc}") from exc


@dataclass(frozen=True)
class LinkConfig:
    latency_min: float = 0.0015
    latency_max: float = 0.0020
    drop_probability: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.latency_min <= self.latency_max:
            raise ValueError("need 0 <= latency_min <= latency_max")
        if not 0.0 <= self.drop_probability <= 1.0:
            raise ValueError("drop_probability must be in [0, 1]")


def latency_percentiles(samples: list[float]) -> dict:
    if not samples:
        return {"p50": None, "p95": None, "max": None, "n": 0}
    s = sorted(samples)
    def pct(p):
        return s[min(len(s) - 1, int(p * len(s)))]
    return {"p50": pct(0.50), "p95": pct(0.95), "max": s[-1], "n": len(s)}


class LockstepNetwork:
    """Single-threaded simulated datagram network with injected latency.

    Messages are encoded at send and decoded at delivery, so the wire
    format is exercised even in lockstep. Delivery order is a pure
    function of `seed`, the scenario seed: the heap is keyed on
    (delivery_time, sender, seq, send_counter). Every delivery is logged
    in `records` as (t_received, sender, receiver, bytes, latency).
    """

    def __init__(self, cfg: LinkConfig, seed: int = 0):
        self.cfg = cfg
        self.seed = seed
        self._queues: dict[str, list] = {}
        self._rngs: dict[tuple[str, str], random.Random] = {}
        self._counter = 0
        self.dropped = 0
        self.records: list[tuple] = []

    def register(self, node_id: str) -> None:
        self._queues.setdefault(node_id, [])

    def _rng(self, src: str, dst: str) -> random.Random:
        key = (src, dst)
        if key not in self._rngs:
            self._rngs[key] = random.Random(f"{self.seed}|{src}|{dst}")
        return self._rngs[key]

    def send(self, msg: WireMessage, dest: str, now: float) -> None:
        if dest not in self._queues:
            raise KeyError(f"unknown destination node {dest!r}")
        data = encode(msg)
        rng = self._rng(msg.sender, dest)
        latency = rng.uniform(self.cfg.latency_min, self.cfg.latency_max)
        dropped = (self.cfg.drop_probability > 0.0
                   and rng.random() < self.cfg.drop_probability)
        if dropped:
            self.dropped += 1
            return
        self._counter += 1
        heapq.heappush(self._queues[dest],
                       (now + latency, msg.sender, msg.seq, self._counter, data))

    def deliver(self, node_id: str, now: float) -> list[WireMessage]:
        """Pop and decode all messages due at or before `now`."""
        q = self._queues[node_id]
        out = []
        while q and q[0][0] <= now:
            t_del, sender, _seq, _n, data = heapq.heappop(q)
            msg = decode(data)
            self.records.append((t_del, sender, node_id, len(data),
                                 t_del - msg.t))
            out.append(msg)
        return out


class UdpTransport:
    """Real datagram sockets for distributed mode.

    A background thread drains the socket into a queue; node logic pulls
    received messages synchronously via drain(), which logs each one in
    `records` as (t_received, sender, node_id, bytes, latency). Timestamps
    are seconds since `epoch`, the shared `time.time()` of t = 0 (valid
    for one-way latency on a single host); a node binds first and sets
    `epoch` once it is known.
    """

    def __init__(self, node_id: str, bind_addr: tuple[str, int]):
        self.node_id = node_id
        self.epoch = 0.0
        self.records: list[tuple] = []
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sock.bind(bind_addr)
        self._inbox: queue.Queue = queue.Queue()
        self._closed = threading.Event()
        self._thread = threading.Thread(target=self._recv_loop, daemon=True)
        self._thread.start()

    def now(self) -> float:
        return time.time() - self.epoch

    def _recv_loop(self):
        while True:
            try:
                data, _addr = self._sock.recvfrom(4096)
            except OSError:
                break
            if self._closed.is_set():
                break
            # wall time, not run time: `epoch` may not be set yet
            self._inbox.put((time.time(), data))

    def send(self, msg: WireMessage, addr: tuple[str, int]) -> None:
        self._sock.sendto(encode(msg), addr)

    def drain(self) -> list[WireMessage]:
        out = []
        while True:
            try:
                stamp, data = self._inbox.get_nowait()
            except queue.Empty:
                return out
            try:
                msg = decode(data)
            except DecodeError:
                continue  # foreign traffic on the port; ignore
            t_recv = stamp - self.epoch
            self.records.append((t_recv, msg.sender, self.node_id, len(data),
                                 t_recv - msg.t))
            out.append(msg)

    def close(self) -> None:
        self._closed.set()
        try:
            # wakes the blocked recvfrom at once; Linux does so although it
            # raises ENOTCONN on an unconnected datagram socket
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._thread.join(timeout=1.0)
        self._sock.close()
