"""Wire protocol and datagram transports.

One UTF-8 JSON object per datagram:

  Pose:     {"kind":"pose","sender":"veh","seq":N,"t":S,"x":X,"y":Y,"psi":P,"v":V}
  Estimate: {"kind":"est","sender":"mssp2","seq":N,"t":S,"mssp_id":"mssp2",
             "x":X,"y":Y,"t_capture":S}

`encode` fills one fixed template per kind: numbers are written as
`repr` writes them and names as JSON strings, so the bytes equal
`json.dumps(fields, separators=(",", ":"))`. It rejects what `decode`
would refuse: a non-finite or non-numeric number, a negative `seq` or a
name that is not a string raises ValueError at the sender.

Two transports share this codec and send by node id, encoding a message
once for all its destinations: a seeded lockstep queue with injected
uniform latency and Bernoulli drops (deterministic delivery order, ties on
delivery time broken by sender then seq), which also decodes it once, and
a UDP socket per node for the distributed mode. Node logic runs
unmodified over either.
"""

from __future__ import annotations

import heapq
import json
import math
import random
import select
import socket
import sys
import time
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
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


_POSE_TEMPLATE = ('{"kind":"pose","sender":%s,"seq":%s,"t":%s,"x":%s,"y":%s,'
                  '"psi":%s,"v":%s}')
_EST_TEMPLATE = ('{"kind":"est","sender":%s,"seq":%s,"t":%s,"mssp_id":%s,'
                 '"x":%s,"y":%s,"t_capture":%s}')


def _text(key, v) -> str:
    if not isinstance(v, str):
        raise ValueError(f"field {key!r} is not a string")
    return encode_basestring_ascii(v)  # what json.dumps(v) calls


def _seq(v) -> str:
    if not isinstance(v, int) or isinstance(v, bool) or v < 0:
        raise ValueError("field 'seq' is not a non-negative integer")
    return int.__repr__(v)


def _number(key, v) -> str:
    if isinstance(v, float):
        if math.isfinite(v):
            return float.__repr__(v)
    elif isinstance(v, int) and not isinstance(v, bool):
        return int.__repr__(v)
    raise ValueError(f"field {key!r} is not a finite number")


def encode(msg: WireMessage) -> bytes:
    """Serialize to one JSON datagram; floats use shortest exact repr.

    Raises ValueError for a field that `decode` would refuse.
    """
    if isinstance(msg, PoseMessage):
        text = _POSE_TEMPLATE % (
            _text("sender", msg.sender), _seq(msg.seq), _number("t", msg.t),
            _number("x", msg.x), _number("y", msg.y),
            _number("psi", msg.psi), _number("v", msg.v))
    elif isinstance(msg, EstimateMessage):
        text = _EST_TEMPLATE % (
            _text("sender", msg.sender), _seq(msg.seq), _number("t", msg.t),
            _text("mssp_id", msg.mssp_id), _number("x", msg.x),
            _number("y", msg.y), _number("t_capture", msg.t_capture))
    else:
        raise TypeError(f"not a wire message: {type(msg)!r}")
    data = text.encode("ascii")
    if len(data) > MAX_DATAGRAM_BYTES:
        raise OversizeDatagramError(f"datagram of {len(data)} bytes exceeds limit")
    return data


def _float(obj, key) -> float:
    v = obj[key]
    # not math.isfinite, which overflows on an int beyond float range
    if (not isinstance(v, (int, float)) or isinstance(v, bool)
            or not abs(v) <= sys.float_info.max):
        raise DecodeError(f"field {key!r} is not a finite number")
    return float(v)


def decode(data: bytes) -> WireMessage:
    """Parse a datagram; raises DecodeError on anything malformed."""
    try:
        obj = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError: bad UTF-8, bad JSON or an int over Python's digit
        # limit; RecursionError: arrays or objects nested too deep
        raise DecodeError(str(exc)) from exc
    if not isinstance(obj, dict):
        raise DecodeError("datagram is not a JSON object")
    try:
        kind = obj["kind"]
        sender = obj["sender"]
        seq = obj["seq"]
        if (not isinstance(sender, str) or not isinstance(seq, int)
                or isinstance(seq, bool) or seq < 0):
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


class LockstepNetwork:
    """Single-threaded simulated datagram network with injected latency.

    `send` encodes a message and decodes those bytes once, so the wire
    format is exercised even in lockstep, and every destination receives
    that decoded message. Each link draws from its own rng, seeded from
    `seed` (the scenario seed), and the heap is keyed on (delivery_time,
    sender, seq, send_counter), so delivery order is a pure function of
    `seed`. Every delivery is logged in `records` as (t_received, sender,
    receiver, bytes, latency).
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

    def send(self, msg: WireMessage, dests: list[str], now: float) -> None:
        """Send to each of `dests` in order; an id never registered raises
        KeyError before any draw or enqueue."""
        for dest in dests:
            if dest not in self._queues:
                raise KeyError(f"unknown destination node {dest!r}")
        if not dests:
            return
        data = encode(msg)
        nbytes, received = len(data), decode(data)
        for dest in dests:
            rng = self._rng(msg.sender, dest)
            latency = rng.uniform(self.cfg.latency_min, self.cfg.latency_max)
            if (self.cfg.drop_probability > 0.0
                    and rng.random() < self.cfg.drop_probability):
                self.dropped += 1
                continue
            self._counter += 1
            heapq.heappush(self._queues[dest],
                           (now + latency, msg.sender, msg.seq, self._counter,
                            nbytes, received))

    def deliver(self, node_id: str, now: float) -> list[WireMessage]:
        """Pop all messages due at or before `now`."""
        q = self._queues[node_id]
        out = []
        while q and q[0][0] <= now:
            t_del, sender, _seq, _n, nbytes, msg = heapq.heappop(q)
            self.records.append((t_del, sender, node_id, nbytes,
                                 t_del - msg.t))
            out.append(msg)
        return out


class UdpTransport:
    """A node's datagram socket for distributed mode, bound to its address
    in `nodes`, the run's node table (`ScenarioConfig.nodes`). Each node is
    one thread. It waits for its next due time in wait(), a `select` on its
    own non-blocking socket, and stamps every datagram when it arrives.
    drain() decodes the stored arrivals and logs each one in `records` as
    (t_received, sender, node_id, bytes, latency); a datagram that does not
    decode is counted in `rejected`. Timestamps are seconds since `epoch`,
    the shared `time.time()` of t = 0 (valid for one-way latency on a
    single host); a node binds first and sets `epoch` once it is known.
    """

    def __init__(self, node_id: str, nodes: dict[str, tuple[str, int]]):
        self.node_id = node_id
        self.nodes = nodes
        self.epoch = 0.0
        self.records: list[tuple] = []
        self.rejected = 0
        self._arrivals: list[tuple[float, bytes]] = []
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            self._sock.bind(nodes[node_id])
        except BaseException:  # a taken port, say: close the unbound socket
            self._sock.close()
            raise
        self._sock.setblocking(False)

    def now(self) -> float:
        return time.time() - self.epoch

    def _receive(self) -> None:
        while True:
            # wall time, not run time: `epoch` may not be set yet. Taken
            # before the read: right after a wake the read itself takes tens
            # of microseconds, which is not link latency.
            stamp = time.time()
            try:
                data, _addr = self._sock.recvfrom(4096)
            except BlockingIOError:
                return
            self._arrivals.append((stamp, data))

    def wait(self, t_due: float) -> float:
        """Receive until the run clock reaches t_due and return the clock."""
        while (now := self.now()) < t_due:
            select.select([self._sock], [], [], t_due - now)
            self._receive()
        return now

    def send(self, msg: WireMessage, dests: list[str]) -> None:
        """One encoding of `msg` to each of `dests`, none for no dests; an
        unknown id raises KeyError before any datagram leaves."""
        addrs = [self.nodes[dest] for dest in dests]
        if addrs:
            data = encode(msg)
            for addr in addrs:
                self._sock.sendto(data, addr)

    def drain(self) -> list[WireMessage]:
        self._receive()
        arrivals, self._arrivals = self._arrivals, []
        out = []
        for stamp, data in arrivals:
            try:
                msg = decode(data)
            except DecodeError:
                self.rejected += 1  # foreign traffic on the port
                continue
            t_recv = stamp - self.epoch
            self.records.append((t_recv, msg.sender, self.node_id, len(data),
                                 t_recv - msg.t))
            out.append(msg)
        return out

    def close(self) -> None:
        self._sock.close()
