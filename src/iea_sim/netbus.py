"""Wire protocol and datagram transports.

One UTF-8 JSON object per datagram:

  Pose:     {"kind":"pose","sender":"veh","seq":N,"t":S,"x":X,"y":Y,"psi":P,"v":V}
  Estimate: {"kind":"est","sender":"mssp2","seq":N,"t":S,"mssp_id":"mssp2",
             "x":X,"y":Y,"t_capture":S}

`encode` checks a message's fields in one pass and fills one fixed
template per kind: numbers are written as `repr` writes them and names as
JSON strings, so the bytes equal `json.dumps(fields, separators=(",",
":"))`. One rule (`_refusal`) says what a field must be, and both ends
apply it: a non-finite or non-numeric number, a negative `seq` or a name
that is not a string raises ValueError at the sender and DecodeError at
the receiver.

Two transports share this codec and send by node id, encoding a message
once for all its destinations: a seeded lockstep queue with injected
uniform latency and Bernoulli drops (deterministic delivery order, ties on
delivery time broken by sender then seq), which hands over the sent
message itself, and a UDP socket per node for the distributed mode, which
decodes what arrives. A message whose float fields hold Python floats
decodes to itself, field for field and bit for bit, so node logic runs
unmodified over either and sees the same message. Both serve the node
loop (`harness._serve`) through `wait`, `now`, `drain` and `send`, and
each owns its stamp rule: lockstep, on a virtual clock that `wait` sets,
sends a message at its own `t`; UDP stamps `t` at the socket write.
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
from dataclasses import dataclass, fields, replace
from json.encoder import encode_basestring_ascii
from typing import Optional, Union

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


# filled with the names as JSON strings, seq and the numbers, whose `%r`
# is their repr because each is an exact float or int
_POSE_TEMPLATE = ('{"kind":"pose","sender":%s,"seq":%d,"t":%r,"x":%r,"y":%r,'
                  '"psi":%r,"v":%r}')
_EST_TEMPLATE = ('{"kind":"est","sender":%s,"seq":%d,"t":%r,"mssp_id":%s,'
                 '"x":%r,"y":%r,"t_capture":%r}')
_NAME_TYPES = frozenset((str,))
_NUMBER_TYPES = frozenset((float, int))
# each kind's wire name: its class, and its fields with whether each is float
_KINDS = {kind: (cls, tuple((f.name, f.type == "float") for f in fields(cls)))
          for kind, cls in (("pose", PoseMessage), ("est", EstimateMessage))}


def _refusal(key: str, value) -> Optional[str]:
    """Why a message's field `key` may not hold `value`, or None: a name
    must be a str, `seq` a non-negative int and a number a finite float or
    an int, none of them a subclass (such as bool)."""
    if key in ("sender", "mssp_id"):
        if type(value) is not str:
            return f"field {key!r} is not a string"
    elif key == "seq":
        if type(value) is not int or value < 0:
            return "field 'seq' is not a non-negative integer"
    # not math.isfinite, which overflows on an int beyond float range
    elif (type(value) not in _NUMBER_TYPES
          or not abs(value) <= sys.float_info.max):
        return f"field {key!r} is not a finite number"
    return None


def encode(msg: WireMessage) -> bytes:
    """Serialize to one JSON datagram; floats use shortest exact repr.

    Raises ValueError for a field that `_refusal` refuses, which `decode`
    would refuse, or would not give back as it is.
    """
    if isinstance(msg, PoseMessage):
        names = (msg.sender,)
        numbers = (msg.t, msg.x, msg.y, msg.psi, msg.v)
    elif isinstance(msg, EstimateMessage):
        names = (msg.sender, msg.mssp_id)
        numbers = (msg.t, msg.x, msg.y, msg.t_capture)
    else:
        raise TypeError(f"not a wire message: {type(msg)!r}")
    seq = msg.seq
    try:
        valid = (_NAME_TYPES.issuperset(map(type, names))
                 and type(seq) is int and seq >= 0
                 and _NUMBER_TYPES.issuperset(map(type, numbers))
                 and all(map(math.isfinite, numbers)))
    except OverflowError:  # an int beyond the float range
        valid = False
    if not valid:
        raise ValueError(next(why for key, value in vars(msg).items()
                              if (why := _refusal(key, value))))
    sender = encode_basestring_ascii(msg.sender)  # what json.dumps calls
    if isinstance(msg, PoseMessage):
        text = _POSE_TEMPLATE % (sender, seq, *numbers)
    else:
        t, x, y, t_capture = numbers
        text = _EST_TEMPLATE % (sender, seq, t,
                                encode_basestring_ascii(msg.mssp_id), x, y,
                                t_capture)
    data = text.encode("ascii")
    if len(data) > MAX_DATAGRAM_BYTES:
        raise OversizeDatagramError(f"datagram of {len(data)} bytes exceeds limit")
    return data


def decode(data: bytes) -> WireMessage:
    """Parse a datagram; raises DecodeError on anything malformed, such as
    a field that `_refusal` refuses. Numbers become floats."""
    try:
        obj = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError: bad UTF-8, bad JSON or an int over Python's digit
        # limit; RecursionError: arrays or objects nested too deep
        raise DecodeError(str(exc)) from exc
    if not isinstance(obj, dict):
        raise DecodeError("datagram is not a JSON object")
    kind = obj.get("kind")
    # a kind that is not a str may not hash
    if not isinstance(kind, str) or kind not in _KINDS:
        raise DecodeError(f"unknown kind {kind!r}")
    cls, spec = _KINDS[kind]
    values = []
    for key, is_float in spec:
        if key not in obj:
            raise DecodeError(f"missing field {key!r}")
        value = obj[key]
        if (why := _refusal(key, value)) is not None:
            raise DecodeError(why)
        values.append(float(value) if is_float else value)
    return cls(*values)


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

    `send` encodes a message, which validates it and gives its size, and
    every destination receives the (frozen) message itself: with Python
    floats in its float fields it is what `decode` makes of the bytes,
    because the codec writes each number as its exact repr. Each link
    draws from its own rng, seeded from `seed` (the scenario seed), and
    the heap is keyed on (delivery_time, sender, seq, send_counter), so
    delivery order is a pure function of `seed`. Every delivery is logged
    in `records` as (t_received, sender, receiver, bytes, latency). Its
    clock is virtual: `wait` sets it and `drain` delivers up to it.
    """

    def __init__(self, cfg: LinkConfig, seed: int = 0):
        self.cfg = cfg
        self.seed = seed
        self._queues: dict[str, list] = {}
        self._rngs: dict[tuple[str, str], random.Random] = {}
        self._counter = 0
        self.dropped = 0
        self.records: list[tuple] = []
        self.clock = 0.0

    def register(self, node_id: str) -> None:
        self._queues.setdefault(node_id, [])

    def _rng(self, src: str, dst: str) -> random.Random:
        key = (src, dst)
        if key not in self._rngs:
            self._rngs[key] = random.Random(f"{self.seed}|{src}|{dst}")
        return self._rngs[key]

    def wait(self, t: float) -> float:
        self.clock = t
        return t

    def now(self) -> float:
        return self.clock

    def send(self, msg: WireMessage, dests: list[str]) -> None:
        """Send at `msg.t` to each of `dests` in order; an id never
        registered raises KeyError before any draw or enqueue."""
        for dest in dests:
            if dest not in self._queues:
                raise KeyError(f"unknown destination node {dest!r}")
        if not dests:
            return
        nbytes = len(encode(msg))
        for dest in dests:
            rng = self._rng(msg.sender, dest)
            latency = rng.uniform(self.cfg.latency_min, self.cfg.latency_max)
            if (self.cfg.drop_probability > 0.0
                    and rng.random() < self.cfg.drop_probability):
                self.dropped += 1
                continue
            self._counter += 1
            heapq.heappush(self._queues[dest],
                           (msg.t + latency, msg.sender, msg.seq,
                            self._counter, nbytes, msg))

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

    def drain(self, node_id: str) -> list[WireMessage]:
        return self.deliver(node_id, self.clock)


class UdpTransport:
    """A node's datagram socket for distributed mode, bound to its address
    in `nodes`, the run's node table (`ScenarioConfig.nodes`). Each node is
    one thread. It waits for its next due time in wait(), a `select` on its
    own non-blocking socket, and stamps every datagram when it arrives.
    drain(node_id) decodes the stored arrivals and logs each in `records`
    as (t_received, sender, node_id, bytes, latency); one that does not
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
        unknown id raises KeyError before any datagram leaves. `t` becomes
        now(), so the logged latency excludes the sender's processing."""
        addrs = [self.nodes[dest] for dest in dests]
        if addrs:
            data = encode(replace(msg, t=self.now()))
            for addr in addrs:
                self._sock.sendto(data, addr)

    def drain(self, node_id: str) -> list[WireMessage]:
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
            self.records.append((t_recv, msg.sender, node_id, len(data),
                                 t_recv - msg.t))
            out.append(msg)
        return out

    def close(self) -> None:
        self._sock.close()
