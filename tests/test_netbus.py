import gc
import json
import math
import socket
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iea_sim import netbus
from iea_sim.netbus import (DecodeError, EstimateMessage, LinkConfig,
                            LockstepNetwork, OversizeDatagramError,
                            PoseMessage, UdpTransport, decode, encode)

# datagrams that json.loads accepts or refuses in ways other than a
# JSONDecodeError: a number beyond float range, nesting past the
# recursion limit that still fits one 4096-byte read, and a boolean seq
# from a known camera, which `encode` never writes
HOSTILE = [b'{"kind":"pose","sender":"veh","seq":1,"t":1' + b"0" * 400
           + b',"x":0,"y":0,"psi":0,"v":0}',
           b"[" * 4000,
           b'{"kind":"est","sender":"mssp1","seq":true,"t":1.0,'
           b'"mssp_id":"mssp1","x":0.0,"y":0.0,"t_capture":0.95}']

POSE = PoseMessage(sender="veh", seq=3, t=1.25, x=12.5, y=-0.75,
                   psi=0.12345678901234567, v=3.0)
EST = EstimateMessage(sender="mssp2", seq=9, t=2.5, mssp_id="mssp2",
                      x=41.0000001, y=1.5, t_capture=2.45)
CAMERAS = ("mssp1", "mssp2", "mssp3")
# signed zeros, subnormals, the smallest normal and the ends of the range
EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               2.225073858507201e-308, 1e308, -1e308, 1.7976931348623157e308,
               -1.7976931348623157e308)
LOOPBACK = ("127.0.0.1", 0)  # any free port


def udp_nodes(*node_ids):
    """Transports for `node_ids` on free loopback ports, sharing one table
    of their addresses."""
    table = dict.fromkeys(node_ids, LOOPBACK)
    transports = [UdpTransport(node_id, table) for node_id in node_ids]
    for transport in transports:
        table[transport.node_id] = transport._sock.getsockname()
    return transports


class TestCodec:
    def test_pose_roundtrips_exactly(self):
        assert decode(encode(POSE)) == POSE

    def test_estimate_roundtrips_exactly(self):
        assert decode(encode(EST)) == EST

    def test_wire_format_keys(self):
        import json
        obj = json.loads(encode(POSE))
        assert set(obj) == {"kind", "sender", "seq", "t", "x", "y", "psi", "v"}
        obj = json.loads(encode(EST))
        assert set(obj) == {"kind", "sender", "seq", "t", "mssp_id", "x", "y",
                            "t_capture"}

    def test_unknown_kind_is_decode_error(self):
        with pytest.raises(DecodeError):
            decode(b'{"kind":"mystery","sender":"a","seq":1}')

    def test_missing_field_is_decode_error(self):
        with pytest.raises(DecodeError):
            decode(b'{"kind":"pose","sender":"veh","seq":1}')

    def test_non_finite_rejected(self):
        with pytest.raises(DecodeError):
            decode(b'{"kind":"pose","sender":"veh","seq":1,"t":1,'
                   b'"x":NaN,"y":0,"psi":0,"v":0}')

    @given(st.binary(max_size=300))
    @settings(max_examples=300, deadline=None)
    def test_decode_total_on_arbitrary_bytes(self, data):
        try:
            msg = decode(data)
            assert isinstance(msg, (PoseMessage, EstimateMessage))
        except DecodeError:
            pass  # the only permitted failure mode

    @pytest.mark.parametrize("data", HOSTILE,
                             ids=["huge_int", "deep_nesting", "bool_seq"])
    def test_hostile_datagram_is_decode_error(self, data):
        with pytest.raises(DecodeError):
            decode(data)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_encode_matches_json_dumps(self, data):
        # finite ints and floats as json.dumps writes them; names that need
        # escaping, including control and non-ASCII characters
        number = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                           st.integers(-2**70, 2**70))
        name = st.text(max_size=20)
        if data.draw(st.booleans()):
            kind = "pose"
            msg = PoseMessage(data.draw(name), data.draw(st.integers(0, 2**64)),
                              *(data.draw(number) for _ in range(5)))
        else:
            kind = "est"
            msg = EstimateMessage(data.draw(name),
                                  data.draw(st.integers(0, 2**64)),
                                  data.draw(number), data.draw(name),
                                  *(data.draw(number) for _ in range(3)))
        fields = {"kind": kind, **vars(msg)}
        assert encode(msg) == json.dumps(
            fields, separators=(",", ":")).encode("utf-8")

    @settings(max_examples=300, deadline=None)
    @given(st.booleans(),
           st.lists(st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(
               allow_nan=False, allow_infinity=False)), min_size=5, max_size=5),
           st.integers(0, 2**63), st.text(max_size=20), st.text(max_size=20))
    def test_decode_of_encode_is_the_message(self, pose, floats, seq, sender,
                                             mssp_id):
        # lockstep hands the sent message itself to its receivers, which
        # is exact only if the bytes decode to it: equal fields, Python
        # floats, and the same bits (float.hex tells -0.0 from 0.0)
        if pose:
            msg = PoseMessage(sender, seq, *floats)
            float_fields = ("t", "x", "y", "psi", "v")
        else:
            msg = EstimateMessage(sender, seq, floats[0], mssp_id,
                                  *floats[1:4])
            float_fields = ("t", "x", "y", "t_capture")
        back = decode(encode(msg))
        assert back == msg and type(back) is type(msg)
        for key in float_fields:
            v = getattr(back, key)
            assert type(v) is float
            assert v.hex() == getattr(msg, key).hex(), key

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_encode_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="'t'"):
            encode(replace(POSE, t=bad))
        with pytest.raises(ValueError, match="'t_capture'"):
            encode(replace(EST, t_capture=bad))
        with pytest.raises(ValueError, match="'y'"):
            encode(replace(EST, y=bad))

    def test_encode_rejects_what_decode_refuses(self):
        for msg in (replace(POSE, seq=-1), replace(POSE, x=True),
                    replace(POSE, v="3"), replace(EST, mssp_id=None),
                    replace(POSE, sender=7)):
            with pytest.raises(ValueError):
                encode(msg)

    def test_encode_rejects_what_decode_would_not_give_back(self):
        # lockstep hands the sent message itself to its receivers, so a
        # field must already be what decode makes of its bytes: a numpy
        # float or a str subclass would reach a lockstep receiver as such
        # and a UDP one as a float or a str
        class Name(str):
            pass

        for msg, key in ((replace(POSE, x=np.float64(1.5)), "'x'"),
                         (replace(EST, t_capture=np.float64(2.0)),
                          "'t_capture'"),
                         (replace(EST, mssp_id=Name("mssp1")), "'mssp_id'")):
            with pytest.raises(ValueError, match=key):
                encode(msg)

    def test_oversize_datagram_rejected(self):
        big = EstimateMessage(sender="m" * 2000, seq=1, t=0.0, mssp_id="x",
                              x=0.0, y=0.0, t_capture=0.0)
        with pytest.raises(OversizeDatagramError):
            encode(big)


class TestLockstepNetwork:
    def _net(self, seed=0, **kw):
        net = LockstepNetwork(LinkConfig(**kw), seed)
        for node_id in ("veh",) + CAMERAS:
            net.register(node_id)
        return net

    def test_fixed_latency_delivery_time(self):
        net = self._net(latency_min=0.002, latency_max=0.002)
        pose = replace(POSE, t=1.000)
        net.send(pose, ["mssp1"])
        assert net.deliver("mssp1", now=1.0019) == []
        assert net.deliver("mssp1", now=1.002) == [pose]

    def test_full_drop(self):
        net = self._net(drop_probability=1.0)
        for i in range(20):
            net.send(PoseMessage("veh", i, 0.0, 0, 0, 0, 0), ["mssp1"])
        assert net.deliver("mssp1", now=10.0) == []
        assert net.dropped == 20

    def test_seeded_schedule_is_reproducible(self):
        def schedule():
            net = self._net(seed=42, drop_probability=0.3)
            for i in range(50):
                net.send(PoseMessage("veh", i, i * 0.1, 0, 0, 0, 0),
                         ["mssp1"])
            out = net.deliver("mssp1", now=100.0)
            return [(m.seq, m.t) for m in out]
        assert schedule() == schedule()

    def test_latency_samples_within_configured_range(self):
        net = self._net()  # defaults 1.5-2.0 ms
        for i in range(200):
            net.send(PoseMessage("veh", i, i * 0.02, 0, 0, 0, 0),
                     ["mssp1"])
        net.deliver("mssp1", now=100.0)
        lats = [r[4] for r in net.records if r[2] == "mssp1"]
        assert len(lats) == 200
        assert all(0.0015 <= l <= 0.0020 for l in lats)

    def test_delivery_order_ties_broken_by_sender_seq(self):
        net = self._net(latency_min=0.001, latency_max=0.001)
        a = PoseMessage("veh", 2, 0.0, 0, 0, 0, 0)
        b = PoseMessage("aaa", 9, 0.0, 0, 0, 0, 0)
        net.send(a, ["mssp1"])
        net.send(b, ["mssp1"])
        out = net.deliver("mssp1", 1.0)
        assert [m.sender for m in out] == ["aaa", "veh"]

    def test_unknown_destination(self):
        net = self._net()
        with pytest.raises(KeyError):
            net.send(POSE, ["nobody"])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0),
           st.lists(st.sampled_from(CAMERAS), max_size=6))
    def test_broadcast_equals_single_sends(self, seed, drop_probability,
                                           dests):
        one = self._net(seed, drop_probability=drop_probability)
        each = self._net(seed, drop_probability=drop_probability)
        for k in range(4):
            pose = PoseMessage("veh", k + 1, 0.02 * k, 3.0 * k, 0.5, 0.1, 3)
            est = replace(EST, seq=k + 1, t=0.02 * k)
            for net in (one, each):
                net.send(est, ["veh"])
            one.send(pose, dests)
            for dest in dests:
                each.send(pose, [dest])
        for node_id in ("veh",) + CAMERAS:
            assert one.deliver(node_id, 10.0) == each.deliver(node_id, 10.0)
        assert one.records == each.records
        assert one.dropped == each.dropped
        assert one._rngs.keys() == each._rngs.keys()
        for link, rng in one._rngs.items():
            assert rng.getstate() == each._rngs[link].getstate()

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.lists(st.sampled_from(CAMERAS)),
           st.data())
    def test_unknown_id_anywhere_raises_before_any_draw(self, seed, known,
                                                        data):
        net = self._net(seed, drop_probability=0.5)
        at = data.draw(st.integers(0, len(known)))
        with pytest.raises(KeyError):
            net.send(POSE, known[:at] + ["nobody"] + known[at:])
        assert net._rngs == {} and net.dropped == 0
        assert all(net.deliver(node_id, 10.0) == []
                   for node_id in ("veh",) + CAMERAS)
        assert net.records == []

    def test_virtual_clock_drains_what_deliver_would(self):
        # the node loop's surface: `wait` sets the clock, `now` reads it and
        # `drain` returns, and logs, what `deliver` at the clock would
        drained, delivered = self._net(seed=7), self._net(seed=7)
        for net in (drained, delivered):
            for k in range(10):
                net.send(PoseMessage("veh", k + 1, 0.02 * k, 0, 0, 0, 0),
                         list(CAMERAS))
        for t in (0.01, 0.05, 0.1, 0.3):
            assert drained.wait(t) == t and drained.now() == t
            for cam in CAMERAS:
                assert drained.drain(cam) == delivered.deliver(cam, t)
        assert len(drained.records) == 30
        assert drained.records == delivered.records

    def test_message_arrives_at_its_stamp_plus_latency(self):
        # the clock at the send does not matter, only the message's stamp
        net = self._net(latency_min=0.002, latency_max=0.002)
        net.wait(0.5)
        pose = replace(POSE, t=1.0)
        net.send(pose, ["mssp1"])
        net.wait(1.0019)
        assert net.drain("mssp1") == []
        net.wait(1.002)
        assert net.drain("mssp1") == [pose]
        # with the default 1.5-2.0 ms latency, each message sent at once
        # arrives within that window after its own stamp
        jittered = self._net(seed=3)
        sent = [replace(POSE, seq=k, t=stamp)
                for k, stamp in enumerate((0.25, 1.0, 1.75))]
        for msg in sent:
            jittered.send(msg, ["mssp1"])
        for msg in sent:
            jittered.wait(msg.t + 0.0014)
            assert jittered.drain("mssp1") == []
            jittered.wait(msg.t + 0.0021)
            assert jittered.drain("mssp1") == [msg]
            t_recv = jittered.records[-1][0]
            assert msg.t + 0.0015 <= t_recv <= msg.t + 0.0020


class TestUdpTransport:
    def test_send_stamps_the_time_of_its_write(self):
        veh, cam = udp_nodes("veh", "mssp1")
        veh.epoch = cam.epoch = time.time()
        try:
            before = veh.now()
            veh.send(POSE, ["mssp1"])
            after = veh.now()
            got = []
            deadline = time.monotonic() + 5.0
            while not got and time.monotonic() < deadline:
                time.sleep(0.01)
                got += cam.drain("mssp1")
            [msg] = got
            assert before <= msg.t <= after < POSE.t
            assert replace(msg, t=POSE.t) == POSE
        finally:
            veh.close()
            cam.close()

    def test_drain_returns_poses_and_logs_the_receiver(self):
        epoch = time.time()
        veh, cam = udp_nodes("veh", "mssp1")
        veh.epoch = cam.epoch = epoch
        try:
            addr = cam._sock.getsockname()
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as junk:
                for data in [b"\xffnot a wire message", *HOSTILE]:
                    junk.sendto(data, addr)
            msg = replace(POSE, t=veh.now())
            veh.now = lambda: msg.t  # the stamp that the send writes
            veh.send(msg, ["mssp1"])
            got = []
            deadline = time.monotonic() + 5.0
            while not got and time.monotonic() < deadline:
                time.sleep(0.01)
                got += cam.drain("mssp1")
            assert got == [msg]
            assert cam.drain("mssp1") == []
            assert cam.rejected == 1 + len(HOSTILE)
            [(t_recv, sender, receiver, n_bytes, latency)] = cam.records
            assert (sender, receiver, n_bytes) == ("veh", "mssp1",
                                                   len(encode(msg)))
            assert latency >= 0.0 and t_recv >= msg.t
        finally:
            for transport in (cam, veh):
                transport.close()
                assert transport._sock.fileno() == -1

    def test_wait_stamps_each_datagram_on_arrival(self):
        veh, cam = udp_nodes("veh", "mssp1")
        veh.epoch = cam.epoch = time.time()
        sent = []

        def send():
            t = veh.now()
            sent.append(replace(POSE, t=t))
            veh.now = lambda: t  # the stamp that the send writes
            veh.send(sent[-1], ["mssp1"])

        timer = threading.Timer(0.05, send)
        try:
            t_due = cam.now() + 0.3
            timer.start()
            assert cam.wait(t_due) >= t_due
            timer.join()
            assert cam.drain("mssp1") == sent
            # stamped while waiting, not at the drain 0.25 s later
            [(t_recv, *_rest)] = cam.records
            assert 0.0 <= t_recv - sent[0].t < 0.1
        finally:
            timer.cancel()
            veh.close()
            cam.close()

    def test_a_failed_bind_closes_its_socket(self):
        # a port taken by another socket: the refused transport's socket is
        # closed, not left for the collector to warn about as unclosed
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as taken:
            taken.bind(LOOPBACK)
            with pytest.raises(OSError):
                UdpTransport("veh", {"veh": taken.getsockname()})
        gc.collect()

    def test_transport_starts_no_thread(self):
        before = threading.active_count()
        transport = UdpTransport("veh", {"veh": LOOPBACK})
        try:
            assert threading.active_count() == before
        finally:
            transport.close()

    @staticmethod
    def _receivers(n):
        """`n` plain sockets on free loopback ports: the raw datagrams."""
        socks = [socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
                 for _ in range(n)]
        for sock in socks:
            sock.bind(LOOPBACK)
            sock.settimeout(5.0)
        return socks

    @pytest.fixture
    def encoded(self, monkeypatch):
        """The messages passed to `encode`, call by call."""
        calls = []

        def counting_encode(msg):
            calls.append(msg)
            return encode(msg)

        monkeypatch.setattr(netbus, "encode", counting_encode)
        return calls

    def test_send_encodes_once_for_all_its_destinations(self, encoded):
        socks = self._receivers(2)
        table = {"veh": LOOPBACK, **{mid: sock.getsockname()
                                     for mid, sock in zip(CAMERAS, socks)}}
        veh = UdpTransport("veh", table)
        veh.now = lambda: POSE.t  # the stamp that the send writes
        try:
            veh.send(POSE, ["mssp1", "mssp2"])
            got = [sock.recv(4096) for sock in socks]
        finally:
            veh.close()
            for sock in socks:
                sock.close()
        assert encoded == [POSE]
        assert got == [encode(POSE)] * 2

    def test_unknown_destination_raises_before_any_datagram(self, encoded):
        [sock] = self._receivers(1)
        veh = UdpTransport("veh", {"veh": LOOPBACK,
                                   "mssp1": sock.getsockname()})
        veh.now = lambda: EST.t  # the stamp that the send writes
        try:
            with pytest.raises(KeyError):
                veh.send(POSE, ["mssp1", "nobody"])
            assert encoded == []
            # a datagram sent after the refused call is the first to arrive
            veh.send(EST, ["mssp1"])
            assert decode(sock.recv(4096)) == EST
            veh.send(POSE, [])
            assert encoded == [EST]
        finally:
            veh.close()
            sock.close()
