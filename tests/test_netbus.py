import socket
import threading
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iea_sim.netbus import (DecodeError, EstimateMessage, LinkConfig,
                            LockstepNetwork, OversizeDatagramError,
                            PoseMessage, UdpTransport, decode, encode)

POSE = PoseMessage(sender="veh", seq=3, t=1.25, x=12.5, y=-0.75,
                   psi=0.12345678901234567, v=3.0)
EST = EstimateMessage(sender="mssp2", seq=9, t=2.5, mssp_id="mssp2",
                      x=41.0000001, y=1.5, t_capture=2.45)


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
    @settings(max_examples=300)
    def test_decode_total_on_arbitrary_bytes(self, data):
        try:
            msg = decode(data)
            assert isinstance(msg, (PoseMessage, EstimateMessage))
        except DecodeError:
            pass  # the only permitted failure mode

    def test_oversize_datagram_rejected(self):
        big = EstimateMessage(sender="m" * 2000, seq=1, t=0.0, mssp_id="x",
                              x=0.0, y=0.0, t_capture=0.0)
        with pytest.raises(OversizeDatagramError):
            encode(big)


class TestLockstepNetwork:
    def _net(self, seed=0, **kw):
        net = LockstepNetwork(LinkConfig(**kw), seed)
        net.register("veh")
        net.register("mssp1")
        return net

    def test_fixed_latency_delivery_time(self):
        net = self._net(latency_min=0.002, latency_max=0.002)
        net.send(POSE, "mssp1", now=1.000)
        assert net.deliver("mssp1", now=1.0019) == []
        assert net.deliver("mssp1", now=1.002) == [POSE]

    def test_full_drop(self):
        net = self._net(drop_probability=1.0)
        for i in range(20):
            net.send(PoseMessage("veh", i, 0.0, 0, 0, 0, 0), "mssp1", 0.0)
        assert net.deliver("mssp1", now=10.0) == []
        assert net.dropped == 20

    def test_seeded_schedule_is_reproducible(self):
        def schedule():
            net = self._net(seed=42, drop_probability=0.3)
            for i in range(50):
                net.send(PoseMessage("veh", i, i * 0.1, 0, 0, 0, 0),
                         "mssp1", i * 0.1)
            out = net.deliver("mssp1", now=100.0)
            return [(m.seq, m.t) for m in out]
        assert schedule() == schedule()

    def test_latency_samples_within_configured_range(self):
        net = self._net()  # defaults 1.5-2.0 ms
        for i in range(200):
            net.send(PoseMessage("veh", i, i * 0.02, 0, 0, 0, 0),
                     "mssp1", i * 0.02)
        net.deliver("mssp1", now=100.0)
        lats = [r[4] for r in net.records if r[2] == "mssp1"]
        assert len(lats) == 200
        assert all(0.0015 <= l <= 0.0020 for l in lats)

    def test_delivery_order_ties_broken_by_sender_seq(self):
        net = self._net(latency_min=0.001, latency_max=0.001)
        net.register("mssp2")
        a = PoseMessage("veh", 2, 0.0, 0, 0, 0, 0)
        b = PoseMessage("aaa", 9, 0.0, 0, 0, 0, 0)
        net.send(a, "mssp1", 0.0)
        net.send(b, "mssp1", 0.0)
        out = net.deliver("mssp1", 1.0)
        assert [m.sender for m in out] == ["aaa", "veh"]

    def test_unknown_destination(self):
        net = self._net()
        with pytest.raises(KeyError):
            net.send(POSE, "nobody", 0.0)


class TestUdpTransport:
    def test_drain_returns_poses_and_logs_the_receiver(self):
        epoch = time.time()
        veh = UdpTransport("veh", ("127.0.0.1", 0))
        cam = UdpTransport("mssp1", ("127.0.0.1", 0))
        veh.epoch = cam.epoch = epoch
        try:
            addr = cam._sock.getsockname()
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as junk:
                junk.sendto(b"\xffnot a wire message", addr)
            msg = replace(POSE, t=veh.now())
            veh.send(msg, addr)
            got = []
            deadline = time.monotonic() + 5.0
            while not got and time.monotonic() < deadline:
                time.sleep(0.01)
                got += cam.drain()
            assert got == [msg]
            assert cam.drain() == []
            assert cam.rejected == 1
            [(t_recv, sender, receiver, n_bytes, latency)] = cam.records
            assert (sender, receiver, n_bytes) == ("veh", "mssp1",
                                                   len(encode(msg)))
            assert latency >= 0.0 and t_recv >= msg.t
        finally:
            for transport in (cam, veh):
                transport.close()
                assert transport._sock.fileno() == -1

    def test_wait_stamps_each_datagram_on_arrival(self):
        veh = UdpTransport("veh", ("127.0.0.1", 0))
        cam = UdpTransport("mssp1", ("127.0.0.1", 0))
        veh.epoch = cam.epoch = time.time()
        sent = []

        def send():
            sent.append(replace(POSE, t=veh.now()))
            veh.send(sent[-1], cam._sock.getsockname())

        timer = threading.Timer(0.05, send)
        try:
            t_due = cam.now() + 0.3
            timer.start()
            assert cam.wait(t_due) >= t_due
            timer.join()
            assert cam.drain() == sent
            # stamped while waiting, not at the drain 0.25 s later
            [(t_recv, *_rest)] = cam.records
            assert 0.0 <= t_recv - sent[0].t < 0.1
        finally:
            timer.cancel()
            veh.close()
            cam.close()

    def test_transport_starts_no_thread(self):
        before = threading.active_count()
        transport = UdpTransport("veh", ("127.0.0.1", 0))
        try:
            assert threading.active_count() == before
        finally:
            transport.close()
