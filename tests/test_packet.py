"""Tests for the packet representation."""

import pytest

from repro.netsim import ACK_BYTES, MTU_BYTES, Packet


class TestPacket:
    def test_defaults(self):
        packet = Packet(flow_id=1, seq=7)
        assert packet.size == MTU_BYTES
        assert not packet.is_ack
        assert packet.payload is None

    def test_make_ack_echoes_metadata(self):
        data = Packet(flow_id=2, seq=10, sent_time=1.5, window_at_send=42.0)
        ack = data.make_ack(now=2.0)
        assert ack.is_ack
        assert ack.flow_id == 2
        assert ack.seq == 10               # trigger sequence (SACK info)
        assert ack.ack_seq == 10           # per-packet acknowledgement
        assert ack.echo_sent_time == 1.5
        assert ack.window_at_send == 42.0
        assert ack.sent_time == 2.0
        assert ack.size == ACK_BYTES

    def test_make_ack_cumulative_override(self):
        data = Packet(flow_id=0, seq=10)
        ack = data.make_ack(now=1.0, ack_seq=11)
        assert ack.ack_seq == 11
        assert ack.seq == 10

    def test_make_ack_propagates_retransmission_flag(self):
        data = Packet(flow_id=0, seq=3, retransmission=True)
        assert data.make_ack(now=0.0).retransmission

    def test_mtu_matches_paper(self):
        """§5.3: 'UDP packets with an MTU size of 1400 bytes'."""
        assert MTU_BYTES == 1400


class TestSlottedPacket:
    def test_slots_no_dict(self):
        packet = Packet(flow_id=0, seq=1)
        with pytest.raises(AttributeError):
            packet.not_a_field = 1
        assert not hasattr(packet, "__dict__")

    def test_equality_compares_all_fields(self):
        a = Packet(flow_id=1, seq=2, sent_time=3.0)
        b = Packet(flow_id=1, seq=2, sent_time=3.0)
        c = Packet(flow_id=1, seq=2, sent_time=4.0)
        assert a == b
        assert a != c
        assert a != "not a packet"

    def test_unhashable_like_the_old_dataclass(self):
        with pytest.raises(TypeError):
            hash(Packet(flow_id=0, seq=0))
