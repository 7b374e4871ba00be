"""Packet representation shared by every protocol in the reproduction.

A single packet class serves data and acknowledgement roles.  Congestion
controllers stamp protocol-specific metadata on data packets (e.g. Verus
records the sending window a packet was emitted under, eq. 6 of the paper
needs ``W_loss``); receivers echo that metadata back on ACKs so the sender
can reconstruct per-packet context without keeping unbounded state.

``Packet`` is a hand-rolled ``__slots__`` class rather than a dataclass:
packet construction sits on the per-delivery hot path of every simulated
link, and slots cut both the per-instance memory and the attribute access
cost.  Equality still compares all fields, mirroring the previous
dataclass semantics.
"""

from __future__ import annotations

from typing import Optional

#: Default maximum transmission unit used throughout the paper's experiments.
MTU_BYTES = 1400

#: Nominal size of a bare acknowledgement.
ACK_BYTES = 40

_FIELDS = ("flow_id", "seq", "size", "sent_time", "is_ack", "ack_seq",
           "echo_sent_time", "window_at_send", "retransmission",
           "enqueue_time", "ecn", "payload")


class Packet:
    """A simulated packet.

    Attributes
    ----------
    flow_id:
        Identifier of the flow the packet belongs to.
    seq:
        Sequence number, counted in packets (not bytes).
    size:
        Wire size in bytes, including headers.
    sent_time:
        Simulation time at which the *original* transmission happened.  For
        retransmissions this is refreshed so delay samples stay meaningful
        (Karn's rule is enforced separately by the TCP sender).
    is_ack:
        True for acknowledgements travelling on the reverse path.
    ack_seq:
        For ACKs: cumulative acknowledgement (next expected seq) for TCP, or
        the per-packet seq being acknowledged for Verus/Sprout.
    echo_sent_time:
        For ACKs: the ``sent_time`` of the packet being acknowledged, echoed
        so the sender computes RTT without per-packet state.
    window_at_send:
        Verus: sending window W_i in effect when the data packet left the
        sender; echoed on the ACK (used for the delay profile and eq. 6).
    retransmission:
        True if this transmission is a retransmission.
    enqueue_time:
        Stamped by queues on entry; used for queue-delay accounting.
    payload:
        Free-form slot for protocol-specific extras (e.g. Sprout forecast).
    """

    __slots__ = _FIELDS

    def __init__(self, flow_id: int, seq: int, size: int = MTU_BYTES,
                 sent_time: float = 0.0, is_ack: bool = False,
                 ack_seq: int = -1, echo_sent_time: float = 0.0,
                 window_at_send: float = 0.0, retransmission: bool = False,
                 enqueue_time: float = 0.0, ecn: bool = False,
                 payload: Optional[dict] = None):
        self.flow_id = flow_id
        self.seq = seq
        self.size = size
        self.sent_time = sent_time
        self.is_ack = is_ack
        self.ack_seq = ack_seq
        self.echo_sent_time = echo_sent_time
        self.window_at_send = window_at_send
        self.retransmission = retransmission
        self.enqueue_time = enqueue_time
        self.ecn = ecn
        self.payload = payload

    def make_ack(self, now: float, ack_seq: Optional[int] = None,
                 size: int = ACK_BYTES) -> "Packet":
        """Build the acknowledgement for this data packet.

        ``ack_seq`` defaults to this packet's own sequence number (per-packet
        acknowledgement, as used by Verus and Sprout); TCP receivers pass the
        cumulative next-expected sequence instead.
        """
        if ack_seq is None:
            ack_seq = self.seq
        # Positional, in ``__init__`` order: every ACK is built here, and
        # a keyword call costs about twice as much.
        return Packet(self.flow_id, self.seq, size, now, True, ack_seq,
                      self.sent_time, self.window_at_send,
                      self.retransmission)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Packet:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in _FIELDS)

    # Mirror the previous dataclass(eq=True) semantics: unhashable.
    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "ACK" if self.is_ack else "DATA"
        return f"<{kind} flow={self.flow_id} seq={self.seq} size={self.size}>"
