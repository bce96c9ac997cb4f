"""Network transports.

The paper's deployment is a client talking to a web server over the
Internet, optionally through Tor (Sec. 2.2).  :class:`~repro.net.transport.Network`
provides simulated request/response delivery between named endpoints with
pluggable latency and loss; :mod:`~repro.net.anonymity` builds Tor-like
relay circuits so the server cannot see which client address originated a
request.  One real-socket server serves the same byte-level entry
point: :mod:`~repro.net.evloop` (N selector loops multiplexing
thousands of persistent connections), speaking the frame grammar, HELLO
codec negotiation, and correlation-id pipelining of
:mod:`~repro.net.framing`.  Its client is :mod:`~repro.net.pipelining`
(many requests in flight on one connection, or one at a time in
lockstep).  :mod:`~repro.net.chaos` is the deterministic
fault-injection harness that sits in front of the real server (or the
simulated network) and replays scripted failure schedules.
"""

from .transport import Network, Endpoint, DeliveryStats, LatencyModel
from .chaos import ChaosNetwork, ChaosProxy, ChaosSchedule, Fault
from .anonymity import AnonymityNetwork, Circuit
from .framing import (
    MAX_FRAME_BYTES,
    ConnectionProtocol,
    FrameAssembler,
    make_hello,
    pack_correlated,
    parse_hello,
    read_frame,
    unpack_correlated,
    write_frame,
)
from .evloop import EventLoopServer
from .pipelining import PendingReply, PipeliningClient

__all__ = [
    "Network",
    "Endpoint",
    "DeliveryStats",
    "LatencyModel",
    "ChaosNetwork",
    "ChaosProxy",
    "ChaosSchedule",
    "Fault",
    "AnonymityNetwork",
    "Circuit",
    "EventLoopServer",
    "PipeliningClient",
    "PendingReply",
    "ConnectionProtocol",
    "FrameAssembler",
    "MAX_FRAME_BYTES",
    "read_frame",
    "write_frame",
    "make_hello",
    "parse_hello",
    "pack_correlated",
    "unpack_correlated",
]
