"""Request/response transport between simulated hosts.

Endpoints register a handler ``(source_address, payload_bytes) -> payload
bytes``; :meth:`Network.request` delivers a payload and returns the
response.  The network optionally advances a shared :class:`SimClock` by
the modelled round-trip latency and can inject message loss — which the
client code must survive (it falls back to asking the user without
community data, exactly like the real client on a dead link).

The ``source_address`` visible to the handler matters for the privacy
experiments: a direct request exposes the client's address (the paper
warns reputations servers *could* log it), while a circuit-routed request
exposes only the exit relay.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from ..clock import SimClock
from ..errors import EndpointUnreachableError, MessageDroppedError

#: An endpoint handler: (source_address, request bytes) -> response bytes.
Handler = Callable[[str, bytes], bytes]


@dataclass
class LatencyModel:
    """Round-trip latency in milliseconds: base plus uniform jitter."""

    base_ms: float = 40.0
    jitter_ms: float = 20.0

    def sample(self, rng: random.Random) -> float:
        if self.jitter_ms <= 0:
            return self.base_ms
        return self.base_ms + rng.uniform(0.0, self.jitter_ms)


@dataclass
class DeliveryStats:
    """Counters the benchmarks read."""

    requests: int = 0
    dropped: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    total_latency_ms: float = 0.0

    @property
    def mean_latency_ms(self) -> float:
        delivered = self.requests - self.dropped
        if delivered <= 0:
            return 0.0
        return self.total_latency_ms / delivered


@dataclass
class Endpoint:
    """A named host on the network."""

    address: str
    handler: Handler


class Network:
    """The simulated internet."""

    def __init__(
        self,
        clock: Optional[SimClock] = None,
        latency: Optional[LatencyModel] = None,
        loss_probability: float = 0.0,
        rng: Optional[random.Random] = None,
    ):
        if not (0.0 <= loss_probability < 1.0):
            raise ValueError("loss probability must be in [0, 1)")
        self.clock = clock
        self.latency = latency or LatencyModel()
        self.loss_probability = loss_probability
        self._rng = rng or random.Random(0)
        self._endpoints: dict[str, Endpoint] = {}
        self.stats = DeliveryStats()

    # -- topology ------------------------------------------------------------

    def register(self, address: str, handler: Handler) -> Endpoint:
        """Attach a host at *address*."""
        if address in self._endpoints:
            raise ValueError(f"address {address!r} is already registered")
        endpoint = Endpoint(address, handler)
        self._endpoints[address] = endpoint
        return endpoint

    def unregister(self, address: str) -> None:
        self._endpoints.pop(address, None)

    def is_registered(self, address: str) -> bool:
        return address in self._endpoints

    @property
    def addresses(self) -> tuple:
        return tuple(sorted(self._endpoints))

    # -- delivery ----------------------------------------------------------------

    def request(self, peer_address: str, destination: str, payload: bytes) -> bytes:
        """Deliver *payload* and return the endpoint's response.

        Raises :class:`EndpointUnreachableError` for unknown destinations
        and :class:`MessageDroppedError` on injected loss.
        """
        self.stats.requests += 1
        self.stats.bytes_sent += len(payload)
        endpoint = self._endpoints.get(destination)
        if endpoint is None:
            raise EndpointUnreachableError(
                f"no endpoint at {destination!r}"
            )
        if self.loss_probability and self._rng.random() < self.loss_probability:
            self.stats.dropped += 1
            raise MessageDroppedError(
                # Simulated in-process network: addresses are synthetic
                # node names, not real peers.
                f"message from {peer_address!r} to {destination!r} was lost"  # reprolint: disable=REP009 (synthetic addresses)
            )
        latency_ms = self.latency.sample(self._rng)
        self.stats.total_latency_ms += latency_ms
        if self.clock is not None:
            # Round-trips shorter than a second truncate to no advance;
            # the clock models community time, not packet time.
            self.clock.advance(int(latency_ms / 1000.0))
        response = endpoint.handler(peer_address, payload)
        self.stats.bytes_received += len(response)
        return response
