"""The coalescing lookup client: transport plumbing and failure hygiene.

The batch-coalescing behaviour itself is covered by
``tests/server/test_batch_query.py``; here the focus is the client's
contract with its (pluggable) transport — in particular that a
malformed batch response can never strand a caller on a slot that will
never resolve.
"""

import random
import threading

import pytest

from repro.clock import SimClock
from repro.errors import EndpointUnreachableError
from repro.net import EventLoopServer, PipeliningClient
from repro.protocol import (
    QuerySoftwareBatchResponse,
    QuerySoftwareItem,
    SoftwareInfoResponse,
    decode_with,
    encode_with,
)
from repro.server import ReputationServer, VoteGate

from repro.client import CoalescingLookupClient


def _item(index: int) -> QuerySoftwareItem:
    return QuerySoftwareItem(
        software_id=("%02x" % index) * 20,
        file_name=f"app{index}.exe",
        file_size=1000 + index,
        vendor=None,
        version="1.0",
    )


def _info(index: int) -> SoftwareInfoResponse:
    return SoftwareInfoResponse(
        software_id=("%02x" % index) * 20, known=True, score=5.0
    )


class _ScriptedTransport:
    """A fake transport that answers from a canned list of responses."""

    def __init__(self, responses, codec="xml"):
        self.codec = codec
        self._responses = list(responses)
        self.requests = []
        self.round_trips = 0
        self.closed = False

    def request(self, payload: bytes) -> bytes:
        self.requests.append(decode_with(self.codec, payload))
        self.round_trips += 1
        return encode_with(self.codec, self._responses.pop(0))

    def close(self) -> None:
        self.closed = True


class TestShortResultRegression:
    """A batch answer must carry exactly one result per item."""

    @pytest.mark.parametrize("results_returned", [0, 1, 5], ids=str)
    def test_mismatched_result_count_fails_every_caller(self, results_returned):
        response = QuerySoftwareBatchResponse(
            results=tuple(_info(i) for i in range(results_returned))
        )
        transport = _ScriptedTransport([response])
        client = CoalescingLookupClient(transport=transport)
        # Three callers coalesce into one batch behind a blocked leader.
        client._io_lock.acquire()
        results, errors = {}, {}

        def lookup(index: int) -> None:
            try:
                results[index] = client.query(_item(index))
            except Exception as exc:
                errors[index] = exc

        threads = [
            threading.Thread(target=lookup, args=(i,)) for i in range(3)
        ]
        for thread in threads:
            thread.start()
        while len(client._pending) < 3:
            pass
        client._io_lock.release()  # the leader ships a 3-item batch
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads), (
            "a caller is stranded on an unresolved slot"
        )
        # Nobody got a result; everybody got the descriptive error.
        assert results == {}
        assert sorted(errors) == [0, 1, 2]
        for error in errors.values():
            assert isinstance(error, EndpointUnreachableError)
            assert f"{results_returned} results for 3 items" in str(error)

    def test_matched_result_count_resolves_in_item_order(self):
        response = QuerySoftwareBatchResponse(
            results=tuple(_info(i) for i in range(2))
        )
        transport = _ScriptedTransport([response])
        client = CoalescingLookupClient(transport=transport)
        client._io_lock.acquire()
        results = {}

        def lookup(index: int) -> None:
            results[index] = client.query(_item(index))

        threads = [
            threading.Thread(target=lookup, args=(i,)) for i in range(2)
        ]
        for thread in threads:
            thread.start()
        while len(client._pending) < 2:
            pass
        # Answers map to items by position in the shipped batch.
        order = [item.software_id for item, _ in client._pending]
        client._io_lock.release()
        for thread in threads:
            thread.join(timeout=10)
        shipped = transport.requests[0]
        assert [item.software_id for item in shipped.items] == order
        # Each caller's answer is the result at its item's batch position.
        for index, info in results.items():
            position = order.index(_item(index).software_id)
            assert info.software_id == _info(position).software_id


class TestTransportPlumbing:
    def test_codec_follows_the_transport(self):
        transport = _ScriptedTransport([], codec="binary")
        client = CoalescingLookupClient(transport=transport)
        assert client.codec == "binary"

    def test_transport_exception_fails_the_batch_not_the_process(self):
        class Broken:
            codec = "xml"
            round_trips = 0

            def request(self, payload):
                raise EndpointUnreachableError("wire gone")

            def close(self):
                pass

        client = CoalescingLookupClient(transport=Broken())
        with pytest.raises(EndpointUnreachableError, match="wire gone"):
            client.query(_item(0))

    def test_close_closes_the_transport(self):
        transport = _ScriptedTransport([])
        with CoalescingLookupClient(transport=transport):
            pass
        assert transport.closed

    def test_requires_address_without_transport(self):
        with pytest.raises(ValueError):
            CoalescingLookupClient()


class TestOverPipelinedBinary:
    """End to end: coalesced batches over the negotiated binary wire."""

    def test_lookup_over_event_loop_and_binary_codec(self):
        server = ReputationServer(
            clock=SimClock(), puzzle_difficulty=0, rng=random.Random(5)
        )
        server.gate = VoteGate(server.engine, burst=10_000.0)
        token = server.accounts.register("user0", "password", "u@x.org")
        server.accounts.activate("user0", token)
        server.engine.enroll_user("user0")
        session = server.accounts.login("user0", "password")
        for index in range(4):
            item = _item(index)
            server.engine.register_software(
                software_id=item.software_id,
                file_name=item.file_name,
                file_size=item.file_size,
                vendor=item.vendor,
                version=item.version,
            )
            server.engine.cast_vote("user0", item.software_id, index + 1)
        server.clock.advance(86400)
        server.run_daily_batch()

        with EventLoopServer(server.handle_bytes) as transport_server:
            host, port = transport_server.address
            pipe = PipeliningClient(host, port, codec="binary")
            assert pipe.codec == "binary"
            with CoalescingLookupClient(
                session=session, transport=pipe
            ) as client:
                for index in range(4):
                    info = client.query(_item(index))
                    assert info.software_id == _item(index).software_id
                    assert info.known
                assert client.codec == "binary"
                assert client.batches_sent == 4


class _FailingThenOkTransport:
    """Fails the first N requests, then answers like the scripted one.

    ``on_failure`` runs inside the failing request — the retry-window
    hook the atomicity regression test uses to queue a late waiter
    while the original batch is mid-retry.
    """

    def __init__(self, failures, responses, codec="xml", on_failure=None):
        self.codec = codec
        self._failures = failures
        self._responses = list(responses)
        self.requests = []
        self.round_trips = 0
        self._on_failure = on_failure

    def request(self, payload: bytes) -> bytes:
        self.requests.append(decode_with(self.codec, payload))
        self.round_trips += 1
        if self._failures > 0:
            self._failures -= 1
            if self._on_failure is not None:
                hook, self._on_failure = self._on_failure, None
                hook()
            raise EndpointUnreachableError("chaos: transport failed")
        return encode_with(self.codec, self._responses.pop(0))

    def close(self) -> None:
        pass


class TestAtomicBatchRetry:
    """A retried batch never re-coalesces with waiters that queued
    mid-flight: it succeeds or fails for its original slots only."""

    def _client(self, transport, attempts=3):
        from repro.client.resilience import ResilientCaller, RetryPolicy

        return CoalescingLookupClient(
            transport=transport,
            resilience=ResilientCaller(
                policy=RetryPolicy(max_attempts=attempts, deadline=60.0),
                rng=random.Random(0),
                sleep=lambda seconds: None,
                now=SimClock().now,
            ),
        )

    def test_retry_resends_exactly_the_original_items(self):
        late_arrival = threading.Event()
        late_done = threading.Event()
        results = {}

        transport = _FailingThenOkTransport(
            failures=1,
            responses=[
                QuerySoftwareBatchResponse(results=(_info(0),)),
                QuerySoftwareBatchResponse(results=(_info(1),)),
            ],
            on_failure=late_arrival.set,
        )
        client = self._client(transport)

        def late_waiter():
            late_arrival.wait(timeout=5.0)
            results["late"] = client.query(_item(1))
            late_done.set()

        thread = threading.Thread(target=late_waiter, daemon=True)
        thread.start()
        results["original"] = client.query(_item(0))
        assert late_done.wait(timeout=5.0)
        thread.join(timeout=5.0)

        # Attempt 1 and its retry carried ONLY the original item; the
        # late waiter rode a separate batch afterwards.
        sent = [
            tuple(item.software_id for item in request.items)
            for request in transport.requests
        ]
        original, late = _item(0).software_id, _item(1).software_id
        assert sent[0] == (original,)
        assert sent[1] == (original,)  # the retry did not grow
        assert (late,) in sent[2:]
        assert results["original"].software_id == original
        assert results["late"].software_id == late

    def test_exhausted_retries_fail_only_the_original_slots(self):
        late_arrival = threading.Event()
        late_done = threading.Event()
        outcome = {}

        transport = _FailingThenOkTransport(
            failures=2,  # both attempts of the original batch die
            responses=[QuerySoftwareBatchResponse(results=(_info(1),))],
            on_failure=late_arrival.set,
        )
        client = self._client(transport, attempts=2)

        def late_waiter():
            late_arrival.wait(timeout=5.0)
            outcome["late"] = client.query(_item(1))
            late_done.set()

        thread = threading.Thread(target=late_waiter, daemon=True)
        thread.start()
        from repro.errors import RetryBudgetExceededError

        with pytest.raises(RetryBudgetExceededError):
            client.query(_item(0))
        assert late_done.wait(timeout=5.0)
        thread.join(timeout=5.0)

        # The late caller was untouched by the doomed batch's fate.
        assert outcome["late"].software_id == _item(1).software_id

    def test_without_resilience_behaviour_is_single_shot(self):
        transport = _FailingThenOkTransport(failures=1, responses=[])
        client = CoalescingLookupClient(transport=transport)
        with pytest.raises(EndpointUnreachableError):
            client.query(_item(0))
        assert transport.round_trips == 1
