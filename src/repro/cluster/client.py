"""Shard-aware cluster client: split, fan out, merge, fail over.

:class:`ClusterClient` fronts a whole cluster behind the single-server
client API.  Digest-keyed traffic routes through the topology's hash
ring; batch lookups split into per-shard sub-batches that fan out **in
parallel** over per-shard pipelined connections and merge back in item
order.  Non-digest requests (register, login, stats) broadcast.

Every connection is a PR 5 :class:`~repro.client.resilience.ResilientTransport`
whose factory re-reads the live :class:`~repro.cluster.topology.ClusterTopology`
address on every (re)connect — that *is* the failover router: kill a
leader, restart it on a new port, call ``topology.update_leader``, and
the next retry redials the new address and re-handshakes, while
sessions are re-established transparently on an ``auth-failed``
refusal (session stores are per-process server memory).

With ``read_from_followers=True``, lookups try the shard's follower
first and fall back to the leader when the follower is down, lagging
past its freshness bound, or unreachable — reads keep flowing through
a leader outage as long as one replica of the shard is up.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from ..crypto import Puzzle, solve_puzzle
from ..errors import ClientError, EndpointUnreachableError, NetworkError
from ..net.pipelining import CODEC_BINARY, PipeliningClient
from ..protocol import (
    ActivateRequest,
    CommentRequest,
    ErrorResponse,
    LoginRequest,
    LoginResponse,
    PuzzleRequest,
    PuzzleResponse,
    QuerySoftwareItem,
    RegisterRequest,
    RegisterResponse,
    RemarkRequest,
    StatsRequest,
    StatsResponse,
    VoteRequest,
)
from ..protocol.messages import E_AUTH
from ..client.lookup import CoalescingLookupClient
from ..client.resilience import ResilientTransport, RetryPolicy, ResilientCaller
from ..storage import create_event, create_lock, spawn_thread
from .topology import ClusterTopology

ROLE_LEADER = "leader"
ROLE_FOLLOWER = "follower"


class _Endpoint:
    """One resilient connection to a shard replica + its lookup client."""

    __slots__ = ("shard_id", "role", "transport", "lookup", "session")

    def __init__(self, shard_id: int, role: str, transport, lookup):
        self.shard_id = shard_id
        self.role = role
        self.transport = transport
        self.lookup = lookup
        self.session = ""


class ClusterClient:
    """The single-server client API, spread over an N-shard cluster."""

    def __init__(
        self,
        topology: ClusterTopology,
        codec: str = CODEC_BINARY,
        read_from_followers: bool = False,
        timeout: float = 10.0,
        retry: Optional[RetryPolicy] = None,
        rng: Optional[random.Random] = None,
    ):
        self._topology = topology
        self._codec = codec
        self._timeout = timeout
        self._retry = retry or RetryPolicy()
        self._rng = rng or random.Random(0)
        self._read_followers = read_from_followers
        self._username = ""
        self._password = ""
        self._mutex = create_lock("cluster-client")
        self._endpoints: Dict[int, Dict[str, _Endpoint]] = {}
        for info in topology.shards():
            per_shard = {
                ROLE_LEADER: self._make_endpoint(info.shard_id, ROLE_LEADER)
            }
            if read_from_followers and info.followers:
                per_shard[ROLE_FOLLOWER] = self._make_endpoint(
                    info.shard_id, ROLE_FOLLOWER
                )
            self._endpoints[info.shard_id] = per_shard
        #: Lookups answered by a follower vs. the leader fallback path.
        self.follower_reads = 0
        self.leader_reads = 0
        self.failovers = 0

    def _make_endpoint(self, shard_id: int, role: str) -> _Endpoint:
        def resolve() -> Tuple[str, int]:
            # Read the topology at *connect time*, never at construction:
            # this is how the client re-resolves after a failover.
            info = self._topology.shard(shard_id)
            if role == ROLE_FOLLOWER:
                return info.followers[0]
            return info.leader

        def factory() -> PipeliningClient:
            host, port = resolve()
            return PipeliningClient(
                host, port, codec=self._codec, timeout=self._timeout
            )

        transport = ResilientTransport(
            factory,
            caller=ResilientCaller(
                policy=self._retry, rng=random.Random(self._rng.random())
            ),
        )
        # Transport-level retry already redials and replays; stacking
        # the lookup client's own ladder on top would square the retry
        # budget, so the lookup rides the transport bare.
        lookup = CoalescingLookupClient(transport=transport, resilience=None)
        return _Endpoint(shard_id, role, transport, lookup)

    # -- account lifecycle (broadcast: every shard keeps its own store) ---

    def register(self, username: str, password: str, email: str) -> None:
        """Sign up at **every** shard leader (accounts are per-shard)."""
        for shard_id in self._topology.shard_ids():
            endpoint = self._endpoints[shard_id][ROLE_LEADER]
            puzzle_response = endpoint.transport.request_message(
                PuzzleRequest()
            )
            if not isinstance(puzzle_response, PuzzleResponse):
                raise ClientError(
                    f"shard {shard_id}: cannot obtain puzzle:"
                    f" {puzzle_response}"
                )
            solution = solve_puzzle(
                Puzzle(puzzle_response.nonce, puzzle_response.difficulty)
            )
            register_response = endpoint.transport.request_message(
                RegisterRequest(
                    username=username,
                    password=password,
                    email=email,
                    puzzle_nonce=puzzle_response.nonce,
                    puzzle_solution=solution,
                )
            )
            if not isinstance(register_response, RegisterResponse):
                raise ClientError(
                    f"shard {shard_id}: registration failed:"  # reprolint: disable=REP009 (server response object, not local credentials)
                    f" {register_response}"
                )
            activation = endpoint.transport.request_message(
                ActivateRequest(
                    username=username,
                    token=register_response.activation_token,
                )
            )
            if isinstance(activation, ErrorResponse):
                raise ClientError(
                    f"shard {shard_id}: activation failed: {activation}"  # reprolint: disable=REP009 (server response object, not local credentials)
                )

    def login(self, username: str, password: str) -> None:
        """Open a session at every endpoint (leaders *and* followers).

        Sessions are per-process server memory, so each replica needs
        its own.  A follower knows the account only once registration
        has replicated, so follower logins poll briefly before failing.
        """
        self._username, self._password = username, password
        for per_shard in self._endpoints.values():
            for endpoint in per_shard.values():
                self._login_endpoint(endpoint)

    def _login_endpoint(self, endpoint: _Endpoint, attempts: int = 40) -> None:
        pause = create_event()
        last: Optional[Exception] = None
        for _ in range(attempts):
            try:
                response = endpoint.transport.request_message(
                    LoginRequest(
                        username=self._username, password=self._password
                    )
                )
            except NetworkError as exc:
                last = exc
                break
            if isinstance(response, LoginResponse):
                endpoint.session = response.session
                endpoint.lookup.session = response.session
                return
            # Registration may not have replicated to this follower yet.
            last = ClientError(
                f"shard {endpoint.shard_id} {endpoint.role}: login"
                f" refused: {response}"
            )
            if endpoint.role != ROLE_FOLLOWER:
                break
            pause.wait(0.05)
        raise last if last is not None else ClientError("login failed")

    def _relogin(self, endpoint: _Endpoint) -> bool:
        """Re-establish a session after a server restart, if we can."""
        if not self._username:
            return False
        self._login_endpoint(endpoint)
        return True

    # -- reads: split by shard, fan out, merge ----------------------------

    def lookup(self, item: QuerySoftwareItem):
        """One lookup; routed to the digest's shard."""
        return self.lookup_batch([item])[0]

    def lookup_batch(self, items: Sequence[QuerySoftwareItem]) -> list:
        """N lookups, split per shard, fanned out in parallel, merged.

        Results come back in *items* order regardless of how the batch
        was split.
        """
        if not items:
            return []
        groups: Dict[int, List[Tuple[int, QuerySoftwareItem]]] = {}
        for index, item in enumerate(items):
            shard_id = self._topology.shard_for(item.software_id).shard_id
            groups.setdefault(shard_id, []).append((index, item))
        results: list = [None] * len(items)
        if len(groups) == 1:
            ((shard_id, members),) = groups.items()
            self._lookup_group(shard_id, members, results)
            return results
        errors: list = []
        threads = []
        for shard_id, members in groups.items():
            threads.append(
                spawn_thread(
                    self._group_worker(shard_id, members, results, errors),
                    name=f"cluster-lookup-{shard_id}",
                )
            )
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return results

    def _group_worker(self, shard_id, members, results, errors):
        def run() -> None:
            try:
                self._lookup_group(shard_id, members, results)
            except Exception as exc:  # collected; re-raised by the caller
                errors.append(exc)

        return run

    def _lookup_group(self, shard_id, members, results) -> None:
        per_shard = self._endpoints[shard_id]
        follower = per_shard.get(ROLE_FOLLOWER)
        sub_items = [item for _, item in members]
        answers = None
        if follower is not None:
            try:
                answers = self._query_endpoint(follower, sub_items)
                self.follower_reads += len(sub_items)
            except (NetworkError, ClientError):
                # Lagging past the freshness bound, down (retry budget
                # spent), or refusing: the leader still owns the truth.
                self.failovers += 1
                answers = None
        if answers is None:
            answers = self._query_endpoint(
                per_shard[ROLE_LEADER], sub_items
            )
            self.leader_reads += len(sub_items)
        elif any(not answer.known for answer in answers):
            # Followers never register software (registration is a
            # write), so an unknown item may just be one the leader
            # hasn't been asked about yet — the single-server contract
            # is that a lookup registers it.  Ask the leader for the
            # unknown slice; it registers and answers authoritatively.
            unknown = [
                position
                for position, answer in enumerate(answers)
                if not answer.known
            ]
            fresh = self._query_endpoint(
                per_shard[ROLE_LEADER],
                [sub_items[position] for position in unknown],
            )
            self.leader_reads += len(unknown)
            for position, answer in zip(unknown, fresh):
                answers[position] = answer
        for (index, _), answer in zip(members, answers):
            results[index] = answer

    def _query_endpoint(self, endpoint: _Endpoint, sub_items) -> list:
        try:
            return endpoint.lookup.query_many(sub_items)
        except EndpointUnreachableError as exc:
            # A restarted server forgot our session; log back in once.
            if E_AUTH in str(exc) and self._relogin(endpoint):
                return endpoint.lookup.query_many(sub_items)
            raise

    # -- writes: straight to the digest's shard leader --------------------

    def vote(self, software_id: str, score: int):
        return self._write(
            software_id,
            lambda session: VoteRequest(
                session=session, software_id=software_id, score=score
            ),
        )

    def comment(self, software_id: str, text: str):
        return self._write(
            software_id,
            lambda session: CommentRequest(
                session=session, software_id=software_id, text=text
            ),
        )

    def remark(self, software_id: str, comment_id: int, positive: bool):
        """*software_id* routes the request; the wire only carries the
        comment id (the server finds the software through the comment)."""
        return self._write(
            software_id,
            lambda session: RemarkRequest(
                session=session, comment_id=comment_id, positive=positive
            ),
        )

    def _write(self, software_id: str, build):
        shard_id = self._topology.shard_for(software_id).shard_id
        endpoint = self._endpoints[shard_id][ROLE_LEADER]
        response = endpoint.transport.request_message(
            build(endpoint.session)
        )
        if (
            isinstance(response, ErrorResponse)
            and response.code == E_AUTH
            and self._relogin(endpoint)
        ):
            response = endpoint.transport.request_message(
                build(endpoint.session)
            )
        if isinstance(response, ErrorResponse):
            raise ClientError(
                f"shard {shard_id} refused write:"
                f" {response.code}: {response.detail}"
            )
        return response

    # -- broadcast --------------------------------------------------------

    def stats(self) -> dict:
        """Cluster-wide totals: per-shard counters summed.

        ``members`` reports the maximum across shards, not the sum —
        accounts are broadcast to every shard, so each shard counts the
        same member population.
        """
        totals = {
            "registered_software": 0,
            "rated_software": 0,
            "total_votes": 0,
            "total_comments": 0,
            "members": 0,
        }
        for shard_id in self._topology.shard_ids():
            endpoint = self._endpoints[shard_id][ROLE_LEADER]
            response = endpoint.transport.request_message(
                StatsRequest(session=endpoint.session)
            )
            if not isinstance(response, StatsResponse):
                raise ClientError(
                    f"shard {shard_id}: stats refused: {response}"
                )
            totals["registered_software"] += response.registered_software
            totals["rated_software"] += response.rated_software
            totals["total_votes"] += response.total_votes
            totals["total_comments"] += response.total_comments
            totals["members"] = max(totals["members"], response.members)
        return totals

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        for per_shard in self._endpoints.values():
            for endpoint in per_shard.values():
                endpoint.lookup.close()

    def __enter__(self) -> "ClusterClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
