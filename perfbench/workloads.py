"""The three traffic mixes and the seeded input stream they draw from.

Every random choice a run makes — which digest a lookup names, which
user votes on which digest with what score, and the unit-rate Poisson
gaps that become send times once scaled by a phase's rate — comes from
an :class:`InputStream` seeded by ``(seed, workload)``.  The stream
hashes everything it hands out, so two runs with one seed can prove
they offered byte-identical input.
"""

from __future__ import annotations

import hashlib
import random
import struct
from collections import deque
from dataclasses import dataclass

import dataset

#: Lookups of lookup-hot stay inside this many most popular digests,
#: a quarter of the score cache.
HOT_DIGESTS = 256
#: Accounts that vote in a run (each logs in once per server start).
VOTERS = 64
#: A vote-push lookup names one of the last few digests voted on.
RECENT_VOTES = 8
#: The two input streams of a run (see :class:`InputStream`).
PARTS = ("fixed", "peak")


@dataclass(frozen=True)
class Workload:
    """One traffic mix; BENCHMARK.json says why each exists."""

    name: str
    codec: str
    #: Fixed offered rate of the latency phases, operations per second.
    rate: float
    #: Latency limit on a peak-search step's tail, milliseconds.
    limit_ms: float
    #: Share of operations that are votes; the rest are lookups.
    vote_share: float
    #: Lookups of lookup-hot stay in the hot subset; others are uniform.
    hot: bool


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="lookup-hot",
            codec="binary",
            rate=2000.0,
            limit_ms=50.0,
            vote_share=0.0,
            hot=True,
        ),
        Workload(
            name="lookup-cold",
            codec="xml",
            rate=500.0,
            limit_ms=100.0,
            vote_share=0.0,
            hot=False,
        ),
        Workload(
            name="vote-push",
            codec="binary",
            rate=900.0,
            limit_ms=100.0,
            vote_share=2.0 / 3.0,
            hot=False,
        ),
    )
}

class InputStream:
    """Seeded operations and arrival gaps, hashed as they are drawn.

    A run draws from two streams.  ``"fixed"`` feeds every phase whose
    length the workload fixes, so it is byte-identical for one seed;
    ``"peak"`` feeds the peak-search steps, whose lengths follow the
    measured rates.  Each votes with its own half of the voters, so the
    peak stream never changes which pairs the fixed stream may use.
    """

    def __init__(self, seed: int, workload: str, history: dict, part: str):
        self._ops = random.Random(f"perfbench:{seed}:{workload}:{part}:ops")
        self._gaps = random.Random(f"perfbench:{seed}:{workload}:{part}:gaps")
        self._hash = hashlib.sha256()
        self._software = history["software"]
        self._used = {(user, target) for user, target, _ in history["votes"]}
        #: Every voting account of the run (both streams log them in).
        self.voters = sorted(
            random.Random(f"perfbench:{seed}:voters").sample(
                range(dataset.USERS - 1), VOTERS
            )
        )
        self._own_voters = self.voters[PARTS.index(part)::len(PARTS)]
        #: The account every lookup runs under (never a voter).
        self.reader = dataset.USERS - 1
        self._recent: deque = deque(maxlen=RECENT_VOTES)

    def gaps(self, count: int) -> list:
        """*count* unit-rate exponential gaps (divide by the rate)."""
        gaps = [self._gaps.expovariate(1.0) for _ in range(count)]
        self._hash.update(struct.pack(f">{count}d", *gaps))
        return gaps

    def ops(self, workload: Workload, count: int) -> list:
        """*count* operations: ``("lookup", digest)`` or
        ``("vote", user, digest, score)`` with indices into the history."""
        rng = self._ops
        out = []
        for _ in range(count):
            if rng.random() < workload.vote_share:
                while True:
                    user = rng.choice(self._own_voters)
                    target = rng.randrange(len(self._software))
                    if (user, target) not in self._used:
                        break
                self._used.add((user, target))
                self._recent.append(target)
                op = ("vote", user, target, rng.randint(1, 10))
            elif workload.hot:
                op = ("lookup", rng.randrange(HOT_DIGESTS))
            elif workload.vote_share and self._recent:
                op = ("lookup", rng.choice(self._recent))
            else:
                op = ("lookup", rng.randrange(len(self._software)))
            out.append(op)
        self._hash.update(repr(out).encode())
        return out

    def hexdigest(self) -> str:
        return self._hash.hexdigest()
