"""Run a whole cluster as real OS processes, for benchmarks and chaos.

:class:`ProcessCluster` spawns one process per shard replica (followers
first, so each leader knows its followers' ports at construction),
collects the bound addresses over a ready queue, and exposes the
resulting live :class:`~repro.cluster.topology.ClusterTopology`.

The chaos surface is deliberate: :meth:`kill_leader` SIGKILLs the
leader process mid-flight (no shutdown hooks, no flush — the honest
crash), and :meth:`restart_leader` re-spawns it over the **same data
directory**, recovering through the shard's own WAL replay, then
points the topology's router entry at the new port so resilient
clients re-resolve on their next reconnect.

The harness uses the ``spawn`` start method: children re-import
:mod:`repro` from a clean interpreter (``sys.path`` travels with the
spawn preparation data), so no forked locks or sockets leak into the
shard processes.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Dict, List, Optional

from ..errors import ReproError
from ..storage.locks import create_event
from .topology import ClusterTopology, ShardInfo

#: Seconds to wait for one shard process to report its bound address.
READY_TIMEOUT = 60.0


def run_shard(config: dict, ready_queue) -> None:
    """Child-process entry point: build a shard, report, serve forever."""
    from .shard import ShardServer

    shard = ShardServer(**config)
    host, port = shard.start()
    ready_queue.put(
        {
            "shard_id": config["shard_id"],
            "role": config["role"],
            "host": host,
            "port": port,
            "pid": os.getpid(),
        }
    )
    # Serve until killed: the parent's terminate()/kill() is the only
    # way out — exactly the process model the chaos tests need.
    create_event().wait()


class ProcessCluster:
    """N shards × (1 leader + F followers), each a real process."""

    def __init__(
        self,
        base_dir: str,
        shards: int = 1,
        followers_per_shard: int = 0,
        durability: str = "batched",
        secret: str = "repl-secret",
        score_cache_size: Optional[int] = None,
        max_lag_units: int = 1024,
        vnodes: int = 64,
        puzzle_difficulty: int = 0,
        checkpoint_wal_bytes: Optional[int] = None,
        heartbeat: float = 0.05,
        flood_burst: Optional[float] = None,
    ):
        if shards < 1:
            raise ValueError("need at least one shard")
        self.base_dir = base_dir
        self._ctx = multiprocessing.get_context("spawn")
        self._ready = self._ctx.Queue()
        self._secret = secret
        self._common = {
            "durability": durability,
            "secret": secret,
            "max_lag_units": max_lag_units,
            "puzzle_difficulty": puzzle_difficulty,
            "checkpoint_wal_bytes": checkpoint_wal_bytes,
            "heartbeat": heartbeat,
        }
        if score_cache_size is not None:
            self._common["score_cache_size"] = score_cache_size
        if flood_burst is not None:
            self._common["flood_burst"] = flood_burst
        self._leaders: Dict[int, multiprocessing.Process] = {}
        self._followers: Dict[int, List[multiprocessing.Process]] = {}
        follower_addrs: Dict[int, List[tuple]] = {}
        for shard_id in range(shards):
            self._followers[shard_id] = []
            follower_addrs[shard_id] = []
            for index in range(followers_per_shard):
                process, address = self._spawn(
                    shard_id,
                    role="follower",
                    data_directory=self._data_dir(shard_id, f"f{index}"),
                )
                self._followers[shard_id].append(process)
                follower_addrs[shard_id].append(address)
        infos = []
        for shard_id in range(shards):
            process, address = self._spawn(
                shard_id,
                role="leader",
                data_directory=self._data_dir(shard_id, "leader"),
                followers=tuple(follower_addrs[shard_id]),
            )
            self._leaders[shard_id] = process
            infos.append(
                ShardInfo(shard_id, address, follower_addrs[shard_id])
            )
        #: The live router state shared with clients; failover updates it.
        self.topology = ClusterTopology(infos, vnodes=vnodes)

    def _data_dir(self, shard_id: int, replica: str) -> str:
        path = os.path.join(self.base_dir, f"shard{shard_id}-{replica}")
        os.makedirs(path, exist_ok=True)
        return path

    def _spawn(self, shard_id: int, role: str, data_directory: str, followers=()):
        config = dict(
            self._common,
            shard_id=shard_id,
            role=role,
            data_directory=data_directory,
            followers=tuple(tuple(a) for a in followers),
        )
        process = self._ctx.Process(
            target=run_shard,
            args=(config, self._ready),
            name=f"shard{shard_id}-{role}",
            daemon=True,
        )
        process.start()
        try:
            report = self._ready.get(timeout=READY_TIMEOUT)
        except Exception as exc:  # queue.Empty — the child died silently
            process.kill()
            raise ReproError(
                f"shard {shard_id} {role} never reported ready"
            ) from exc
        if report["shard_id"] != shard_id or report["role"] != role:
            process.kill()
            raise ReproError(
                f"out-of-order ready report: expected shard {shard_id}"
                f" {role}, got {report}"
            )
        return process, (report["host"], report["port"])

    # -- chaos ------------------------------------------------------------

    def kill_leader(self, shard_id: int) -> None:
        """SIGKILL the leader mid-flight: no flush, no goodbye."""
        self._leaders[shard_id].kill()
        self._leaders[shard_id].join(timeout=10.0)

    def restart_leader(self, shard_id: int) -> tuple:
        """Re-spawn the killed leader over its surviving data directory.

        The shard recovers through its own WAL replay, binds a fresh
        port, and the topology's router entry is repointed so resilient
        clients re-resolve on their next reconnect.  Returns the new
        address.
        """
        old = self._leaders[shard_id]
        if old.is_alive():
            raise ReproError(
                f"shard {shard_id} leader is still alive; kill it first"
            )
        followers = self.topology.shard(shard_id).followers
        process, address = self._spawn(
            shard_id,
            role="leader",
            data_directory=self._data_dir(shard_id, "leader"),
            followers=followers,
        )
        self._leaders[shard_id] = process
        self.topology.update_leader(shard_id, address)
        return address

    # -- lifecycle --------------------------------------------------------

    def processes(self) -> List[multiprocessing.Process]:
        out = list(self._leaders.values())
        for group in self._followers.values():
            out.extend(group)
        return out

    def stop(self) -> None:
        for process in self.processes():
            if process.is_alive():
                process.terminate()
        for process in self.processes():
            process.join(timeout=10.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=5.0)
        self._ready.close()

    def __enter__(self) -> "ProcessCluster":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
