"""P4: the storage write path — durability modes, group commit, and recovery.

Two exhibits:

* **Sustained vote-ingest throughput** (rows/s): the group-commit WAL
  in each durability mode, single-threaded and with concurrent
  committers — the axis where group commit earns its keep.
* **Cold-restart recovery time vs. history size**, with and without
  checkpointing.  The workload updates a fixed working set, so history
  grows without bound while live state stays constant: without
  checkpoints recovery replays the whole history; with them it loads a
  bounded snapshot plus a short WAL tail and stays roughly flat.
"""

import os
import tempfile
import threading
import time

from benchmarks.exhibits import record_exhibit, run_once
from repro.analysis import render_table
from repro.storage import Column, ColumnType, Database, Schema

SMOKE = os.environ.get("BENCH_SMOKE") == "1"

#: Commits per ingest cell (split across the cell's threads).
INGEST_COMMITS = 200 if SMOKE else 4000
THREAD_COUNTS = (1, 4)

#: (label, durability)
INGEST_CONFIGS = (
    ("binary + fsync (grouped)", "fsync"),
    ("binary + batched", "batched"),
    ("binary + async", "async"),
)

#: Recovery axis: total commits of history over a fixed working set.
RECOVERY_SIZES = (200, 800) if SMOKE else (2000, 8000, 32000)
RECOVERY_KEYS = 50 if SMOKE else 500
CHECKPOINT_EVERY = 100 if SMOKE else 2000


def _vote_schema() -> Schema:
    return Schema(
        name="votes",
        columns=[
            Column("vote_id", ColumnType.TEXT),
            Column("username", ColumnType.TEXT),
            Column("software_id", ColumnType.TEXT),
            Column("score", ColumnType.INT),
        ],
        primary_key="vote_id",
    )


def _vote_row(worker: int, index: int) -> dict:
    return {
        "vote_id": f"{worker}-{index}",
        "username": f"user{worker}",
        "software_id": ("%02x" % (index % 64)) * 20,
        "score": index % 10 + 1,
    }


# ---------------------------------------------------------------------------
# Sustained ingest throughput
# ---------------------------------------------------------------------------

def _ingest_rate(durability: str, workers: int) -> float:
    with tempfile.TemporaryDirectory(prefix="bench-p4-") as directory:
        db = Database(directory=directory, durability=durability)
        table = db.create_table(_vote_schema())
        per_worker = INGEST_COMMITS // workers
        barrier = threading.Barrier(workers + 1)

        def worker(worker_id: int) -> None:
            barrier.wait()
            for index in range(per_worker):
                with db.transaction():
                    table.insert(_vote_row(worker_id, index))

        threads = [
            threading.Thread(target=worker, args=(worker_id,))
            for worker_id in range(workers)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        started = time.perf_counter()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        db.close()
        return (workers * per_worker) / elapsed


def run_ingest_throughput() -> dict:
    results = {}
    for label, durability in INGEST_CONFIGS:
        for workers in THREAD_COUNTS:
            results[(label, workers)] = _ingest_rate(durability, workers)
    baseline = results[("binary + fsync (grouped)", max(THREAD_COUNTS))]
    speedup = results[("binary + batched", max(THREAD_COUNTS))] / baseline
    rows = [
        [label, workers, f"{results[(label, workers)]:,.0f}"]
        for label, __ in INGEST_CONFIGS
        for workers in THREAD_COUNTS
    ]
    rendered = render_table(
        headers=["configuration", "threads", "commits/s"],
        rows=rows,
        title="Vote-ingest throughput (1 insert per commit unit)",
    )
    rendered += (
        f"\nbinary + batched vs binary + fsync (grouped) at "
        f"{max(THREAD_COUNTS)} threads: {speedup:.1f}x"
    )
    return {"rendered": rendered, "results": results, "speedup": speedup}


# ---------------------------------------------------------------------------
# Cold-restart recovery time vs. history size
# ---------------------------------------------------------------------------

def _seed_schema() -> Schema:
    return Schema(
        name="scores",
        columns=[
            Column("k", ColumnType.TEXT),
            Column("score", ColumnType.INT),
        ],
        primary_key="k",
    )


def _build_history(directory: str, commits: int, checkpoints: bool) -> None:
    db = Database(directory=directory, durability="batched")
    table = db.create_table(_seed_schema())
    for key in range(RECOVERY_KEYS):
        table.insert({"k": f"k{key}", "score": 0})
    for index in range(commits):
        table.update(f"k{index % RECOVERY_KEYS}", {"score": index % 11})
        if checkpoints and (index + 1) % CHECKPOINT_EVERY == 0:
            db.checkpoint()
    db.close()


def _recovery_seconds(directory: str) -> float:
    db = Database(directory=directory)
    db.create_table(_seed_schema())
    started = time.perf_counter()
    db.recover()
    elapsed = time.perf_counter() - started
    db.close()
    return elapsed


def run_recovery_times() -> dict:
    results = {}
    for commits in RECOVERY_SIZES:
        for checkpoints in (False, True):
            with tempfile.TemporaryDirectory(prefix="bench-p4-") as directory:
                _build_history(directory, commits, checkpoints)
                results[(commits, checkpoints)] = _recovery_seconds(directory)
    rows = [
        [
            f"{commits:,}",
            "yes" if checkpoints else "no",
            f"{results[(commits, checkpoints)] * 1000:,.1f}",
        ]
        for commits in RECOVERY_SIZES
        for checkpoints in (False, True)
    ]
    rendered = render_table(
        headers=["history (commits)", "checkpoints", "recovery (ms)"],
        rows=rows,
        title=(
            f"Cold-restart recovery vs. history size "
            f"({RECOVERY_KEYS} live rows)"
        ),
    )
    return {"rendered": rendered, "results": results}


def run_storage_write_path() -> dict:
    ingest = run_ingest_throughput()
    recovery = run_recovery_times()
    return {
        "rendered": ingest["rendered"] + "\n\n" + recovery["rendered"],
        "ingest": ingest,
        "recovery": recovery,
    }


def test_storage_write_path(benchmark):
    result = run_once(benchmark, run_storage_write_path)
    record_exhibit("P4: storage write path", result["rendered"])
    for rate in result["ingest"]["results"].values():
        assert rate > 0
    if not SMOKE:
        # Batched durability (no commit waits on fsync) clearly beats
        # grouped fsync-per-commit on ingest.
        assert result["ingest"]["speedup"] >= 1.5
        # With checkpoints on, recovery is bounded by live-set size, not
        # history size: the largest history must not cost materially
        # more than the smallest.
        recovery = result["recovery"]["results"]
        smallest, largest = RECOVERY_SIZES[0], RECOVERY_SIZES[-1]
        assert recovery[(largest, True)] <= max(
            5 * recovery[(smallest, True)], 0.25
        )
        # ...and beats full-history replay at the largest size.
        assert recovery[(largest, True)] < recovery[(largest, False)]


if __name__ == "__main__":
    print(run_storage_write_path()["rendered"])
