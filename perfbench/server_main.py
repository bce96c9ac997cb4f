"""The server process under test.

Builds :class:`repro.server.ReputationServer` on a data directory and
serves it behind :class:`repro.net.evloop.EventLoopServer`, with the
knobs the benchmark fixes (see README.md) and every other knob at its
default.  It prints ``{"port": N}`` once the listener is bound, then
answers one-line commands on stdin with one JSON line on stdout:

``counters``   CPU time, memory, cache and subscription counters
``calibrate``  CPU seconds of a fixed interpreter workload (host speed)
``reconcile``  run ``ReputationEngine.reconcile_scores()`` and report it
``trace 0|1``  stop or resume span recording (with ``--trace``)
``stop``       shut down, write the spans file, exit (so does EOF)

Usage::

    PYTHONPATH=src python3 perfbench/server_main.py --data DIR --clock T [--spans FILE]
"""

from __future__ import annotations

import argparse
import json
import os
import struct
import sys
import time

#: The three knobs the benchmark moves away from the defaults (see README).
SCORING_MODE = "streaming"
FLOOD_BURST = 1e9
#: Score-cache entries; the history holds four times as many digests.
SCORE_CACHE_SIZE = 1024


def resident_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmRSS in /proc/self/status")


def calibrate(rounds: int = 4000) -> float:
    """CPU seconds this thread spends on a fixed interpreter workload.

    The work mixes what the server spends its time on — dict lookups,
    string formatting, struct packing and JSON encoding — but touches
    none of the program, so it reads the speed of the host, not of the
    code under test.  Thread CPU time leaves out waits for the
    interpreter lock and time the hypervisor stole.
    """
    start = time.thread_time()
    table: dict = {}
    for i in range(rounds):
        key = "k%d" % (i % 97)
        table[key] = table.get(key, 0) + len(struct.pack(">II", i, i))
        json.dumps({"a": i, "b": [key, i]})
    return time.thread_time() - start


def counters(server) -> dict:
    cache = server.score_cache.stats()
    pushes = server.subscriptions.stats()
    return {
        "cpu_s": time.process_time(),
        "rss_mb": resident_mb(),
        "cache_hits": cache["hits"],
        "cache_misses": cache["misses"],
        "cache_evictions": cache["evictions"] + cache["version_evictions"],
        "push_dropped": pushes["dropped_slow"] + pushes["dropped_dead"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="perfbench server process")
    parser.add_argument("--data", required=True)
    parser.add_argument("--clock", type=int, default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    recorder = None
    missing: list = []
    if args.spans:
        from tracing import SpanRecorder, install

        recorder = SpanRecorder()
        missing = install(recorder)

    from repro.clock import SimClock
    from repro.net.evloop import EventLoopServer
    from repro.server import ReputationServer

    server = ReputationServer(
        clock=SimClock(args.clock),
        data_directory=args.data,
        scoring_mode=SCORING_MODE,
        flood_burst=FLOOD_BURST,
        score_cache_size=SCORE_CACHE_SIZE,
    )
    transport = EventLoopServer(server.handle_bytes).start()

    def reply(message: dict) -> None:
        sys.stdout.write(json.dumps(message) + "\n")
        sys.stdout.flush()

    reply({"port": transport.address[1], "pid": os.getpid(), "untraced": missing})
    try:
        for line in sys.stdin:
            command = line.split()
            if not command:
                continue
            if command[0] == "stop":
                break
            if command[0] == "calibrate":
                reply({"seconds": calibrate()})
            elif command[0] == "counters":
                reply(counters(server))
            elif command[0] == "reconcile":
                report = server.engine.reconcile_scores()
                reply(
                    {
                        "checked": report.checked,
                        "mismatched": report.mismatched,
                        "republished": report.republished,
                    }
                )
            elif command[0] == "trace" and recorder is not None:
                recorder.enabled = command[1] == "1"
                reply({"trace": recorder.enabled})
            else:
                reply({"error": f"unknown command {command[0]}"})
    finally:
        transport.stop()
        server.close()
        if recorder is not None:
            recorder.enabled = False
            recorder.dump(args.spans)
    reply({"stopped": True})
    return 0


if __name__ == "__main__":
    sys.exit(main())
