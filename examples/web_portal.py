"""The web interface plus a durable server database, streaming scores.

Shows the two operational faces of the server: the web pages users browse
for detail beyond the client dialog (Sec. 3), and the storage engine's
durability — the server restarts and recovers every account, vote, and
score from its write-ahead log.  The engine runs the streaming score
pipeline (the default for new deployments): every vote republishes the
digest's score immediately, so the pages are current without waiting for
the legacy 24-hour batch.

Run:  python examples/web_portal.py
"""

import tempfile

from repro import Behavior, ReputationServer, SimClock, WebView, build_executable, days
from repro.core import ReputationEngine
from repro.storage import Database


def populate(engine):
    kazaa = build_executable(
        "kazaa.exe",
        vendor="Sharman Networks",
        behaviors={Behavior.DISPLAYS_ADS, Behavior.BUNDLES_SOFTWARE},
        content=b"kazaa-2.6",
    )
    winzip = build_executable(
        "winzip.exe", vendor="WinZip Computing", content=b"winzip-9"
    )
    for executable in (kazaa, winzip):
        engine.register_software(
            executable.software_id,
            executable.file_name,
            executable.file_size,
            executable.vendor,
            executable.version,
        )
    for index, (kazaa_score, winzip_score) in enumerate(
        [(3, 9), (2, 9), (4, 8), (2, 10)]
    ):
        username = f"user_{index}"
        engine.enroll_user(username)
        engine.cast_vote(username, kazaa.software_id, kazaa_score)
        engine.cast_vote(username, winzip.software_id, winzip_score)
    comment = engine.add_comment(
        "user_0", kazaa.software_id, "bundles adware and shows popups"
    )
    engine.add_remark("user_1", comment.comment_id, positive=True)
    # No nightly batch needed: the streaming pipeline already published
    # every score, the moment its vote landed.
    return kazaa, winzip


def main():
    directory = tempfile.mkdtemp(prefix="softwareputation-")
    print(f"server database directory: {directory}\n")

    database = Database(directory=directory)
    engine = ReputationEngine(
        database=database, clock=SimClock(), scoring_mode="streaming"
    )
    kazaa, winzip = populate(engine)

    # Live updates: every committed publication fans out to listeners —
    # the same hook the server's push subscriptions ride.
    def announce(update):
        print(
            f"  [push] {update.software_id[:12]}... -> "
            f"{update.score:.2f} (v{update.version})"
        )

    engine.scores.add_listener(announce)
    print("casting one more vote; the score republishes immediately:")
    engine.enroll_user("late_voter")
    engine.cast_vote("late_voter", kazaa.software_id, 1)
    print()

    # Serve the pages through the web server, fetched over the network —
    # the way the paper's users actually browse them.
    from repro import Network
    from repro.server import HttpGateway, http_get

    network = Network()
    gateway = HttpGateway(WebView(engine))
    network.register("www.softwareputation.example", gateway.handle)

    def fetch(target):
        status, body = http_get(
            network, "browser", "www.softwareputation.example", target
        )
        print(f"GET {target} -> {status}")
        return body

    print("---- software page (truncated) ----")
    print(fetch(f"/software/{kazaa.software_id}")[:600] + " ...\n")
    print("---- vendor page (truncated) ----")
    print(fetch("/vendor/Sharman%20Networks")[:400] + " ...\n")
    print("---- rankings page (truncated) ----")
    print(fetch("/rankings")[:400] + " ...\n")
    print("---- stats page ----")
    print(fetch("/stats") + "\n")

    engine.flush_scores()
    wal_size = database.wal_size_bytes()
    print(f"write-ahead log size before restart: {wal_size} bytes")
    database.close()

    # --- simulate a server restart: recover from the WAL ------------------
    recovered_db = Database(directory=directory)
    recovered = ReputationEngine(
        database=recovered_db, clock=SimClock(), scoring_mode="streaming"
    )
    replayed = recovered_db.recover()
    # Recovery replaced the tables under the engine: rebuild the
    # streaming derived state (running sums, score rows) from the
    # recovered votes, exactly as the server does on startup.
    recovered.bootstrap_scores(reload=True)
    print(f"recovered {replayed} mutations from the log")
    score = recovered.software_reputation(kazaa.software_id)
    print(
        f"kazaa.exe after restart: {score.score:.1f}/10 "
        f"({score.vote_count} votes) — nothing lost"
    )

    # checkpoint: snapshot + truncate the log
    recovered_db.checkpoint()
    print(
        f"write-ahead log size after checkpoint: "
        f"{recovered_db.wal_size_bytes()} bytes"
    )
    recovered_db.close()


if __name__ == "__main__":
    main()
