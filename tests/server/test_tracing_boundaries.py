"""The layer boundaries the perfbench tracer wraps still exist and fire.

``perfbench/tracing.py`` records per-layer spans by replacing named
callables (``ReputationServer.handle_bytes``, the pipeline module's
``decode_with``/``encode_with``, the engine's lookups) before a server
is built.  A rename or a call that bypasses one of those names leaves a
per-layer metric silently reading zero, so this drives one binary lookup
through a traced server and checks the spans.  It runs in a subprocess
because ``install()`` patches module and class globals for good.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

SCRIPT = r"""
import json

import tracing

recorder = tracing.SpanRecorder()
missing = tracing.install(recorder)

from repro.clock import SimClock
from repro.crypto.puzzles import Puzzle, solve_puzzle
from repro.protocol import (
    CODEC_BINARY,
    ActivateRequest,
    LoginRequest,
    PuzzleRequest,
    QuerySoftwareRequest,
    RegisterRequest,
    SoftwareInfoResponse,
    decode_with,
    encode_with,
)
from repro.server import ReputationServer

server = ReputationServer(clock=SimClock(), puzzle_difficulty=2)


def rpc(message):
    payload = encode_with(CODEC_BINARY, message)
    return decode_with(CODEC_BINARY, server.handle_bytes("host", payload, CODEC_BINARY))


issued = rpc(PuzzleRequest())
puzzle = Puzzle(issued.nonce, issued.difficulty)
token = rpc(RegisterRequest(
    username="alice", password="password", email="alice@x.org",
    puzzle_nonce=puzzle.nonce, puzzle_solution=solve_puzzle(puzzle),
)).activation_token
rpc(ActivateRequest(username="alice", token=token))
session = rpc(LoginRequest(username="alice", password="password")).session
del recorder.spans[:]
info = rpc(QuerySoftwareRequest(
    session=session, software_id="ab" * 20, file_name="a.exe", file_size=1,
))
assert isinstance(info, SoftwareInfoResponse), info
print(json.dumps({"missing": missing, "names": sorted({s[0] for s in recorder.spans})}))
"""


def test_lookup_fires_every_traced_boundary():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=str(ROOT),
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.strip().splitlines()[-1])
    assert report["missing"] == []
    for name in ("server.handle", "protocol.decode", "core.lookup", "protocol.encode"):
        assert name in report["names"], report["names"]
