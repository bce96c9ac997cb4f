"""REP008 — WAL replication streams are built only by storage/ and cluster/.

The replication path re-reads raw WAL commit units (``replay``,
``replay_units``), pins retention against checkpoint truncation
(``retain_wal_from``), taps the commit pipeline
(``add_commit_listener``), and re-applies shipped records inside
follower transactions (``apply_record``, ``state_snapshot``).  Every
one of these primitives bypasses a guarantee some other layer relies
on: a stray ``apply_record`` writes rows without business validation,
a forgotten retention hold lets checkpoints truncate a follower's
catch-up window, and an extra commit listener runs under the engine's
exclusive lock on every commit.  They are load-bearing exactly once —
in :mod:`repro.storage` (which owns them) and :mod:`repro.cluster`
(which is the one sanctioned consumer).

Flagged: calls to the replication primitives above, and direct
``WriteAheadLog(...)`` construction, anywhere outside ``storage/`` and
``cluster/``.

Exempt: ``storage/`` (the owner) and ``cluster/`` (the consumer).
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import Finding, Module, Rule

#: The replication-stream primitives (method or function names).
_STREAM_CALLS = (
    "replay",
    "replay_units",
    "retain_wal_from",
    "add_commit_listener",
    "apply_record",
    "state_snapshot",
)
_WAL_CONSTRUCTORS = ("WriteAheadLog",)


class ReplicationStreamRule(Rule):
    id = "REP008"
    title = "WAL replication stream built outside storage//cluster/"
    exempt = ("/storage/", "/cluster/")

    def check(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = None
            if isinstance(func, ast.Attribute):
                name = func.attr
            elif isinstance(func, ast.Name):
                name = func.id
            if name in _WAL_CONSTRUCTORS:
                yield Finding(
                    rule=self.id,
                    path=module.rel_path,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        f"direct {name}() construction — write-ahead "
                        "logs belong to storage/ (engines own their "
                        "WAL) and cluster/ (replication replays it); "
                        "everything else goes through Database"
                    ),
                )
            elif name in _STREAM_CALLS and isinstance(func, ast.Attribute):
                yield Finding(
                    rule=self.id,
                    path=module.rel_path,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        f"{name}() builds or replays a WAL replication "
                        "stream — only storage/ (the owner) and "
                        "cluster/ (the replicator) may: it bypasses "
                        "validation, retention, and commit-path "
                        "guarantees everywhere else"
                    ),
                )
