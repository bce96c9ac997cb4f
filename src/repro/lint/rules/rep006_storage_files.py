"""REP006 — no direct open() of Database-directory files outside storage/.

The storage engine owns the on-disk format of a database directory: WAL
segments (``wal-*.bin``), the binary snapshot (``snapshot.bin``), and
the pre-binary JSON pair (``wal.jsonl`` / ``snapshot.json``), whose
presence makes the engine refuse the directory.  Code outside
``storage/`` that opens those files directly bakes the byte layout into
a second place, so the next format change (segmenting, a new record
kind, compression) silently breaks it — exactly the drift the binary
rebuild was meant to end.  Everything above the engine goes through
:class:`~repro.storage.engine.Database` / the WAL API instead.

Flagged: any ``open()`` call whose argument expression mentions a
storage-owned file name (as a string literal anywhere in the argument
subtree, e.g. inside an ``os.path.join``/f-string).

Exempt: ``storage/`` — it *is* the format's home.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional

from ..engine import Finding, Module, Rule

#: File names (or patterns) the storage engine owns inside a Database
#: directory.
_STORAGE_FILE_PATTERNS = (
    re.compile(r"^wal-.*\.bin$"),
    re.compile(r"^wal\.jsonl$"),
    re.compile(r"^snapshot\.bin(\.tmp)?$"),
    re.compile(r"^snapshot\.json(\.tmp)?$"),
)


class StorageFileAccessRule(Rule):
    id = "REP006"
    title = "direct open() of Database-directory files outside storage/"
    exempt = ("/storage/",)

    def check(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if not (isinstance(node.func, ast.Name) and node.func.id == "open"):
                continue
            matched = _storage_file_in(node.args + [kw.value for kw in node.keywords])
            if matched is None:
                continue
            yield Finding(
                rule=self.id,
                path=module.rel_path,
                line=node.lineno,
                col=node.col_offset,
                message=(
                    f"direct open() of storage-owned file {matched!r} — the "
                    "engine owns the on-disk format; go through "
                    "repro.storage.Database / the WAL API"
                ),
            )


def _storage_file_in(nodes: list) -> Optional[str]:
    """The first string literal in *nodes* naming a storage-owned file."""
    for argument in nodes:
        for node in ast.walk(argument):
            if not (isinstance(node, ast.Constant) and isinstance(node.value, str)):
                continue
            basename = node.value.replace("\\", "/").rsplit("/", 1)[-1]
            for pattern in _STORAGE_FILE_PATTERNS:
                if pattern.match(basename):
                    return node.value
    return None
