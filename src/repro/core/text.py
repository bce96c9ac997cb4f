"""The strings every wire format can carry.

Connections negotiate their codec, and the binary codec carries any
string.  XML 1.0 cannot: its ``Char`` production leaves out the C0
controls other than tab, line feed and carriage return, the surrogates,
and U+FFFE/U+FFFF.  A stored string is later served to every reader, so
one that only the binary codec can carry would make every XML answer
that includes it unreadable.  Each write path refuses such strings with
:func:`require_xml_text` before storing them.
"""

from __future__ import annotations

import re
from typing import Optional

from ..errors import ServerError

#: One character outside XML 1.0's ``Char`` production.
_NOT_XML_CHAR = re.compile(
    "[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]"
)


def require_xml_text(
    what: str, value: Optional[str], error: type = ServerError
) -> None:
    """Raise *error* if *value* holds a character XML 1.0 cannot carry.

    *what* names the field in the refusal; the value itself is not
    echoed (it may be a username or other requester input).
    """
    if value is not None and _NOT_XML_CHAR.search(value) is not None:
        raise error(f"{what} contains characters XML cannot carry")
