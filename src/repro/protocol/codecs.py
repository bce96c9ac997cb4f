"""Codec negotiation: one name-keyed dispatch over every wire format.

A connection negotiates its codec by name in the HELLO frame (see
:mod:`repro.net.framing`); everything above the frame layer — the
request pipeline, the response cache, the clients — routes
through :func:`encode_with` / :func:`decode_with` so a negotiated name
picks the format in exactly one place.

``CODEC_XML`` is the default and the wire-compat baseline: a connection
that never sends a HELLO is an old client and gets XML, byte-identical
to PR 1.
"""

from __future__ import annotations

from typing import Any

from ..errors import ProtocolError
from . import binary_codec, xml_codec

CODEC_XML = "xml"
CODEC_BINARY = "binary"

#: Name -> (encode, decode); insertion order is preference order.
_CODECS = {
    CODEC_XML: (xml_codec.encode, xml_codec.decode),
    CODEC_BINARY: (binary_codec.encode, binary_codec.decode),
}

SUPPORTED_CODECS = tuple(_CODECS)
DEFAULT_CODEC = CODEC_XML


def is_supported(codec: str) -> bool:
    return codec in _CODECS


def negotiate(requested: str) -> str:
    """The codec a connection gets for its HELLO request.

    Unknown names fall back to the default rather than failing the
    connection: a newer client talking to an older server should degrade
    to XML, not die.
    """
    return requested if requested in _CODECS else DEFAULT_CODEC


def encode_with(codec: str, msg: Any) -> bytes:
    try:
        encoder, _ = _CODECS[codec]
    except KeyError:
        raise ProtocolError(f"unknown codec {codec!r}") from None
    return encoder(msg)


def decode_with(codec: str, payload: bytes) -> Any:
    try:
        _, decoder = _CODECS[codec]
    except KeyError:
        raise ProtocolError(f"unknown codec {codec!r}") from None
    return decoder(payload)
