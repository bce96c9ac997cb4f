"""XML codec for protocol messages.

Messages register with the :func:`message` decorator; :func:`encode`
serialises a message dataclass to XML bytes and :func:`decode` parses
bytes back into the registered dataclass.  Value types are tagged
explicitly in the XML so round-trips are exact (``int`` stays ``int``,
``bytes`` travel as hex), e.g.::

    <message tag="vote-request">
      <field type="str" name="session">abc</field>
      <field type="str" name="software_id">60ab...</field>
      <field type="int" name="score">7</field>
    </message>

(on the wire without the indentation).

Encoding is a direct writer: one pass appends string pieces and joins
them once, and a nested message is written inline inside its field.
The bytes are those ElementTree's serialiser produces for the same
element tree: text escapes ``&``, ``<`` and ``>`` only, an element
with no content takes the short ``<field ... />`` form (``None``, the
empty string, empty bytes, an empty list), and attributes come in the
order ``type`` then ``name``.  Attribute values are registry tags and
field names, never user data, so they are written unescaped.  The
writer does not check that text is XML-carriable: the server refuses
such strings where they are written (see :mod:`repro.core.text`).

Decoding is defensive: unknown tags, missing fields, bad type labels, and
malformed XML raise :class:`~repro.errors.MalformedMessageError` or
:class:`~repro.errors.UnknownMessageError` instead of propagating parser
internals — the server treats all of these as hostile input.
"""

from __future__ import annotations

import dataclasses
from typing import Any
from xml.etree import ElementTree

from ..errors import MalformedMessageError, ProtocolError, UnknownMessageError

# The registry lives in .registry (shared with the binary codec); these
# re-exports keep the historical import path working.
from .registry import (  # noqa: F401
    class_for,
    message,
    registered_messages,
    registered_tags,
    tag_for,
)


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

def encode(msg: Any) -> bytes:
    """Serialise a registered message to XML bytes."""
    out: list = []
    _write_message(out, msg)
    # Lone surrogates (the only code points UTF-8 cannot encode) become
    # character references, as ElementTree's serialiser writes them.
    return "".join(out).encode("utf-8", "xmlcharrefreplace")


def _write_message(out: list, msg: Any) -> None:
    cls = type(msg)
    tag = tag_for(cls)
    if tag is None:
        raise ProtocolError(f"{cls.__name__} is not a registered message")
    fields = dataclasses.fields(msg)
    if not fields:
        out.append(f'<message tag="{tag}" />')
        return
    out.append(f'<message tag="{tag}">')
    for field in fields:
        value = getattr(msg, field.name)
        _write_value(out, "field", f' name="{field.name}"', value)
    out.append("</message>")


def _write_value(out: list, element: str, name: str, value: Any) -> None:
    """Append one ``field``/``item`` element; *name* is its name attribute
    (empty for list items)."""
    if value is None:
        out.append(f'<{element} type="none"{name} />')
        return
    if isinstance(value, bool):  # before int: bool is an int subclass
        kind, text = "bool", "true" if value else "false"
    elif isinstance(value, int):
        kind, text = "int", str(value)
    elif isinstance(value, float):
        kind, text = "float", repr(value)
    elif isinstance(value, str):
        kind, text = "str", _escape_text(value)
    elif isinstance(value, (bytes, bytearray)):
        kind, text = "bytes", bytes(value).hex()
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append(f'<{element} type="list"{name} />')
            return
        out.append(f'<{element} type="list"{name}>')
        for item in value:
            _write_value(out, "item", "", item)
        out.append(f"</{element}>")
        return
    elif tag_for(type(value)) is not None:
        out.append(f'<{element} type="message"{name}>')
        _write_message(out, value)
        out.append(f"</{element}>")
        return
    else:
        raise ProtocolError(
            f"cannot encode value of type {type(value).__name__}: {value!r}"
        )
    if text:
        out.append(f'<{element} type="{kind}"{name}>{text}</{element}>')
    else:
        out.append(f'<{element} type="{kind}"{name} />')


def _escape_text(text: str) -> str:
    """Escape character data exactly as ElementTree does: ``&``, ``<``
    and ``>``, nothing else."""
    if "&" in text:
        text = text.replace("&", "&amp;")
    if "<" in text:
        text = text.replace("<", "&lt;")
    if ">" in text:
        text = text.replace(">", "&gt;")
    return text


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

def decode(payload: bytes) -> Any:
    """Parse XML bytes into the registered message dataclass."""
    try:
        root = ElementTree.fromstring(payload)
    except ElementTree.ParseError as exc:
        raise MalformedMessageError(f"unparseable XML: {exc}") from None
    return _decode_message_element(root)


def _decode_message_element(root: ElementTree.Element) -> Any:
    if root.tag != "message":
        raise MalformedMessageError(f"expected <message>, got <{root.tag}>")
    tag = root.get("tag")
    cls = class_for(tag or "")
    if cls is None:
        raise UnknownMessageError(f"unknown message tag {tag!r}")
    values: dict[str, Any] = {}
    for element in root:
        name = element.get("name")
        if name is None:
            raise MalformedMessageError("field element without a name")
        values[name] = _decode_value(element)
    field_names = {field.name for field in dataclasses.fields(cls)}
    unknown = set(values) - field_names
    if unknown:
        raise MalformedMessageError(
            f"message {tag!r} has unknown fields {sorted(unknown)}"
        )
    missing = {
        field.name
        for field in dataclasses.fields(cls)
        if field.default is dataclasses.MISSING
        and field.default_factory is dataclasses.MISSING
    } - set(values)
    if missing:
        raise MalformedMessageError(
            f"message {tag!r} is missing fields {sorted(missing)}"
        )
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise MalformedMessageError(f"cannot build {tag!r}: {exc}") from None


def _decode_value(element: ElementTree.Element) -> Any:
    kind = element.get("type")
    text = element.text or ""
    try:
        if kind == "none":
            return None
        if kind == "bool":
            if text not in ("true", "false"):
                raise ValueError(f"bad boolean {text!r}")
            return text == "true"
        if kind == "int":
            return int(text)
        if kind == "float":
            return float(text)
        if kind == "str":
            return text
        if kind == "bytes":
            return bytes.fromhex(text)
        if kind == "list":
            return tuple(_decode_value(child) for child in element)
        if kind == "message":
            children = list(element)
            if len(children) != 1:
                raise ValueError("nested message must have exactly one child")
            return _decode_message_element(children[0])
    except (ValueError, OverflowError) as exc:
        raise MalformedMessageError(
            f"bad {kind!r} value {text!r}: {exc}"
        ) from None
    raise MalformedMessageError(f"unknown field type {kind!r}")
