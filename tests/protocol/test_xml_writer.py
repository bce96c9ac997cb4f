"""The direct XML writer against the ElementTree encoder it replaced.

``_etree_encode`` below is the encoder the writer replaced, kept here as
the oracle.  Over every registered message the writer must produce the
oracle's bytes, with one documented exception: a string inside a
*nested* message keeps its ``\\r``, where the oracle's parse-and-
reserialise round trip turned it into ``\\n``.  ``decode`` of both
byte strings must be equal, always.
"""

import dataclasses
from xml.etree import ElementTree

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ProtocolError
from repro.protocol import (
    CollusionFlag,
    CommentInfo,
    QuerySoftwareItem,
    SoftwareInfoResponse,
    SoftwareSummary,
    decode,
    encode,
    registered_messages,
)
from repro.protocol.registry import tag_for


# ---------------------------------------------------------------------------
# The oracle: the ElementTree encoder, verbatim
# ---------------------------------------------------------------------------

def _etree_encode(msg):
    cls = type(msg)
    tag = tag_for(cls)
    if tag is None:
        raise ProtocolError(f"{cls.__name__} is not a registered message")
    root = ElementTree.Element("message", {"tag": tag})
    for field in dataclasses.fields(msg):
        element = _etree_value(getattr(msg, field.name))
        element.set("name", field.name)
        root.append(element)
    return ElementTree.tostring(root, encoding="utf-8")


def _etree_value(value):
    element = ElementTree.Element("field")
    if value is None:
        element.set("type", "none")
    elif isinstance(value, bool):
        element.set("type", "bool")
        element.text = "true" if value else "false"
    elif isinstance(value, int):
        element.set("type", "int")
        element.text = str(value)
    elif isinstance(value, float):
        element.set("type", "float")
        element.text = repr(value)
    elif isinstance(value, str):
        element.set("type", "str")
        element.text = value
    elif isinstance(value, (bytes, bytearray)):
        element.set("type", "bytes")
        element.text = bytes(value).hex()
    elif isinstance(value, (list, tuple)):
        element.set("type", "list")
        for item in value:
            child = _etree_value(item)
            child.tag = "item"
            element.append(child)
    elif tag_for(type(value)) is not None:
        element.set("type", "message")
        element.append(ElementTree.fromstring(_etree_encode(value)))
    else:
        raise ProtocolError(
            f"cannot encode value of type {type(value).__name__}: {value!r}"
        )
    return element


# ---------------------------------------------------------------------------
# Strategies over the whole registry
# ---------------------------------------------------------------------------

#: Text XML 1.0 can carry: any non-surrogate outside the C0 controls,
#: plus the C0/C1 controls it allows and the characters that need escapes.
text = st.text(
    alphabet=st.one_of(
        st.sampled_from("\t\n\r&<>\"'\x7f\x85\x9f"),
        st.characters(
            blacklist_categories=("Cs", "Cc"),
            blacklist_characters="\ufffe\uffff",
        ),
    ),
    max_size=40,
)

_SCALARS = {
    "str": text,
    "int": st.integers(-(2 ** 70), 2 ** 70),
    "float": st.floats(allow_nan=False),
    "bool": st.booleans(),
    "bytes": st.binary(max_size=24),
}
_SCALARS.update(
    {
        f"{name} | None": st.one_of(st.none(), strategy)
        for name, strategy in list(_SCALARS.items())
    }
)


def _message(cls):
    fields = {}
    for field in dataclasses.fields(cls):
        annotation = str(field.type)
        if annotation == "tuple":
            element = _TUPLE_ELEMENTS.get(field.name, text)
            fields[field.name] = st.lists(element, max_size=3).map(tuple)
        else:
            fields[field.name] = _SCALARS[annotation]
    return st.builds(cls, **fields)


#: Element strategies of tuple-typed fields, by field name (the
#: annotation says only ``tuple``).
_TUPLE_ELEMENTS = {
    "comments": st.deferred(lambda: _message(CommentInfo)),
    "items": st.deferred(lambda: _message(QuerySoftwareItem)),
    "results": st.deferred(
        lambda: st.one_of(
            _message(SoftwareInfoResponse), _message(SoftwareSummary)
        )
    ),
    "flags": st.deferred(lambda: _message(CollusionFlag)),
}


def _nested_strings(value, nested=False):
    """Every string held by a message nested inside *value*."""
    if isinstance(value, str):
        if nested:
            yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _nested_strings(item, nested)
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from _nested_strings(getattr(value, field.name), True)


def _newlines(wire: bytes) -> bytes:
    """XML end-of-line handling: ``\\r\\n`` and lone ``\\r`` read as ``\\n``."""
    return wire.replace(b"\r\n", b"\n").replace(b"\r", b"\n")


TAGS = sorted(registered_messages())


@pytest.mark.parametrize("tag", TAGS, ids=TAGS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_writer_matches_the_elementtree_encoder(tag, data):
    msg = data.draw(_message(registered_messages()[tag]))
    ours = encode(msg)
    oracle = _etree_encode(msg)
    assert decode(ours) == decode(oracle)
    assert _newlines(ours) == _newlines(oracle)
    nested_cr = any(
        "\r" in value
        for field in dataclasses.fields(msg)
        for value in _nested_strings(getattr(msg, field.name))
    )
    if not nested_cr:
        assert ours == oracle


def test_nested_carriage_return_is_kept():
    info = SoftwareInfoResponse(
        software_id="ab" * 20,
        known=True,
        comments=(
            CommentInfo(
                comment_id=1,
                username="u",
                text="a\rb",
                positive_remarks=0,
                negative_remarks=0,
            ),
        ),
    )
    assert b"a\rb" in encode(info)
    assert b"a\nb" in _etree_encode(info)
    assert decode(encode(info)) == decode(_etree_encode(info))


def test_short_form_for_empty_values():
    info = SoftwareInfoResponse(software_id="", known=False, vendor=None)
    wire = encode(info)
    assert b'<field type="str" name="software_id" />' in wire
    assert b'<field type="none" name="vendor" />' in wire
    assert b'<field type="list" name="comments" />' in wire
    assert wire == _etree_encode(info)


def test_lone_surrogate_becomes_a_character_reference():
    info = SoftwareSummary(
        software_id="\ud800", file_name="x", vendor=None, score=None,
        vote_count=0,
    )
    assert b"&#55296;" in encode(info)
    assert encode(info) == _etree_encode(info)


def test_unencodable_values_are_refused():
    with pytest.raises(ProtocolError):
        encode(object())
    bad = SoftwareSummary(
        software_id="x", file_name="x", vendor=None, score=None,
        vote_count=object(),
    )
    with pytest.raises(ProtocolError):
        encode(bad)
