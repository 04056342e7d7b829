"""Binary wire codec for the real-network transport backend.

Serializes every :class:`~repro.net.message.Message` kind on the query
path (``LookupHop``, ``ProbeBatch``, probe/lookup replies, the
HDK-keyed payloads of refinement, document access and the statistics
protocol, and the single-term baseline's intersection legs) into
self-contained datagrams, and back.

**Size reconciliation.**  The simulator's bandwidth results rest on the
per-field size model of :func:`repro.net.message.encoded_size`; this
codec is written so the model is *exact* for every supported kind:

* the frame header is exactly ``HEADER_BYTES`` (48) long — magic (2),
  version (1), kind tag (2), src/dst/message id/reply-to (8 each),
  payload length (4), reserved padding (7);
* payload fields are encoded as the model charges them: a 4-byte count
  prefix per container, field names as 2-byte-length UTF-8 strings,
  8-byte ints/ids/floats, 1-byte bools, posting lists in their
  ``wire_size()`` layout (8-byte global df, truncation flag, 4-byte
  count, 16 bytes per posting), Bloom filters in theirs (8-byte header
  plus the bit array).

``len(encode(message)) == message.size_bytes() + WIRE_SIZE_DELTA`` with
``WIRE_SIZE_DELTA`` pinned to **0** — asserted for every supported kind
by ``tests/test_net_wire.py``, so any codec change that breaks the
reconciliation fails loudly.

**Optional fields.**  A ``None`` value is a single ``0xFF`` sentinel
byte (the model charges ``None`` one byte).  Optionality is therefore
only supported for specs whose first encoded byte can never be ``0xFF``
— length-prefixed strings/containers bounded by the datagram size, and
posting lists (whose leading byte is the high byte of an 8-byte global
df).  Plain optional ints are deliberately unsupported: a negative
big-endian int also starts with ``0xFF``.

Decoding failures raise :class:`WireError` subclasses; the UDP backend
catches them and drops the datagram, so a truncated, unknown-kind or
oversized datagram degrades into a clean ``RequestOutcome`` timeout or
drop instead of crashing the peer.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.net import protocol
from repro.net.message import HEADER_BYTES, Message
from repro.ir.bloom import BloomFilter
from repro.ir.postings import (POSTING_WIRE_BYTES, PostingList,
                               pack_postings, unpack_entries)

__all__ = [
    "WIRE_SIZE_DELTA", "MAX_DATAGRAM_BYTES", "WIRE_MAGIC", "WIRE_VERSION",
    "ACK", "ERR", "HELLO", "WELCOME", "BYE",
    "WireError", "TruncatedDatagramError", "UnknownKindError",
    "OversizedPayloadError", "UnsupportedKindError",
    "encode", "decode", "supported_kinds", "message_kinds",
]

#: Pinned constant offset between ``len(encode(m))`` and the
#: ``encoded_size`` model's ``m.size_bytes()``.  Zero: the codec's frame
#: is exactly ``HEADER_BYTES`` and every payload field matches the model
#: byte for byte (see module docstring).
WIRE_SIZE_DELTA = 0

#: Hard bound on one encoded datagram (UDP's practical maximum payload).
MAX_DATAGRAM_BYTES = 65507

WIRE_MAGIC = 0xA1B5          #: "Alvis" frame marker
WIRE_VERSION = 1

# Wire-internal control kinds (never part of the simulator's protocol
# accounting): delivery acks for one-way messages, error nacks, and the
# cluster bootstrap handshake.
ACK = "__ack__"
ERR = "__err__"
HELLO = "__hello__"
WELCOME = "__welcome__"
BYE = "__bye__"


class WireError(Exception):
    """Base class for codec failures (malformed or unsupported data)."""


class TruncatedDatagramError(WireError):
    """The datagram ended before the announced structure did."""


class UnknownKindError(WireError):
    """The kind tag (or a payload field name) is not in the schema."""


class OversizedPayloadError(WireError):
    """The message does not fit in one UDP datagram."""


class UnsupportedKindError(WireError):
    """``encode`` was asked for a kind outside the query-path schema."""


# ----------------------------------------------------------------------
# Per-kind payload schemas
# ----------------------------------------------------------------------
#
# Field specs:
#   "id"     unsigned 64-bit integer (peer/key/document identifiers)
#   "int"    signed 64-bit integer (counts, df deltas)
#   "float"  IEEE-754 double
#   "bool"   1 byte
#   "str"    2-byte length prefix + UTF-8 bytes
#   ("list", item_spec)            4-byte count + items
#   ("map", key_spec, value_spec)  4-byte count + key/value pairs
#   ("struct", {name: spec})       encoded like a payload dict
#   ("opt", spec)                  None as one 0xFF byte, else spec
#   "postings"                     PostingList.wire_size() layout
#   "bloom"                        BloomFilter.wire_size() layout
#
# A payload only encodes the fields it actually carries (the 4-byte
# container prefix doubles as the field count), so variant payloads —
# e.g. DocReply's success fields vs its ``error`` — need no presence
# flags.  A LookupHop always carries ``key_ids``: a one-key hop is a
# one-element list.

_PROBE_ITEM = ("struct", {"found": "bool",
                          "postings": ("opt", "postings")})

_SCHEMAS: Dict[str, Dict[str, Any]] = {
    protocol.LOOKUP_HOP: {"key_ids": ("list", "id")},
    protocol.DF_PUBLISH: {"dfs": ("map", "str", "int")},
    protocol.DF_GET: {"terms": ("list", "str")},
    protocol.DF_REPLY: {"dfs": ("map", "str", "int")},
    protocol.COLLECTION_PUBLISH: {"peer": "id", "docs": "int",
                                  "terms": "int"},
    protocol.COLLECTION_GET: {},
    protocol.COLLECTION_REPLY: {"docs": "int", "terms": "int",
                                "peers": "int"},
    protocol.PROBE_KEY: {"key_terms": ("list", "str")},
    protocol.PROBE_REPLY: {"found": "bool",
                           "postings": ("opt", "postings")},
    protocol.PROBE_BATCH: {"keys": ("list", ("list", "str"))},
    protocol.PROBE_BATCH_REPLY: {"results": ("list", _PROBE_ITEM)},
    protocol.FEEDBACK: {"key_terms": ("list", "str"), "redundant": "bool"},
    protocol.CONTRIBUTORS_GET: {"term": "str"},
    protocol.CONTRIBUTORS_REPLY: {"contributors": ("map", "id", "int")},
    protocol.HARVEST_KEY: {"key_terms": ("list", "str"), "k": "int"},
    protocol.HARVEST_REPLY: {"postings": ("opt", "postings"),
                             "local_df": "int"},
    protocol.REFINE_QUERY: {"terms": ("list", "str"),
                            "doc_ids": ("list", "id")},
    protocol.REFINE_REPLY: {"scores": ("map", "id", "float")},
    protocol.DOC_FETCH: {"doc_id": "id",
                         "credentials": ("opt", ("list", "str")),
                         "terms": ("list", "str")},
    protocol.DOC_REPLY: {"ok": "bool", "title": "str", "url": "str",
                         "snippet": "str", "error": "str"},
    protocol.RETRACT_DOC: {"key_terms": ("list", "str"), "doc_id": "id",
                           "contributor": "id", "new_local_df": "int"},
    protocol.TERM_SCORES: {"term": "str", "doc_ids": ("list", "id")},
    protocol.TERM_SCORES_REPLY: {"scores": ("map", "id", "float")},
    protocol.BLOOM_GET: {"term": "str"},
    protocol.BLOOM_REPLY: {"bloom": "bloom"},
    protocol.BLOOM_MATCH: {"term": "str", "bloom": "bloom"},
    protocol.BLOOM_MATCH_REPLY: {"postings": "postings"},
    # Wire-internal control traffic (cluster bootstrap + delivery acks).
    ACK: {},
    ERR: {"error": "str"},
    HELLO: {"host": "int", "port": "int", "fingerprint": "str"},
    WELCOME: {"ok": "bool", "error": "str"},
    BYE: {},
}

#: Fixed tag order — append only, so tags stay stable across versions.
_KIND_ORDER = (
    protocol.LOOKUP_HOP, protocol.DF_PUBLISH, protocol.DF_GET,
    protocol.DF_REPLY, protocol.COLLECTION_PUBLISH, protocol.COLLECTION_GET,
    protocol.COLLECTION_REPLY, protocol.PROBE_KEY, protocol.PROBE_REPLY,
    protocol.PROBE_BATCH, protocol.PROBE_BATCH_REPLY, protocol.FEEDBACK,
    protocol.CONTRIBUTORS_GET, protocol.CONTRIBUTORS_REPLY,
    protocol.HARVEST_KEY, protocol.HARVEST_REPLY, protocol.REFINE_QUERY,
    protocol.REFINE_REPLY, protocol.DOC_FETCH, protocol.DOC_REPLY,
    protocol.RETRACT_DOC, ACK, ERR, HELLO, WELCOME, BYE,
    protocol.TERM_SCORES, protocol.TERM_SCORES_REPLY, protocol.BLOOM_GET,
    protocol.BLOOM_REPLY, protocol.BLOOM_MATCH, protocol.BLOOM_MATCH_REPLY,
)

_KIND_TO_TAG = {kind: tag for tag, kind in enumerate(_KIND_ORDER, start=1)}
_TAG_TO_KIND = {tag: kind for kind, tag in _KIND_TO_TAG.items()}

_NONE_SENTINEL = 0xFF

_HEADER = struct.Struct(">HBHQQQQI7x")
assert _HEADER.size == HEADER_BYTES, _HEADER.size


def supported_kinds() -> Tuple[str, ...]:
    """Every message kind the codec can carry (schema order)."""
    return _KIND_ORDER


def message_kinds() -> Dict[str, Tuple[str, ...]]:
    """The full wire schema: kind -> field names, in tag order.

    This is the runtime ground truth that ``repro lint``'s wire-schema
    checker extracts statically; ``tests/test_lint_wire_schema.py`` pins
    the two views against each other so the checker cannot silently
    drift from the codec.
    """
    return {kind: tuple(_SCHEMAS[kind]) for kind in _KIND_ORDER}


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------

def _encode_value(out: bytearray, spec: Any, value: Any,
                  context: str) -> None:
    if isinstance(spec, tuple) and spec[0] == "opt":
        if value is None:
            out.append(_NONE_SENTINEL)
            return
        spec = spec[1]
    if value is None:
        raise WireError(f"{context}: unexpected None for spec {spec!r}")
    if spec == "id":
        out += struct.pack(">Q", int(value))
    elif spec == "int":
        out += struct.pack(">q", int(value))
    elif spec == "float":
        out += struct.pack(">d", float(value))
    elif spec == "bool":
        out.append(1 if value else 0)
    elif spec == "str":
        data = str(value).encode("utf-8")
        if len(data) > 0xFFFF:
            raise OversizedPayloadError(
                f"{context}: string of {len(data)} bytes")
        out += struct.pack(">H", len(data))
        out += data
    elif spec == "postings":
        out += pack_postings(value)
    elif spec == "bloom":
        out += value.pack()
    elif spec[0] == "list":
        items = list(value)
        out += struct.pack(">I", len(items))
        for item in items:
            _encode_value(out, spec[1], item, context)
    elif spec[0] == "map":
        items = list(value.items())
        out += struct.pack(">I", len(items))
        for key, item in items:
            _encode_value(out, spec[1], key, context)
            _encode_value(out, spec[2], item, context)
    elif spec[0] == "struct":
        _encode_fields(out, spec[1], value, context)
    else:
        raise WireError(f"{context}: unknown spec {spec!r}")


def _encode_fields(out: bytearray, schema: Mapping[str, Any],
                   payload: Mapping[str, Any], context: str) -> None:
    out += struct.pack(">I", len(payload))
    for name, value in payload.items():
        spec = schema.get(name)
        if spec is None:
            raise UnknownKindError(f"{context}: field {name!r} not in schema")
        name_bytes = name.encode("utf-8")
        out += struct.pack(">H", len(name_bytes))
        out += name_bytes
        _encode_value(out, spec, value, f"{context}.{name}")


def encode(message: Message) -> bytes:
    """Encode one message into a self-contained datagram.

    Raises :class:`UnsupportedKindError` for kinds outside the
    query-path schema and :class:`OversizedPayloadError` when the
    result would not fit in one UDP datagram.
    """
    schema = _SCHEMAS.get(message.kind)
    if schema is None:
        raise UnsupportedKindError(
            f"no wire schema for message kind {message.kind!r}")
    payload = bytearray()
    _encode_fields(payload, schema, message.payload, message.kind)
    total = HEADER_BYTES + len(payload)
    if total > MAX_DATAGRAM_BYTES:
        raise OversizedPayloadError(
            f"{message.kind} message of {total} bytes exceeds the "
            f"{MAX_DATAGRAM_BYTES}-byte datagram bound")
    header = _HEADER.pack(WIRE_MAGIC, WIRE_VERSION,
                          _KIND_TO_TAG[message.kind],
                          message.src, message.dst, message.message_id,
                          message.reply_to or 0, len(payload))
    return header + bytes(payload)


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------

class _Reader:
    __slots__ = ("data", "offset")

    def __init__(self, data: bytes, offset: int):
        self.data = data
        self.offset = offset

    def take(self, count: int) -> bytes:
        end = self.offset + count
        if end > len(self.data):
            raise TruncatedDatagramError(
                f"needed {count} bytes at offset {self.offset}, "
                f"datagram has {len(self.data)}")
        chunk = self.data[self.offset:end]
        self.offset = end
        return chunk

    def peek(self) -> int:
        if self.offset >= len(self.data):
            raise TruncatedDatagramError("datagram ended at a value")
        return self.data[self.offset]

    def unpack(self, fmt: struct.Struct) -> tuple:
        return fmt.unpack(self.take(fmt.size))


_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
_POSTING = struct.Struct(">Qd")
_POSTINGS_ENVELOPE = struct.Struct(">QBI")

#: Cap on decoded container sizes: no legitimate container in one
#: datagram can hold more items than the datagram has bytes.
_MAX_ITEMS = MAX_DATAGRAM_BYTES


def _decode_utf8(raw: bytes, context: str) -> str:
    """Decode a UTF-8 string field, mapping bad bytes to a WireError.

    A corrupted datagram must never leak a ``UnicodeDecodeError`` (not a
    :class:`WireError`) past :func:`decode` — the transport's single
    except-clause would miss it (found by the decoder fuzz tests).
    """
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as error:
        raise WireError(f"{context}: invalid UTF-8 string") from error


def _decode_count(reader: _Reader, context: str) -> int:
    (count,) = reader.unpack(_U32)
    if count > _MAX_ITEMS:
        raise TruncatedDatagramError(
            f"{context}: container announces {count} items")
    return count


def _decode_value(reader: _Reader, spec: Any, context: str) -> Any:
    if isinstance(spec, tuple) and spec[0] == "opt":
        if reader.peek() == _NONE_SENTINEL:
            reader.take(1)
            return None
        spec = spec[1]
    if spec == "id":
        return reader.unpack(_U64)[0]
    if spec == "int":
        return reader.unpack(_I64)[0]
    if spec == "float":
        return reader.unpack(_F64)[0]
    if spec == "bool":
        return reader.take(1)[0] != 0
    if spec == "str":
        (length,) = reader.unpack(_U16)
        return _decode_utf8(reader.take(length), context)
    if spec == "postings":
        return _decode_postings(reader, context)
    if spec == "bloom":
        try:
            bloom, reader.offset = BloomFilter.unpack(reader.data,
                                                      reader.offset)
        except ValueError as error:
            raise TruncatedDatagramError(f"{context}: {error}") from error
        return bloom
    if spec[0] == "list":
        count = _decode_count(reader, context)
        return [_decode_value(reader, spec[1], context)
                for _ in range(count)]
    if spec[0] == "map":
        count = _decode_count(reader, context)
        result = {}
        for _ in range(count):
            key = _decode_value(reader, spec[1], context)
            result[key] = _decode_value(reader, spec[2], context)
        return result
    if spec[0] == "struct":
        return _decode_fields(reader, spec[1], context)
    raise WireError(f"{context}: unknown spec {spec!r}")


def _decode_postings(reader: _Reader, context: str) -> PostingList:
    global_df, truncated_flag, count = reader.unpack(_POSTINGS_ENVELOPE)
    if count > _MAX_ITEMS:
        raise TruncatedDatagramError(
            f"{context}: posting list announces {count} entries")
    try:
        # Vectorized entry-block decode (pure-Python fallback inside).
        entries = unpack_entries(reader.data, reader.offset, count)
    except ValueError as error:
        raise TruncatedDatagramError(f"{context}: {error}") from error
    reader.offset += count * POSTING_WIRE_BYTES
    # An untruncated flag with global_df > len(entries) cannot happen on
    # encode; tolerate it on decode (global_df already encodes it).
    del truncated_flag
    return PostingList(entries, global_df=max(global_df, len(entries)))


def _decode_fields(reader: _Reader, schema: Mapping[str, Any],
                   context: str) -> Dict[str, Any]:
    count = _decode_count(reader, context)
    payload: Dict[str, Any] = {}
    for _ in range(count):
        (name_length,) = reader.unpack(_U16)
        name = _decode_utf8(reader.take(name_length), context)
        spec = schema.get(name)
        if spec is None:
            raise UnknownKindError(
                f"{context}: field {name!r} not in schema")
        payload[name] = _decode_value(reader, spec, f"{context}.{name}")
    return payload


def decode(data: bytes) -> Message:
    """Decode one datagram back into a :class:`Message`.

    Raises a :class:`WireError` subclass on any malformed input; never
    returns a partially-decoded message.
    """
    if len(data) < HEADER_BYTES:
        raise TruncatedDatagramError(
            f"datagram of {len(data)} bytes is shorter than the "
            f"{HEADER_BYTES}-byte header")
    if len(data) > MAX_DATAGRAM_BYTES:
        raise OversizedPayloadError(
            f"datagram of {len(data)} bytes exceeds the bound")
    magic, version, tag, src, dst, message_id, reply_to, payload_len = \
        _HEADER.unpack_from(data)
    if magic != WIRE_MAGIC:
        raise WireError(f"bad magic 0x{magic:04X}")
    if version != WIRE_VERSION:
        raise WireError(f"unsupported wire version {version}")
    kind = _TAG_TO_KIND.get(tag)
    if kind is None:
        raise UnknownKindError(f"unknown kind tag {tag}")
    if payload_len != len(data) - HEADER_BYTES:
        raise TruncatedDatagramError(
            f"payload length field says {payload_len}, datagram "
            f"carries {len(data) - HEADER_BYTES}")
    reader = _Reader(data, HEADER_BYTES)
    payload = _decode_fields(reader, _SCHEMAS[kind], kind)
    if reader.offset != len(data):
        raise WireError(
            f"{len(data) - reader.offset} trailing bytes after payload")
    return Message(src=src, dst=dst, kind=kind, payload=payload,
                   reply_to=reply_to or None, message_id=message_id)
