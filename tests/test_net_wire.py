"""Golden wire-format tests for the UDP codec.

Every message kind on the query path round-trips through
``encode``/``decode``, and the encoded length is reconciled against the
repo's byte-size model (``Message.size_bytes``): the codec was designed
field-name-on-wire so the two agree *exactly*, and ``WIRE_SIZE_DELTA``
pins that contract at zero — any schema change that breaks size parity
fails here, not in a bandwidth experiment.
"""

import struct

import pytest

from repro.ir.bloom import BloomFilter
from repro.ir.postings import Posting, PostingList
from repro.net import protocol, wire
from repro.net.message import HEADER_BYTES, Message
from repro.net.wire import (
    MAX_DATAGRAM_BYTES,
    OversizedPayloadError,
    TruncatedDatagramError,
    UnknownKindError,
    UnsupportedKindError,
    WireError,
)

_POSTINGS = PostingList([Posting(11, 2.5), Posting(7, 1.25),
                         Posting(3, 0.5)], global_df=9)
_BLOOM = BloomFilter.of([3, 7, 11, 2**40 + 5])

#: One representative payload per wire-supported message kind (plus
#: payload variants where senders use different field subsets).
GOLDEN = [
    (protocol.LOOKUP_HOP, {"key_ids": [2**63 + 17]}),
    (protocol.LOOKUP_HOP, {"key_ids": [1, 2**64 - 1, 42]}),
    (protocol.DF_PUBLISH, {"dfs": {"alpha": 3, "beta": 1}}),
    (protocol.DF_GET, {"terms": ["alpha", "beta"]}),
    (protocol.DF_REPLY, {"dfs": {"alpha": 12}}),
    (protocol.COLLECTION_PUBLISH, {"peer": 2**60, "docs": 14,
                                   "terms": 220}),
    (protocol.COLLECTION_GET, {}),
    (protocol.COLLECTION_REPLY, {"docs": 240, "terms": 9000,
                                 "peers": 16}),
    (protocol.PROBE_KEY, {"key_terms": ["peer", "retrieval"]}),
    (protocol.PROBE_REPLY, {"found": True, "postings": _POSTINGS}),
    (protocol.PROBE_REPLY, {"found": False, "postings": None}),
    (protocol.PROBE_BATCH, {"keys": [["peer"], ["peer", "index"]]}),
    (protocol.PROBE_BATCH_REPLY,
     {"results": [{"found": True, "postings": _POSTINGS},
                  {"found": False, "postings": None}]}),
    (protocol.FEEDBACK, {"key_terms": ["peer"], "redundant": False}),
    (protocol.CONTRIBUTORS_GET, {"term": "peer"}),
    (protocol.CONTRIBUTORS_REPLY, {"contributors": {2**50: 4, 9: 1}}),
    (protocol.HARVEST_KEY, {"key_terms": ["peer", "index"], "k": 10}),
    (protocol.HARVEST_REPLY, {"postings": _POSTINGS, "local_df": 9}),
    (protocol.REFINE_QUERY, {"terms": ["peer", "index"],
                             "doc_ids": [3, 7, 11]}),
    (protocol.REFINE_REPLY, {"scores": {3: 1.5, 7: 0.25}}),
    (protocol.DOC_FETCH, {"doc_id": 7, "credentials": ["user", "pass"],
                          "terms": ["peer"]}),
    (protocol.DOC_FETCH, {"doc_id": 7, "credentials": None,
                          "terms": []}),
    (protocol.DOC_REPLY, {"ok": True, "title": "Two step retrieval",
                          "url": "builtin://sample/11",
                          "snippet": "…retrieval…"}),
    (protocol.DOC_REPLY, {"ok": False, "error": "unknown document"}),
    (protocol.RETRACT_DOC, {"key_terms": ["peer"], "doc_id": 3,
                            "contributor": 8, "new_local_df": 2}),
    (wire.ACK, {}),
    (wire.ERR, {"error": "unknown-peer"}),
    (wire.HELLO, {"host": 1, "port": 54321, "fingerprint": "ab" * 20}),
    (wire.WELCOME, {"ok": True, "error": ""}),
    (wire.BYE, {}),
    (protocol.TERM_SCORES, {"term": "peer", "doc_ids": [3, 7, 11]}),
    (protocol.TERM_SCORES_REPLY, {"scores": {7: 1.5, 11: 0.125}}),
    (protocol.BLOOM_GET, {"term": "peer"}),
    (protocol.BLOOM_REPLY, {"bloom": _BLOOM}),
    (protocol.BLOOM_MATCH, {"term": "index", "bloom": _BLOOM}),
    (protocol.BLOOM_MATCH_REPLY, {"postings": _POSTINGS}),
]


def _normalize(value):
    """Comparable form of a payload value (PostingList has no __eq__)."""
    if isinstance(value, PostingList):
        return ("postings", value.global_df,
                tuple((posting.doc_id, posting.score)
                      for posting in value.entries))
    if isinstance(value, BloomFilter):
        return ("bloom", value.num_bits, value.num_hashes, value.count,
                value.pack())
    if isinstance(value, (list, tuple)):
        return tuple(_normalize(item) for item in value)
    if isinstance(value, dict):
        return tuple(sorted((key, _normalize(item))
                            for key, item in value.items()))
    return value


def _messages_equal(original: Message, decoded: Message) -> None:
    assert decoded.src == original.src
    assert decoded.dst == original.dst
    assert decoded.kind == original.kind
    assert decoded.message_id == original.message_id
    assert decoded.reply_to == original.reply_to
    assert _normalize(dict(decoded.payload)) == \
        _normalize(dict(original.payload))


class TestGoldenRoundTrips:
    @pytest.mark.parametrize("kind,payload", GOLDEN,
                             ids=[f"{kind}-{index}" for index, (kind, _)
                                  in enumerate(GOLDEN)])
    def test_round_trip(self, kind, payload):
        message = Message(src=2**64 - 3, dst=5, kind=kind,
                          payload=payload)
        decoded = wire.decode(wire.encode(message))
        _messages_equal(message, decoded)

    @pytest.mark.parametrize("kind,payload", GOLDEN,
                             ids=[f"{kind}-{index}" for index, (kind, _)
                                  in enumerate(GOLDEN)])
    def test_encoded_length_matches_size_model(self, kind, payload):
        message = Message(src=1, dst=2, kind=kind, payload=payload)
        assert len(wire.encode(message)) == \
            message.size_bytes() + wire.WIRE_SIZE_DELTA

    def test_delta_is_pinned_to_zero(self):
        # The codec writes field names on the wire precisely so the
        # encoded bytes equal the modelled bytes; a nonzero delta means
        # simulator bandwidth numbers no longer describe the real wire.
        assert wire.WIRE_SIZE_DELTA == 0

    def test_reply_correlation_round_trips(self):
        request = Message(src=1, dst=2, kind=protocol.PROBE_KEY,
                          payload={"key_terms": ["peer"]})
        reply = request.reply(protocol.PROBE_REPLY,
                              {"found": False, "postings": None})
        decoded = wire.decode(wire.encode(reply))
        assert decoded.reply_to == request.message_id

    def test_all_retrieval_kinds_covered(self):
        supported = set(wire.supported_kinds())
        for kind in protocol.RETRIEVAL_KINDS:
            assert kind in supported
        assert protocol.LOOKUP_HOP in supported

    def test_every_supported_kind_has_a_golden_case(self):
        # A kind with a schema but no golden case would go untested by
        # the round-trip, size-parity and fuzz checks above and below.
        golden_kinds = {kind for kind, _payload in GOLDEN}
        assert set(wire.supported_kinds()) <= golden_kinds

    @pytest.mark.parametrize("items", [[], [5], list(range(0, 9000, 3))])
    def test_bloom_field_encodes_in_wire_size(self, items):
        bloom = BloomFilter.of(items)
        with_bloom = wire.encode(Message(src=1, dst=2,
                                         kind=protocol.BLOOM_REPLY,
                                         payload={"bloom": bloom}))
        empty = wire.encode(Message(src=1, dst=2,
                                    kind=protocol.BLOOM_REPLY, payload={}))
        field = len("bloom".encode()) + 2
        assert len(with_bloom) - len(empty) == field + bloom.wire_size()


class TestCodecFailureModes:
    def _encoded(self):
        return wire.encode(Message(src=1, dst=2, kind=protocol.PROBE_KEY,
                                   payload={"key_terms": ["peer"]}))

    def test_truncated_header(self):
        with pytest.raises(TruncatedDatagramError):
            wire.decode(self._encoded()[:HEADER_BYTES - 1])

    def test_truncated_payload(self):
        with pytest.raises(TruncatedDatagramError):
            wire.decode(self._encoded()[:-3])

    def test_empty_datagram(self):
        with pytest.raises(TruncatedDatagramError):
            wire.decode(b"")

    def test_bad_magic(self):
        data = bytearray(self._encoded())
        data[0] ^= 0xFF
        with pytest.raises(WireError):
            wire.decode(bytes(data))

    def test_unknown_kind_tag(self):
        data = bytearray(self._encoded())
        struct.pack_into(">H", data, 3, 0xFFFF)  # kind tag field
        with pytest.raises(UnknownKindError):
            wire.decode(bytes(data))

    def test_trailing_garbage_rejected(self):
        with pytest.raises(WireError):
            wire.decode(self._encoded() + b"\x00")

    def test_unsupported_kind_encode(self):
        with pytest.raises(UnsupportedKindError):
            wire.encode(Message(src=1, dst=2, kind="NoSuchKind",
                                payload={}))

    def test_unknown_field_rejected(self):
        with pytest.raises(WireError):
            wire.encode(Message(src=1, dst=2, kind=protocol.PROBE_KEY,
                                payload={"bogus": 1}))

    def test_oversized_payload_encode(self):
        doc_ids = list(range((MAX_DATAGRAM_BYTES // 8) + 64))
        with pytest.raises(OversizedPayloadError):
            wire.encode(Message(src=1, dst=2, kind=protocol.REFINE_QUERY,
                                payload={"terms": [],
                                         "doc_ids": doc_ids}))

    def test_failure_hierarchy(self):
        # One except-clause in the transport catches every codec error.
        for error in (TruncatedDatagramError, UnknownKindError,
                      OversizedPayloadError, UnsupportedKindError):
            assert issubclass(error, WireError)


class TestDecodeFuzz:
    """Seeded decoder fuzzing over every wire kind.

    The contract under test is the one :func:`wire.decode` documents:
    *any* malformed datagram raises a :class:`WireError` subclass — a
    corrupted packet must never leak a bare ``struct.error``,
    ``UnicodeDecodeError``, ``KeyError`` or similar past the codec,
    because the UDP backend's single except-clause would miss it and
    take the transport down.  Deterministic (fixed seeds), so failures
    reproduce.
    """

    @staticmethod
    def _corpus():
        return [wire.encode(Message(src=2**64 - 3, dst=5, kind=kind,
                                    payload=payload))
                for kind, payload in GOLDEN]

    @staticmethod
    def _decode_or_wire_error(data):
        """Decode must either succeed or raise a WireError subclass."""
        try:
            decoded = wire.decode(data)
        except WireError:
            return None
        assert isinstance(decoded, Message)
        return decoded

    def test_every_strict_prefix_raises_wire_error(self):
        # A datagram cut anywhere — mid-header, mid-field-name,
        # mid-value — must raise, never return a partial message.
        for encoded in self._corpus():
            for cut in range(len(encoded)):
                with pytest.raises(WireError):
                    wire.decode(encoded[:cut])

    def test_trailing_bytes_raise_wire_error(self):
        import random
        rng = random.Random(0xA1B5)
        for encoded in self._corpus():
            for extra in (1, 7, 64):
                tail = bytes(rng.randrange(256) for _ in range(extra))
                with pytest.raises(WireError):
                    wire.decode(encoded + tail)

    def test_single_bit_flips_never_leak_foreign_errors(self):
        # Flip one bit at seeded positions in every golden datagram.
        # The result is allowed to decode (many flips only change a
        # value) but a failure must be a WireError.
        import random
        rng = random.Random(1234)
        for encoded in self._corpus():
            positions = rng.sample(range(len(encoded)),
                                   min(48, len(encoded)))
            for position in positions:
                data = bytearray(encoded)
                data[position] ^= 1 << rng.randrange(8)
                self._decode_or_wire_error(bytes(data))

    def test_multi_byte_corruption_never_leaks_foreign_errors(self):
        # Overwrite a seeded random slice with random bytes (hits
        # length prefixes, counts and string bodies much harder than
        # single-bit flips).
        import random
        rng = random.Random(5678)
        for encoded in self._corpus():
            for _ in range(16):
                data = bytearray(encoded)
                start = rng.randrange(len(data))
                length = min(rng.randrange(1, 9), len(data) - start)
                for index in range(start, start + length):
                    data[index] = rng.randrange(256)
                self._decode_or_wire_error(bytes(data))

    def test_random_garbage_datagrams_raise_or_decode(self):
        import random
        rng = random.Random(0xFEED)
        for _ in range(200):
            size = rng.randrange(0, 160)
            data = bytes(rng.randrange(256) for _ in range(size))
            self._decode_or_wire_error(data)

    def test_oversized_datagram_raises_wire_error(self):
        encoded = self._corpus()[0]
        padded = encoded + b"\x00" * (MAX_DATAGRAM_BYTES + 1
                                      - len(encoded))
        with pytest.raises(WireError):
            wire.decode(padded)

    def test_decoded_corruptions_reencode(self):
        # Survivor property: whatever a corrupted datagram decodes to
        # is a well-formed message — it must encode again without error
        # (same kind, same schema), closing the loop on consistency.
        import random
        rng = random.Random(97)
        reencoded = 0
        for encoded in self._corpus():
            for _ in range(24):
                data = bytearray(encoded)
                position = rng.randrange(len(data))
                data[position] ^= 1 << rng.randrange(8)
                decoded = self._decode_or_wire_error(bytes(data))
                if decoded is None:
                    continue
                again = wire.encode(decoded)
                assert wire.decode(again).kind == decoded.kind
                reencoded += 1
        # The corpus is large enough that plenty of flips only touch
        # benign value bytes; guard against the test silently skipping.
        assert reencoded > 50
