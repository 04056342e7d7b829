"""Messages and the wire-size model.

Bandwidth consumption is the paper's central scalability argument, so the
simulator does not hand-wave sizes: every message carries a payload whose
encoded size is estimated with the same per-field accounting a compact
binary codec would produce.  The constants below mirror common wire formats
(8-byte ids and offsets, UTF-8 strings with a 2-byte length prefix).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

__all__ = ["HEADER_BYTES", "encoded_size", "Message"]

#: Fixed per-message overhead: src/dst peer ids (8 B each), message id (8 B),
#: type tag (2 B), payload length (4 B), plus IP/TCP-ish framing amortized
#: to 18 B. Total 48 B — deliberately conservative.
HEADER_BYTES = 48

_BYTES_PER_INT = 8
_BYTES_PER_FLOAT = 8
_BYTES_PER_BOOL = 1
_STRING_LENGTH_PREFIX = 2
_CONTAINER_PREFIX = 4

_message_ids = itertools.count(1)

#: Memoized string sizes.  Payload strings are overwhelmingly drawn
#: from a small shared pool (vocabulary terms, message field names), so
#: the UTF-8 encode is paid once per distinct string.  Bounded so
#: adversarial workloads with unbounded distinct strings cannot grow it
#: forever.
_string_sizes: dict = {}
_STRING_CACHE_LIMIT = 1 << 16


def encoded_size(value: Any) -> int:
    """Estimate the encoded size in bytes of a payload value.

    Supports the JSON-ish types used in payloads: ``None``, ``bool``,
    ``int``, ``float``, ``str``, ``bytes`` and (possibly nested) lists,
    tuples, sets, frozensets and mappings.  Objects exposing a
    ``wire_size()`` method (e.g. posting lists) report their own size.

    Exact built-in types are dispatched before the ``wire_size`` probe:
    payload values are overwhelmingly plain scalars/containers, which
    cannot carry a ``wire_size`` method, and probing every int for one
    dominated sizing at indexing scale.  Subclasses and sized objects
    take the ``isinstance`` fallback.

    >>> encoded_size(7)
    8
    >>> encoded_size("abc")
    5
    >>> encoded_size([1, 2]) == _CONTAINER_PREFIX + 16
    True
    """
    kind = type(value)
    if kind is int:
        return _BYTES_PER_INT
    if kind is str:
        size = _string_sizes.get(value)
        if size is None:
            size = _STRING_LENGTH_PREFIX + len(value.encode("utf-8"))
            if len(_string_sizes) < _STRING_CACHE_LIMIT:
                _string_sizes[value] = size
        return size
    if kind is float:
        return _BYTES_PER_FLOAT
    if kind is bool:
        return _BYTES_PER_BOOL
    if kind is dict:
        # Scalar fields are inlined — payload dicts are small and
        # overwhelmingly str keys with int/str/float values, and the
        # recursive call per field dominated sizing at indexing scale.
        sizes = _string_sizes
        total = _CONTAINER_PREFIX
        for key, item in value.items():
            if type(key) is str:
                size = sizes.get(key)
                if size is None:
                    size = (_STRING_LENGTH_PREFIX
                            + len(key.encode("utf-8")))
                    if len(sizes) < _STRING_CACHE_LIMIT:
                        sizes[key] = size
                total += size
            else:
                total += encoded_size(key)
            kind_item = type(item)
            if kind_item is int:
                total += _BYTES_PER_INT
            elif kind_item is str:
                size = sizes.get(item)
                if size is None:
                    size = (_STRING_LENGTH_PREFIX
                            + len(item.encode("utf-8")))
                    if len(sizes) < _STRING_CACHE_LIMIT:
                        sizes[item] = size
                total += size
            elif kind_item is float:
                total += _BYTES_PER_FLOAT
            else:
                total += encoded_size(item)
        return total
    if kind is list or kind is tuple:
        total = _CONTAINER_PREFIX
        for item in value:
            if type(item) is int:
                total += _BYTES_PER_INT
            else:
                total += encoded_size(item)
        return total
    if value is None:
        return 1
    wire_size = getattr(value, "wire_size", None)
    if callable(wire_size):
        return int(wire_size())
    if isinstance(value, bool):
        return _BYTES_PER_BOOL
    if isinstance(value, int):
        return _BYTES_PER_INT
    if isinstance(value, float):
        return _BYTES_PER_FLOAT
    if isinstance(value, str):
        return _STRING_LENGTH_PREFIX + len(value.encode("utf-8"))
    if isinstance(value, bytes):
        return _STRING_LENGTH_PREFIX + len(value)
    if isinstance(value, (list, tuple, set, frozenset)):
        return _CONTAINER_PREFIX + sum(
            encoded_size(item) for item in value)
    if isinstance(value, Mapping):
        return _CONTAINER_PREFIX + sum(
            encoded_size(key) + encoded_size(item)
            for key, item in value.items())
    raise TypeError(f"cannot estimate wire size of {type(value).__name__}")


@dataclass
class Message:
    """A point-to-point message between two peers.

    ``kind`` is a short type tag (e.g. ``"LookupRequest"``) used both for
    dispatch and for per-type traffic accounting.  ``payload`` is a mapping
    of field name to value; its size is computed lazily and cached.
    """

    src: int
    dst: int
    kind: str
    payload: Mapping[str, Any] = field(default_factory=dict)
    reply_to: Optional[int] = None
    message_id: int = field(default_factory=lambda: next(_message_ids))
    _cached_size: Optional[int] = field(default=None, repr=False,
                                        compare=False)

    def size_bytes(self) -> int:
        """Total wire size: header plus encoded payload."""
        if self._cached_size is None:
            self._cached_size = HEADER_BYTES + encoded_size(self.payload)
        return self._cached_size

    def reply(self, kind: str, payload: Mapping[str, Any]) -> "Message":
        """Build a response message routed back to the sender."""
        return Message(src=self.dst, dst=self.src, kind=kind,
                       payload=payload, reply_to=self.message_id)

    def __repr__(self) -> str:
        return (f"Message(#{self.message_id} {self.kind} "
                f"{self.src}->{self.dst}, {self.size_bytes()}B)")
