"""Bloom filters for distributed posting-list intersection.

Zhang & Suel (P2P 2005) — the paper's citation [11] — analyze Bloom
filters as the classic remedy for posting-list-shipping intersection: to
intersect lists held by two peers, ship a Bloom filter of the smaller
list (a few bits per posting instead of 16 bytes), receive the candidate
matches, and remove false positives locally.  Their conclusion, which
experiment E2 reproduces, is that this buys a constant factor only — the
filter still grows linearly with the posting list, so multi-keyword
traffic remains unscalable.  AlvisP2P's answer is structural (bounded,
truncated lists per *combination*), not a better intersection.

**Packed wire encoding.**  :meth:`BloomFilter.pack` is the layout the
wire codec (:mod:`repro.net.wire`) sends and ``wire_size()`` charges: an
8-byte header (bit count, 4 B; hash count, 1 B; insertions, 3 B,
saturating) followed by the bit array, big-endian, in
``ceil(num_bits / 8)`` bytes.
"""

from __future__ import annotations

import hashlib
import math
import struct
from typing import Iterable, List, Tuple

__all__ = ["BloomFilter"]


class BloomFilter:
    """A classic Bloom filter over integer document ids.

    Sized for a target false-positive rate; the bit array is stored as a
    Python int (arbitrary-precision bit operations are fast enough at
    laptop scale).
    """

    #: Wire header: bit count, hash count, insertions (3 bytes).
    _HEADER = struct.Struct(">IB3s")
    HEADER_BYTES = 8

    def __init__(self, capacity: int, false_positive_rate: float = 0.01):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        if not 0 < false_positive_rate < 1:
            raise ValueError(
                f"false_positive_rate must be in (0, 1), got "
                f"{false_positive_rate}")
        capacity = max(1, capacity)
        # Standard sizing: m = -n ln p / (ln 2)^2, k = (m/n) ln 2.
        self.num_bits = max(
            8, int(math.ceil(-capacity * math.log(false_positive_rate)
                             / (math.log(2) ** 2))))
        self.num_hashes = max(
            1, int(round(self.num_bits / capacity * math.log(2))))
        self._bits = 0
        self.count = 0

    # ------------------------------------------------------------------

    def _positions(self, item: int) -> List[int]:
        digest = hashlib.sha1(item.to_bytes(8, "big",
                                            signed=False)).digest()
        positions = []
        for index in range(self.num_hashes):
            chunk = digest[(index * 2) % 18:(index * 2) % 18 + 4]
            value = int.from_bytes(chunk, "big") ^ (index * 0x9E3779B9)
            positions.append(value % self.num_bits)
        return positions

    def add(self, item: int) -> None:
        """Insert one document id."""
        for position in self._positions(item):
            self._bits |= 1 << position
        self.count += 1

    def add_all(self, items: Iterable[int]) -> None:
        for item in items:
            self.add(item)

    def __contains__(self, item: int) -> bool:
        return all(self._bits >> position & 1
                   for position in self._positions(item))

    # ------------------------------------------------------------------

    def wire_size(self) -> int:
        """Bytes on the wire: the bit array plus a small header."""
        return self.HEADER_BYTES + (self.num_bits + 7) // 8

    def pack(self) -> bytes:
        """The packed wire form, exactly ``wire_size()`` bytes long."""
        count = min(self.count, 0xFFFFFF).to_bytes(3, "big")
        return (self._HEADER.pack(self.num_bits, self.num_hashes, count)
                + self._bits.to_bytes((self.num_bits + 7) // 8, "big"))

    @classmethod
    def unpack(cls, data: bytes, offset: int) -> Tuple["BloomFilter", int]:
        """Decode the packed filter at ``offset``; returns the filter and
        the offset just past it.  Raises ``ValueError`` on a short or
        malformed encoding."""
        end = offset + cls.HEADER_BYTES
        if end > len(data):
            raise ValueError("bloom filter header truncated")
        num_bits, num_hashes, count = cls._HEADER.unpack_from(data, offset)
        if num_bits < 1 or num_hashes < 1:
            raise ValueError(f"malformed bloom filter header "
                             f"({num_bits} bits, {num_hashes} hashes)")
        start, end = end, end + (num_bits + 7) // 8
        if end > len(data):
            raise ValueError("bloom filter bit array truncated")
        instance = cls.__new__(cls)
        instance.num_bits = num_bits
        instance.num_hashes = num_hashes
        instance.count = int.from_bytes(count, "big")
        instance._bits = (int.from_bytes(data[start:end], "big")
                          & ((1 << num_bits) - 1))
        return instance, end

    @classmethod
    def of(cls, items: Iterable[int],
           false_positive_rate: float = 0.01) -> "BloomFilter":
        """Build a filter sized for (and filled with) ``items``."""
        materialized = list(items)
        instance = cls(len(materialized), false_positive_rate)
        instance.add_all(materialized)
        return instance
