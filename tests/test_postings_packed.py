"""Property-based round-trip tests for the packed postings codec.

Seeded-random (not hypothesis — deterministic in CI) coverage of the
flat wire layout: pack -> unpack identity over adversarial shapes
(empty lists, max-score ties, single entries, counts straddling the
numpy dispatch threshold), and bitwise equality between the vectorized
and pure-Python encoders.
"""

import math
import random

import pytest

from repro.ir.postings import (
    POSTING_WIRE_BYTES,
    POSTINGS_ENVELOPE_BYTES,
    Posting,
    PostingList,
    _pack_entries_numpy,
    _pack_entries_python,
    _unpack_entries_numpy,
    _unpack_entries_python,
    pack_entries,
    pack_postings,
    unpack_entries,
    unpack_postings,
)
from repro.util.npcompat import np

SEED = 0xA15



def _random_entries(rng, count, score_mode="mixed"):
    """Adversarially shaped—but valid—postings (unique doc ids)."""
    doc_ids = set()
    while len(doc_ids) < count:
        doc_ids.add(rng.getrandbits(64))
    doc_ids = sorted(doc_ids)
    entries = []
    for doc_id in doc_ids:
        if score_mode == "ties":
            score = 1.0  # every score identical: order rests on doc ids
        elif score_mode == "extreme":
            score = rng.choice([0.0, -0.0, 1e-308, 1e308,
                                float(rng.getrandbits(62)),
                                math.pi, -math.e])
        else:
            score = rng.uniform(-1e6, 1e6)
        entries.append(Posting(doc_id, score))
    return entries


def _as_list(entries, rng):
    truncated_by = rng.choice([0, 0, 1, 17])
    return PostingList(entries, global_df=len(set(
        posting.doc_id for posting in entries)) + truncated_by)


class TestPackUnpackIdentity:
    """pack -> unpack is the identity on canonical posting lists."""

    def test_empty_list(self):
        plist = PostingList()
        blob = pack_postings(plist)
        assert len(blob) == POSTINGS_ENVELOPE_BYTES == plist.wire_size()
        decoded, offset = unpack_postings(blob)
        assert offset == len(blob)
        assert decoded.entries == []
        assert decoded.global_df == 0

    def test_single_entry(self):
        plist = PostingList([Posting(2 ** 64 - 1, 0.125)])
        decoded, _offset = unpack_postings(pack_postings(plist))
        assert decoded.entries == plist.entries
        assert decoded.global_df == plist.global_df

    @pytest.mark.parametrize("count", [1, 2, 7, 8, 9, 63, 64, 200])
    def test_boundary_sizes_round_trip(self, count):
        # Straddles the numpy dispatch threshold (8) on both sides.
        rng = random.Random(SEED + count)
        plist = _as_list(_random_entries(rng, count), rng)
        blob = pack_postings(plist)
        assert len(blob) == plist.wire_size() == \
            POSTINGS_ENVELOPE_BYTES + POSTING_WIRE_BYTES * count
        decoded, offset = unpack_postings(blob)
        assert offset == len(blob)
        assert decoded.entries == plist.entries
        assert decoded.global_df == plist.global_df
        assert decoded.truncated == plist.truncated

    def test_max_score_ties_keep_doc_id_order(self):
        rng = random.Random(SEED)
        plist = _as_list(_random_entries(rng, 32, score_mode="ties"), rng)
        decoded, _offset = unpack_postings(pack_postings(plist))
        assert decoded.doc_ids() == sorted(decoded.doc_ids())
        assert decoded.entries == plist.entries

    def test_extreme_scores_bitwise_exact(self):
        rng = random.Random(SEED + 1)
        for trial in range(25):
            plist = _as_list(
                _random_entries(rng, rng.randrange(0, 40),
                                score_mode="extreme"), rng)
            decoded, _offset = unpack_postings(pack_postings(plist))
            for original, roundtripped in zip(plist.entries,
                                              decoded.entries):
                assert original.doc_id == roundtripped.doc_id
                # Bitwise float equality (covers -0.0 vs 0.0).
                assert math.copysign(1.0, original.score) == \
                    math.copysign(1.0, roundtripped.score)
                assert original.score == roundtripped.score or (
                    math.isnan(original.score)
                    and math.isnan(roundtripped.score))

    def test_random_sweep(self):
        rng = random.Random(SEED + 2)
        for trial in range(200):
            plist = _as_list(
                _random_entries(rng, rng.randrange(0, 48)), rng)
            blob = pack_postings(plist)
            assert len(blob) == plist.wire_size()
            decoded, offset = unpack_postings(blob)
            assert offset == len(blob)
            assert decoded.entries == plist.entries
            assert decoded.global_df == plist.global_df

    def test_truncated_buffer_raises_value_error(self):
        rng = random.Random(SEED + 3)
        plist = _as_list(_random_entries(rng, 12), rng)
        blob = pack_postings(plist)
        for cut in range(len(blob)):
            with pytest.raises(ValueError):
                unpack_postings(blob[:cut])

    def test_offset_chaining(self):
        rng = random.Random(SEED + 4)
        lists = [_as_list(_random_entries(rng, rng.randrange(0, 20)), rng)
                 for _ in range(5)]
        blob = b"".join(pack_postings(plist) for plist in lists)
        offset = 0
        for plist in lists:
            decoded, offset = unpack_postings(blob, offset)
            assert decoded.entries == plist.entries
        assert offset == len(blob)


@pytest.mark.skipif(np is None, reason="numpy unavailable "
                    "(REPRO_PURE_PYTHON=1): single-codec environment")
class TestNumpyPythonBitwiseEquality:
    """The vectorized codec is bit-for-bit the reference codec."""

    @pytest.mark.parametrize("count", [0, 1, 7, 8, 9, 33, 128])
    def test_pack_bitwise_identical(self, count):
        rng = random.Random(SEED + count)
        entries = sorted(_random_entries(rng, count),
                         key=lambda posting: (-posting.score,
                                              posting.doc_id))
        assert _pack_entries_numpy(entries) == \
            _pack_entries_python(entries)

    @pytest.mark.parametrize("count", [0, 1, 7, 8, 9, 33, 128])
    def test_unpack_identical_values_and_types(self, count):
        rng = random.Random(SEED + 100 + count)
        blob = pack_entries(_random_entries(rng, count))
        via_numpy = _unpack_entries_numpy(blob, 0, count)
        via_python = _unpack_entries_python(blob, 0, count)
        assert via_numpy == via_python
        for posting in via_numpy:
            # .tolist() conversion must yield native Python scalars so
            # downstream arithmetic and equality behave identically.
            assert type(posting.doc_id) is int
            assert type(posting.score) is float

    def test_random_sweep_both_codecs(self):
        rng = random.Random(SEED + 5)
        for trial in range(100):
            entries = _random_entries(rng, rng.randrange(0, 40))
            assert _pack_entries_numpy(entries) == \
                _pack_entries_python(entries)

