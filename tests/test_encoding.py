"""Unit and property tests for the encoding subpackage."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.columnar import AmaxComponentBuilder
from repro.core import Schema
from repro.datasets import make_generator
from repro.encoding import (
    bitpacking,
    decode_values,
    delta,
    delta_string,
    encode_values,
    get_codec,
    plain,
    rle,
    varint,
)
from repro.encoding.compression import SnappyLikeCodec
from repro.model.errors import EncodingError
from repro.storage import BufferCache, StorageDevice


class TestVarint:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**32, 2**63])
    def test_uvarint_round_trip(self, value):
        out = bytearray()
        varint.encode_uvarint(value, out)
        decoded, offset = varint.decode_uvarint(bytes(out), 0)
        assert decoded == value
        assert offset == len(out)

    def test_uvarint_rejects_negative(self):
        with pytest.raises(EncodingError):
            varint.encode_uvarint(-1, bytearray())

    def test_truncated_uvarint(self):
        with pytest.raises(EncodingError):
            varint.decode_uvarint(b"\xff", 0)

    @pytest.mark.parametrize("value", [0, -1, 1, -64, 63, 2**40, -(2**40)])
    def test_svarint_round_trip(self, value):
        out = bytearray()
        varint.encode_svarint(value, out)
        decoded, _ = varint.decode_svarint(bytes(out), 0)
        assert decoded == value

    @given(st.integers(min_value=-(2**62), max_value=2**62))
    def test_zigzag_round_trip(self, value):
        assert varint.zigzag_decode(varint.zigzag_encode(value)) == value


class TestBitpacking:
    def test_width_for(self):
        assert bitpacking.bit_width_for(0) == 0
        assert bitpacking.bit_width_for(1) == 1
        assert bitpacking.bit_width_for(7) == 3
        assert bitpacking.bit_width_for(8) == 4

    def test_zero_width_round_trip(self):
        assert bitpacking.pack([0, 0, 0], 0) == b""
        assert bitpacking.unpack(b"", 0, 3) == [0, 0, 0]

    def test_value_too_large(self):
        with pytest.raises(EncodingError):
            bitpacking.pack([8], 3)

    @given(
        st.lists(st.integers(min_value=0, max_value=2**12 - 1), max_size=200),
    )
    def test_round_trip(self, values):
        width = bitpacking.bit_width_for(max(values) if values else 0)
        packed = bitpacking.pack(values, width)
        assert bitpacking.unpack(packed, width, len(values)) == values

    def test_packed_size(self):
        assert bitpacking.packed_size(10, 3) == 4
        assert bitpacking.packed_size(0, 5) == 0


class TestRle:
    @given(st.lists(st.integers(min_value=0, max_value=31), max_size=300))
    def test_round_trip(self, values):
        payload, width = rle.encoded_with_width(values)
        assert rle.decode(payload, width, len(values)) == values

    def test_long_runs_compress(self):
        values = [3] * 1000
        payload, width = rle.encoded_with_width(values)
        assert len(payload) < 10

    def test_truncated_stream(self):
        values = list(range(20))
        payload, width = rle.encoded_with_width(values)
        with pytest.raises(EncodingError):
            rle.decode(payload[:2], width, len(values) + 50)

    def test_zero_width(self):
        assert rle.decode(b"", 0, 5) == [0, 0, 0, 0, 0]


class TestPlain:
    @given(st.lists(st.integers(min_value=-(2**62), max_value=2**62), max_size=100))
    def test_int64_round_trip(self, values):
        data = plain.encode_int64(values)
        assert plain.decode_int64(data, len(values)) == values

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=100))
    def test_double_round_trip(self, values):
        data = plain.encode_double(values)
        assert plain.decode_double(data, len(values)) == values

    @given(st.lists(st.booleans(), max_size=100))
    def test_boolean_round_trip(self, values):
        data = plain.encode_boolean(values)
        assert plain.decode_boolean(data, len(values)) == values

    @given(st.lists(st.text(max_size=40), max_size=60))
    def test_strings_round_trip(self, values):
        data = plain.encode_strings(values)
        assert plain.decode_strings(data, len(values)) == values

    def test_truncated_int64(self):
        with pytest.raises(EncodingError):
            plain.decode_int64(b"\x00" * 7, 1)


class TestDelta:
    @given(st.lists(st.integers(min_value=-(2**40), max_value=2**40), max_size=400))
    def test_round_trip(self, values):
        assert delta.decode(delta.encode(values)) == values

    def test_monotone_sequences_compress(self):
        values = list(range(100000, 101000))
        encoded = delta.encode(values)
        assert len(encoded) < len(plain.encode_int64(values)) / 4

    def test_empty(self):
        assert delta.decode(delta.encode([])) == []

    def test_single(self):
        assert delta.decode(delta.encode([42])) == [42]


class TestDeltaStrings:
    @given(st.lists(st.text(max_size=30), max_size=80))
    def test_delta_length_round_trip(self, values):
        data = delta_string.encode_delta_length(values)
        assert delta_string.decode_delta_length(data, len(values)) == values

    @given(st.lists(st.text(max_size=30), max_size=80))
    def test_delta_strings_round_trip(self, values):
        data = delta_string.encode_delta_strings(values)
        assert delta_string.decode_delta_strings(data, len(values)) == values

    def test_shared_prefixes_compress(self):
        values = [f"https://example.com/user/{i}" for i in range(500)]
        incremental = delta_string.encode_delta_strings(values)
        plain_size = len(plain.encode_strings(values))
        assert len(incremental) < plain_size / 2


class TestRegistry:
    @pytest.mark.parametrize(
        "type_tag,values",
        [
            ("int64", [1, 2, 3, 1000, -5]),
            ("int64", list(range(2000))),
            ("double", [1.5, -2.25, 3e10]),
            ("string", ["a", "bb", "ccc", ""]),
            ("boolean", [True, False, True]),
            ("null", [None, None]),
            ("int64", []),
            ("string", []),
        ],
    )
    def test_round_trip(self, type_tag, values):
        encoding_id, payload = encode_values(type_tag, values)
        decoded = decode_values(type_tag, encoding_id, payload, len(values))
        if type_tag == "null":
            assert decoded == [None] * len(values)
        else:
            assert decoded == values

    def test_unknown_type_rejected(self):
        with pytest.raises(EncodingError):
            encode_values("object", [{"a": 1}])

    def test_numeric_domain_compresses_well(self):
        values = [1000000 + i * 3 for i in range(5000)]
        _, payload = encode_values("int64", values)
        assert len(payload) < 5000 * 2


class TestBoundaryValues:
    """Boundary-value round-trips at the encoders' representation edges."""

    @pytest.mark.parametrize(
        "value",
        [
            2**7 - 1, 2**7, 2**7 + 1,          # 1 -> 2 byte uvarint edge
            2**14 - 1, 2**14, 2**14 + 1,       # 2 -> 3 byte uvarint edge
            2**63 - 1, 2**63, 2**63 + 1,       # beyond-64-bit values
        ],
    )
    def test_uvarint_byte_width_edges(self, value):
        out = bytearray()
        varint.encode_uvarint(value, out)
        assert len(out) == max(1, (value.bit_length() + 6) // 7)
        decoded, offset = varint.decode_uvarint(bytes(out), 0)
        assert decoded == value and offset == len(out)

    @pytest.mark.parametrize(
        "values",
        [
            [0, 2**40, 0, 2**40],                   # large negative jumps
            [2**62, -(2**62), 2**62],                # full-range swings
            [5, 4, 3, 2, 1, 0, -1, -2],              # strictly decreasing
            [-(2**31), 2**31, -(2**31)],
        ],
    )
    def test_delta_negative_jumps(self, values):
        assert delta.decode(delta.encode(values)) == values

    def test_rle_runs_of_length_one(self):
        values = list(range(20))  # every run has length 1
        payload, width = rle.encoded_with_width(values)
        assert rle.decode(payload, width, len(values)) == values

    def test_rle_maximal_run(self):
        values = [7] * 10_000
        payload, width = rle.encoded_with_width(values)
        assert rle.decode(payload, width, len(values)) == values
        # One header + one packed value: far below one byte per input value.
        assert len(payload) < 8

    def test_rle_run_boundaries_around_min_run(self):
        # _MIN_RLE_RUN is 8: check runs of 7, 8, and 9 between noise values.
        for run in (7, 8, 9):
            values = [1, 2, 3] + [9] * run + [4, 5]
            payload, width = rle.encoded_with_width(values)
            assert rle.decode(payload, width, len(values)) == values

    @pytest.mark.parametrize(
        "type_tag", ["int64", "double", "string", "boolean", "null"]
    )
    def test_empty_inputs_for_every_registered_encoder(self, type_tag):
        encoding_id, payload = encode_values(type_tag, [])
        assert payload == b""
        assert decode_values(type_tag, encoding_id, payload, 0) == []

    def test_empty_inputs_for_raw_encoders(self):
        assert rle.decode(rle.encode([], 3), 3, 0) == []
        assert delta.decode(delta.encode([])) == []
        assert bitpacking.unpack(bitpacking.pack([], 5), 5, 0) == []
        assert plain.decode_int64(plain.encode_int64([]), 0) == []
        assert plain.decode_double(plain.encode_double([]), 0) == []
        assert plain.decode_strings(plain.encode_strings([]), 0) == []
        assert plain.decode_boolean(plain.encode_boolean([]), 0) == []
        assert delta_string.decode_delta_length(
            delta_string.encode_delta_length([]), 0
        ) == []
        assert delta_string.decode_delta_strings(
            delta_string.encode_delta_strings([]), 0
        ) == []


class TestCompression:
    @pytest.mark.parametrize("name", ["none", "zlib", "snappy"])
    @given(data=st.binary(max_size=4096))
    @settings(max_examples=30, deadline=None)
    def test_round_trip(self, name, data):
        codec = get_codec(name)
        assert codec.decompress(codec.compress(data)) == data

    def test_snappy_compresses_repetitive_payloads(self):
        codec = get_codec("snappy")
        data = (b'{"name": "user", "age": 30, "city": "irvine"}' * 200)
        assert len(codec.compress(data)) < len(data) / 3

    def test_unknown_codec(self):
        with pytest.raises(EncodingError):
            get_codec("lz4")


# -- bulk-copy snappy-like decoder vs the byte-at-a-time reference -----------------


def _reference_snappy_decompress(data: bytes) -> bytes:
    """The byte-at-a-time decoder the bulk-copy one must match exactly.

    One deviation keeps corrupted inputs finite: a copy stops one byte past
    the declared length.  The outcome is unchanged, since the loop then ends
    and the length check fails either way.
    """
    expected, position = varint.decode_uvarint(data, 0)
    out = bytearray()
    while len(out) < expected:
        if position >= len(data):
            raise EncodingError("truncated snappy-like stream")
        token, position = varint.decode_uvarint(data, position)
        size = token >> 1
        if token & 1:
            distance, position = varint.decode_uvarint(data, position)
            if distance <= 0 or distance > len(out):
                raise EncodingError("invalid back-reference")
            start = len(out) - distance
            for index in range(min(size, expected - len(out) + 1)):
                out.append(out[start + index])
        else:
            end = position + size
            if end > len(data):
                raise EncodingError("truncated literal run")
            out.extend(data[position:end])
            position = end
    if len(out) != expected:
        raise EncodingError("snappy-like length mismatch")
    return bytes(out)


def _outcome(decoder, data: bytes):
    """``("ok", output)`` or ``("error", message)`` for one decode."""
    try:
        return "ok", decoder(data)
    except EncodingError as exc:
        return "error", str(exc)


def _token_stream(expected: int, *ops) -> bytes:
    """A hand-built stream: ``bytes`` ops are literal runs, ``(size, distance)`` copies."""
    out = bytearray()
    varint.encode_uvarint(expected, out)
    for op in ops:
        if isinstance(op, bytes):
            varint.encode_uvarint(len(op) << 1, out)
            out += op
        else:
            size, distance = op
            varint.encode_uvarint((size << 1) | 1, out)
            varint.encode_uvarint(distance, out)
    return bytes(out)


_repetitive_bytes = st.builds(
    lambda unit, repeats, tail: unit * repeats + tail,
    st.binary(min_size=1, max_size=8),
    st.integers(min_value=1, max_value=600),
    st.binary(max_size=16),
)

_token_ops = st.lists(
    st.one_of(
        st.binary(max_size=24),
        st.tuples(st.integers(0, 90), st.integers(0, 120)),
    ),
    max_size=24,
)


class TestSnappyBulkDecoder:
    codec = get_codec("snappy")

    def _assert_matches_reference(self, data: bytes):
        assert _outcome(self.codec.decompress, data) == _outcome(
            _reference_snappy_decompress, data
        )

    @given(data=st.one_of(st.binary(max_size=4096), _repetitive_bytes))
    @settings(max_examples=80, deadline=None)
    def test_random_and_repetitive_inputs(self, data):
        compressed = self.codec.compress(data)
        assert self.codec.decompress(compressed) == data
        assert _reference_snappy_decompress(compressed) == data

    @pytest.mark.parametrize(
        "ops, expected_output",
        [
            ((b"a", (9, 1)), b"a" * 10),
            ((b"\x00\x01", (64, 1)), b"\x00\x01" + b"\x01" * 64),
            ((b"abc", (10, 3)), b"abc" + b"abcabcabca"),
            ((b"abcde", (7, 2)), b"abcde" + b"dededed"),
            ((b"abcd", (4, 4)), b"abcdabcd"),
            ((b"abcdef", (3, 5)), b"abcdefbcd"),
            ((b"xy", (0, 1), b"z"), b"xyz"),
            ((bytes(range(256)) * 2, (300, 200)), None),
            ((b"ab", (200, 2), (150, 170)), None),
            ((bytes(range(256)) * 80, (10, 20000), (3, 1)), None),
        ],
        ids=[
            "distance-1", "distance-1-multibyte-token", "distance-lt-size",
            "distance-lt-size-partial", "distance-eq-size", "distance-gt-size",
            "empty-copy", "multibyte-distance", "overlap-then-far-copy",
            "three-byte-distance",
        ],
    )
    def test_copies(self, ops, expected_output):
        # The declared length is the sum of the ops, as an encoder writes it.
        produced = bytearray()
        for op in ops:
            if isinstance(op, bytes):
                produced += op
            else:
                size, distance = op
                for _ in range(size):
                    produced.append(produced[-distance])
        if expected_output is not None:
            assert bytes(produced) == expected_output
        stream = _token_stream(len(produced), *ops)
        assert self.codec.decompress(stream) == bytes(produced)
        self._assert_matches_reference(stream)

    @pytest.mark.parametrize(
        "stream, message",
        [
            (b"", "truncated uvarint"),
            (_token_stream(10), "truncated snappy-like stream"),
            (_token_stream(10, b"abc"), "truncated snappy-like stream"),
            (_token_stream(8, b"abc", (3, 0)), "invalid back-reference"),
            (_token_stream(8, b"abc", (3, 4)), "invalid back-reference"),
            (_token_stream(4, (3, 1)), "invalid back-reference"),
            (_token_stream(8, b"abcdef")[:-2], "truncated literal run"),
            (_token_stream(5, b"ab", (4, 1)), "snappy-like length mismatch"),
            (_token_stream(5, b"abcdef"), "snappy-like length mismatch"),
            (_token_stream(5, b"ab", (1 << 40, 1)), "snappy-like length mismatch"),
            (_token_stream(5, b"ab") + b"\x83", "truncated uvarint"),
            (_token_stream(5, b"ab") + b"\x07", "truncated uvarint"),
            (_token_stream(5, b"ab") + b"\x07\x81", "truncated uvarint"),
        ],
        ids=[
            "empty", "no-tokens", "stream-ends-early", "zero-distance",
            "distance-past-output", "copy-before-output", "literal-cut",
            "copy-overshoots", "literal-overshoots", "huge-copy", "token-cut",
            "distance-missing", "distance-cut",
        ],
    )
    def test_errors_match_reference(self, stream, message):
        with pytest.raises(EncodingError, match=message):
            self.codec.decompress(stream)
        self._assert_matches_reference(stream)

    @given(expected=st.integers(0, 700), ops=_token_ops)
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_token_streams(self, expected, ops):
        self._assert_matches_reference(_token_stream(expected, *ops))

    @given(
        data=st.one_of(st.binary(min_size=1, max_size=1024), _repetitive_bytes),
        edits=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_truncated_and_corrupted_streams(self, data, edits):
        compressed = self.codec.compress(data)
        header = len(_token_stream(len(data)))
        cut = edits.draw(st.integers(0, len(compressed)), label="cut")
        self._assert_matches_reference(compressed[:cut])
        if len(compressed) > header:
            # The header stays intact so a corrupted stream declares a sane length.
            corrupted = bytearray(compressed)
            for _ in range(edits.draw(st.integers(1, 3), label="edits")):
                at = edits.draw(st.integers(header, len(corrupted) - 1), label="at")
                corrupted[at] = edits.draw(st.integers(0, 255), label="byte")
            self._assert_matches_reference(bytes(corrupted))

    @pytest.mark.parametrize("dataset", ["sensors", "wos", "tweet_1"])
    def test_real_amax_megapages(self, dataset, monkeypatch):
        pages = []
        original_compress = SnappyLikeCodec.compress

        def recording_compress(codec, data):
            compressed = original_compress(codec, data)
            pages.append((bytes(data), compressed))
            return compressed

        monkeypatch.setattr(SnappyLikeCodec, "compress", recording_compress)
        builder = AmaxComponentBuilder(
            "c1", StorageDevice(page_size=16 * 1024), BufferCache(capacity_pages=64),
            Schema(), max_records_per_leaf=100,
        )
        entries = sorted(
            (document["id"], False, document)
            for document in make_generator(dataset, 240, seed=3)
        )
        builder.build(entries)
        assert len(pages) > 10
        for raw, compressed in pages:
            assert self.codec.decompress(compressed) == raw
            assert _reference_snappy_decompress(compressed) == raw
            for cut in {0, 1, len(compressed) // 2, len(compressed) - 1}:
                self._assert_matches_reference(compressed[:cut])
