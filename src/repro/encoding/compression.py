"""Page-level compression codecs.

The paper's evaluation enables AsterixDB page-level compression with Snappy
for every layout.  Snappy itself is not available offline, so we provide:

* :class:`SnappyLikeCodec` — a pure-Python byte-oriented LZ77 variant with a
  Snappy-like format (literal runs + back-references with a 64 KiB window).
  It is intentionally simple; what matters for the reproduction is the
  *relative* compressibility of row-major pages (field names repeated in every
  record) versus columnar pages (already-encoded homogeneous values).
  Decoding copies each back-reference in bulk (one slice, or a repeated
  pattern when the copy overlaps its own output); the stream format is the
  same one the encoder has always written.
* :class:`ZlibCodec` — stdlib zlib, for users who prefer a stronger codec.
* :class:`NoopCodec` — disables compression.

Codecs are looked up by name through :func:`get_codec`.
"""

from __future__ import annotations

import zlib
from typing import Dict, Protocol

from ..model.errors import EncodingError
from .varint import decode_uvarint, encode_uvarint

_WINDOW = 1 << 16
_MIN_MATCH = 4
_MAX_MATCH = 64
_HASH_BYTES = 4


class Codec(Protocol):
    """Protocol implemented by all page codecs."""

    name: str

    def compress(self, data: bytes) -> bytes:  # pragma: no cover - protocol
        ...

    def decompress(self, data: bytes) -> bytes:  # pragma: no cover - protocol
        ...


class NoopCodec:
    """Identity codec."""

    name = "none"

    def compress(self, data: bytes) -> bytes:
        return bytes(data)

    def decompress(self, data: bytes) -> bytes:
        return bytes(data)


class ZlibCodec:
    """zlib (DEFLATE) codec at a fast compression level."""

    name = "zlib"

    def __init__(self, level: int = 1) -> None:
        self.level = level

    def compress(self, data: bytes) -> bytes:
        return zlib.compress(data, self.level)

    def decompress(self, data: bytes) -> bytes:
        return zlib.decompress(data)


class SnappyLikeCodec:
    """A greedy LZ77 codec with a Snappy-flavoured token stream.

    Token stream: ``[uncompressed_length uvarint]`` then tokens; each token is
    a uvarint ``t``: if ``t & 1 == 0`` it is a literal run of ``t >> 1`` bytes
    that follow verbatim, otherwise it is a copy of ``(t >> 1) copy-length``
    bytes starting at a uvarint back-distance.
    """

    name = "snappy"

    def compress(self, data: bytes) -> bytes:
        out = bytearray()
        encode_uvarint(len(data), out)
        length = len(data)
        if length == 0:
            return bytes(out)
        table: Dict[bytes, int] = {}
        position = 0
        literal_start = 0

        def flush_literals(end: int) -> None:
            run = end - literal_start
            if run <= 0:
                return
            encode_uvarint(run << 1, out)
            out.extend(data[literal_start:end])

        while position + _HASH_BYTES <= length:
            key = data[position:position + _HASH_BYTES]
            candidate = table.get(key)
            table[key] = position
            if candidate is not None and position - candidate <= _WINDOW:
                match_length = _HASH_BYTES
                limit = min(_MAX_MATCH, length - position)
                while (
                    match_length < limit
                    and data[candidate + match_length] == data[position + match_length]
                ):
                    match_length += 1
                flush_literals(position)
                encode_uvarint((match_length << 1) | 1, out)
                encode_uvarint(position - candidate, out)
                position += match_length
                literal_start = position
            else:
                position += 1
        flush_literals(length)
        return bytes(out)

    def decompress(self, data: bytes) -> bytes:
        expected, position = decode_uvarint(data, 0)
        data_length = len(data)
        out = bytearray()
        produced = 0
        while produced < expected:
            if position >= data_length:
                raise EncodingError("truncated snappy-like stream")
            token = data[position]
            if token < 0x80:
                position += 1
            else:
                token, position = decode_uvarint(data, position)
            size = token >> 1
            if token & 1:
                # Most back-distances take one or two uvarint bytes; the
                # rest (up to the 64 KiB window) use the general decoder.
                if position + 1 < data_length:
                    distance = data[position]
                    if distance < 0x80:
                        position += 1
                    elif data[position + 1] < 0x80:
                        distance = (distance & 0x7F) | (data[position + 1] << 7)
                        position += 2
                    else:
                        distance, position = decode_uvarint(data, position)
                else:
                    distance, position = decode_uvarint(data, position)
                if not 0 < distance <= produced:
                    raise EncodingError("invalid back-reference")
                start = produced - distance
                if distance >= size:
                    out += out[start:start + size]
                else:
                    if produced + size > expected:
                        # Copying first could only end in this error, after
                        # allocating whatever size a corrupted token claims.
                        raise EncodingError("snappy-like length mismatch")
                    # An overlapping copy repeats the last ``distance`` bytes.
                    repeats, rest = divmod(size, distance)
                    pattern = out[start:]
                    out += pattern * repeats + pattern[:rest]
            else:
                end = position + size
                if end > data_length:
                    raise EncodingError("truncated literal run")
                out += data[position:end]
                position = end
            produced += size
        if produced != expected:
            raise EncodingError("snappy-like length mismatch")
        return bytes(out)


_CODECS: Dict[str, Codec] = {
    "none": NoopCodec(),
    "zlib": ZlibCodec(),
    "snappy": SnappyLikeCodec(),
}


def get_codec(name: str) -> Codec:
    """Return a codec by name (``"none"``, ``"zlib"``, ``"snappy"``)."""
    try:
        return _CODECS[name]
    except KeyError as exc:
        raise EncodingError(f"unknown compression codec {name!r}") from exc


def register_codec(codec: Codec) -> None:
    """Register a custom codec (used by tests and extensions)."""
    _CODECS[codec.name] = codec
