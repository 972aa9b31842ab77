"""The one writer of output files, `write_file`, and the magic + body + CRC32
framing shared by checkpoints (SAMC), point caches (SAPC) and packed shift
weights (SAQ1): a 4-byte magic, the body, then the little-endian CRC32 of the
body, i.e. of everything after the magic."""

from __future__ import annotations

import struct
import zlib
from pathlib import Path


def frame(magic: bytes, body: bytes) -> bytes:
    return b"".join((magic, body, struct.pack("<I", zlib.crc32(body))))  # one copy of body


def write_file(path, parts) -> None:
    """Write the byte parts to path in turn, making its directory, through a sibling
    `.tmp` file that replaces path once complete and is removed if the write fails:
    path holds its old bytes or all of the new ones."""
    tmp = Path(f"{path}.tmp")
    tmp.parent.mkdir(parents=True, exist_ok=True)
    try:
        with open(tmp, "wb") as fh:
            for part in parts:
                fh.write(part)
        tmp.replace(path)
    finally:  # after a failed or interrupted write; a no-op once replaced
        tmp.unlink(missing_ok=True)


def write_framed(path, magic: bytes, parts) -> None:
    """Write frame(magic, b"".join(parts)) to path through write_file, without joining them."""
    def framed():
        crc = 0
        yield magic
        for part in parts:
            yield part
            crc = zlib.crc32(part, crc)
        yield struct.pack("<I", crc)
    write_file(path, framed())


def unframe(blob: bytes, magic: bytes, error: type, what: str, min_body: int = 0) -> bytes:
    """The body of a framed blob, at least min_body bytes long; anything else
    raises error(f"{what}: ...")."""
    if blob[: len(magic)] != magic:
        raise error(f"{what}: bad magic, expected {magic!r}")
    if len(blob) < len(magic) + min_body + 4:
        raise error(f"{what}: truncated")
    body, (crc,) = blob[len(magic) : -4], struct.unpack("<I", blob[-4:])
    if zlib.crc32(body) != crc:
        raise error(f"{what}: CRC mismatch")
    return body
