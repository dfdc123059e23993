"""Binary model artifact envelope.

Layout: magic ``LCST`` | format version (u32 LE) | header length (u32 LE) |
UTF-8 JSON header | array count (u32 LE) | array sections | SHA-256 of all
preceding bytes. Each array section is name length + name bytes + ndim +
dims (u32 LE each) + row-major little-endian float64 values.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

from .codec import parse_json, replace_atomically
from .errors import CorruptArtifact, VersionMismatch

MAGIC = b"LCST"
FORMAT_VERSION = 1
_CHECKSUM_BYTES = 32


def write_artifact(path, header: dict, arrays: dict[str, np.ndarray]) -> None:
    buf = bytearray()
    buf += MAGIC
    buf += struct.pack("<I", FORMAT_VERSION)
    hdr = json.dumps(header, sort_keys=True).encode("utf-8")
    buf += struct.pack("<I", len(hdr))
    buf += hdr
    buf += struct.pack("<I", len(arrays))
    for name in sorted(arrays):
        data = np.ascontiguousarray(arrays[name], dtype="<f8")
        nb = name.encode("utf-8")
        buf += struct.pack("<I", len(nb))
        buf += nb
        buf += struct.pack("<I", data.ndim)
        buf += struct.pack(f"<{data.ndim}I", *data.shape)
        buf += data.tobytes()
    buf += hashlib.sha256(bytes(buf)).digest()
    with replace_atomically(path) as tmp:
        tmp.write_bytes(bytes(buf))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CorruptArtifact("artifact truncated")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def read_artifact(path) -> tuple[dict, dict[str, np.ndarray]]:
    raw = Path(path).read_bytes()
    if len(raw) < len(MAGIC) + 4 + _CHECKSUM_BYTES:
        raise CorruptArtifact("file too short to be a model artifact")
    if raw[:len(MAGIC)] != MAGIC:
        raise CorruptArtifact("bad magic bytes")
    version = struct.unpack("<I", raw[len(MAGIC):len(MAGIC) + 4])[0]
    if version > FORMAT_VERSION:
        raise VersionMismatch(
            f"artifact format version {version} is newer than supported {FORMAT_VERSION}")
    body, checksum = raw[:-_CHECKSUM_BYTES], raw[-_CHECKSUM_BYTES:]
    if hashlib.sha256(body).digest() != checksum:
        raise CorruptArtifact("checksum mismatch")

    reader = _Reader(body)
    reader.take(len(MAGIC) + 4)
    header_len = reader.u32()
    try:
        header = parse_json(reader.take(header_len).decode("utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise CorruptArtifact(f"bad header: {exc}") from None
    arrays: dict[str, np.ndarray] = {}
    count = reader.u32()
    for _ in range(count):
        try:
            name = reader.take(reader.u32()).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptArtifact(f"bad array name: {exc}") from None
        ndim = reader.u32()
        if ndim > 8:
            raise CorruptArtifact(f"implausible array rank {ndim}")
        shape = tuple(reader.u32() for _ in range(ndim))
        # numpy's int64 product of large dims wraps around, and numpy refuses to
        # shape huge dims even beside a 0 dim: check them as Python ints first
        if math.prod(d for d in shape if d) * 8 > len(body):
            raise CorruptArtifact(f"array {name!r} of dims {shape} does not fit the file")
        values = np.frombuffer(reader.take(math.prod(shape) * 8), dtype="<f8").reshape(shape)
        arrays[name] = values.astype(np.float64)
    if reader.pos != len(body):
        raise CorruptArtifact("trailing bytes after array sections")
    return header, arrays
