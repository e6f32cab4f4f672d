"""Crash-safe file replacement and the framed binary file format.

`atomic_open` writes to a temporary file in the destination's directory and
renames it over the destination only after the body is complete, so a reader
sees either the previous file or the whole new one. A write that raises
removes its temporary file and leaves the previous file as it was. There is
no fsync: the guarantee covers a failing writer, not a power cut.

Every binary file (checkpoints, predicted matrices) is one frame: an 8-byte
magic, the u64 little-endian length of a JSON manifest, the manifest with
sorted keys, then a blob. `write_framed` adds the blob's SHA-256 to the
manifest as `blob_sha256`, and `read_framed` checks it.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import IO

from .errors import CorruptFile, json_object


@contextmanager
def atomic_open(path: str | Path, mode: str = "w") -> Iterator[IO]:
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    with atomic_open(path) as fh:
        fh.write(text)


def write_framed(path: str | Path, magic: bytes, header: dict, blob: bytes) -> None:
    payload = json.dumps({**header, "blob_sha256": hashlib.sha256(blob).hexdigest()},
                         sort_keys=True).encode()
    with atomic_open(path, "wb") as fh:
        fh.write(magic + struct.pack("<Q", len(payload)) + payload + blob)


def read_framed(path: str | Path, magic: bytes, what: str) -> tuple[dict, bytes]:
    """The manifest and blob of a framed file whose blob matches its
    `blob_sha256`; anything else raises CorruptFile naming the file."""
    raw = Path(path).read_bytes()
    start = len(magic) + 8
    if len(raw) < start or raw[:len(magic)] != magic:
        raise CorruptFile(f"{path} is not a {what} file")
    end = start + struct.unpack("<Q", raw[len(magic):start])[0]
    if len(raw) < end:
        raise CorruptFile(f"{path} is truncated inside the manifest")
    header = json_object(raw[start:end], f"{path} manifest")
    if "blob_sha256" not in header:
        raise CorruptFile(f"{path} manifest lacks blob_sha256")
    blob = raw[end:]
    if hashlib.sha256(blob).hexdigest() != header["blob_sha256"]:
        raise CorruptFile(f"{path} failed its content checksum")
    return header, blob
