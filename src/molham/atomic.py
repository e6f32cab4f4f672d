"""Crash-safe file replacement.

`atomic_open` writes to a temporary file in the destination's directory and
renames it over the destination only after the body is complete, so a reader
sees either the previous file or the whole new one. A write that raises
removes its temporary file and leaves the previous file as it was. There is
no fsync: the guarantee covers a failing writer, not a power cut.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import IO


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
