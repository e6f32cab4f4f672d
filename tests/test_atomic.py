"""Crash-safe replacement of output files."""

from __future__ import annotations

import pytest

from molham.atomic import atomic_open, atomic_write_text


def test_replaces_whole_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    with atomic_open(path) as fh:
        fh.write("new\n")
    assert path.read_text() == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_failed_write_keeps_previous_bytes(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"previous")
    with pytest.raises(ValueError):
        with atomic_open(path, "wb") as fh:
            fh.write(b"half of the new")
            raise ValueError("writer failed")
    assert path.read_bytes() == b"previous"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


def test_failed_first_write_leaves_nothing(tmp_path):
    with pytest.raises(ValueError):
        with atomic_open(tmp_path / "new.txt") as fh:
            fh.write("partial")
            raise ValueError("writer failed")
    assert list(tmp_path.iterdir()) == []


def test_text_that_fails_to_encode_keeps_previous_bytes(tmp_path):
    path = tmp_path / "metrics.json"
    atomic_write_text(path, "{}\n")
    with pytest.raises(UnicodeEncodeError):
        atomic_write_text(path, "{\"k\": \"\ud800\"}\n")  # a lone surrogate
    assert path.read_text() == "{}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["metrics.json"]
