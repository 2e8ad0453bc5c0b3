"""The one persistence helper: a failed replace must cost nothing."""

from __future__ import annotations

import os

import pytest

from repro.persist import atomic_write


def test_failed_write_leaves_old_file_and_no_temp(tmp_path, monkeypatch):
    target = tmp_path / "spool" / "state.json"
    atomic_write(target, "old")  # text, and the directory is made
    assert target.read_text() == "old"

    def disk_full(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", disk_full)
    with pytest.raises(OSError, match="disk full"):
        atomic_write(target, b"new")
    assert target.read_bytes() == b"old"
    assert os.listdir(target.parent) == ["state.json"]
