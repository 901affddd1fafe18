"""The shared codec and document rules: counts, short reads, JSON objects and
durable file writes."""

from __future__ import annotations

import os

import pytest

from delaytower import cli, tower
from delaytower.ledger import EpochConfig
from delaytower.serialization import (DecodeError, Reader, encode_bigint, encode_uint,
                                      fields_from_doc, known_keys, natural)

from conftest import TINY_SECURITY


class TestNatural:
    @pytest.mark.parametrize("value", [0, 1, 2**64])
    def test_accepts_an_int_of_zero_or_more(self, value):
        assert natural(value) == value
        assert encode_bigint(value)[4:] == encode_uint(value, 9).lstrip(b"\0")

    @pytest.mark.parametrize("value", [-1, True, False, 1.0, "1", None])
    def test_refuses_anything_else(self, value):
        for check in (natural, lambda v: encode_uint(v, 8), encode_bigint):
            with pytest.raises(ValueError, match=f"^expected a non-negative integer, got "
                                                 f"{value!r}$"):
                check(value)


class TestReader:
    @pytest.mark.parametrize("data, n", [(b"", 1), (b"ab", 3), (b"ab", -1)])
    def test_short_read_is_truncated_input(self, data, n):
        with pytest.raises(DecodeError, match="^truncated input$"):
            Reader(data).take(n)


class TestDocuments:
    def test_list_for_an_object_named(self):
        with pytest.raises(TypeError, match=r"^expected a JSON object, got \[\]$"):
            known_keys([], "seed")

    def test_unparsed_fields_reach_the_constructor_unchanged(self):
        doc = {"rounds_per_epoch": 2.0, "ranking": "by-compliant-epochs"}
        assert fields_from_doc(EpochConfig, doc) == doc
        with pytest.raises(TypeError, match="^rounds_per_epoch must be an integer, got 2.0$"):
            EpochConfig.from_doc(doc)


class TestWriteAtomic:
    @pytest.mark.parametrize("write", [
        lambda path: tower.save_tower(tower.init_tower(TINY_SECURITY, b"a", b"e"), path),
        lambda path: cli._load_key(str(path), create=True),
    ], ids=["tower", "new-key-file"])
    def test_file_synced_before_rename_and_directory_after(self, tmp_path, monkeypatch, write):
        calls = []
        fsync, replace = os.fsync, os.replace

        def spy_fsync(fd):
            calls.append(("fsync", os.fstat(fd).st_ino))
            fsync(fd)

        def spy_replace(source, target):
            calls.append(("replace", os.path.basename(target)))
            replace(source, target)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(os, "replace", spy_replace)
        write(tmp_path / "out")
        # The temp file is renamed, so the written file keeps its inode.
        assert calls == [("fsync", (tmp_path / "out").stat().st_ino), ("replace", "out"),
                         ("fsync", tmp_path.stat().st_ino)]
        assert sorted(path.name for path in tmp_path.iterdir()) == ["out"]
