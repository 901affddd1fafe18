"""The shared codec and document rules: counts, short reads, and JSON objects."""

from __future__ import annotations

import pytest

from delaytower.ledger import EpochConfig
from delaytower.serialization import (DecodeError, Reader, encode_bigint, encode_uint,
                                      fields_from_doc, known_keys, natural)


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
