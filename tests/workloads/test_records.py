"""Tests for record encoding helpers."""

import pytest

from repro.workloads.records import (bump_counter, decode_record, encode_record, make_key,
                                     record_field, update_record)


class TestEncodeDecode:
    def test_roundtrip(self):
        record = {"id": 3, "name": "alice", "balance": 12.5, "tags": ["a", "b"]}
        assert decode_record(encode_record(record)) == record

    def test_none_and_empty_decode_to_none(self):
        assert decode_record(None) is None
        assert decode_record(b"") is None

    def test_encoding_is_deterministic(self):
        a = encode_record({"b": 1, "a": 2})
        b = encode_record({"a": 2, "b": 1})
        assert a == b

    def test_encoding_is_compact(self):
        assert b" " not in encode_record({"a": 1, "b": [1, 2]})


class TestKeys:
    def test_make_key(self):
        assert make_key("customer", 3, 7, 11) == "customer:3:7:11"


class TestFieldHelpers:
    def test_update_record_overwrites_fields(self):
        blob = encode_record({"a": 1, "b": 2})
        updated = decode_record(update_record(blob, b=3, c=4))
        assert updated == {"a": 1, "b": 3, "c": 4}

    def test_update_record_from_missing(self):
        assert decode_record(update_record(None, x=1)) == {"x": 1}

    def test_bump_counter(self):
        blob = encode_record({"count": 5})
        assert record_field(bump_counter(blob, "count"), "count") == 6
        assert record_field(bump_counter(None, "count", 3), "count") == 3

    def test_bump_counter_float(self):
        blob = encode_record({"ytd": 1.5})
        assert record_field(bump_counter(blob, "ytd", 2.5), "ytd") == pytest.approx(4.0)

    def test_record_field_default(self):
        assert record_field(None, "x", default=7) == 7
        assert record_field(encode_record({"x": 1}), "y", default="d") == "d"
