"""Tests for trace I/O and slotting."""

import pytest

from repro.errors import ConfigurationError
from repro.workload.trace import (
    TraceRecord,
    load_trace,
    peak_to_valley,
    save_trace,
    slot_counts,
)


@pytest.fixture
def records():
    return [TraceRecord(i * 0.5, f"page:{i % 3}") for i in range(10)]


class TestFileIO:
    def test_roundtrip(self, tmp_path, records):
        path = tmp_path / "trace.csv"
        assert save_trace(records, path) == 10
        loaded = load_trace(path)
        assert loaded == records

    def test_gzip_roundtrip(self, tmp_path, records):
        path = tmp_path / "trace.csv.gz"
        save_trace(records, path)
        assert load_trace(path) == records
        # really gzipped?
        assert path.read_bytes()[:2] == b"\x1f\x8b"

    def test_rejects_keys_with_commas(self, tmp_path):
        with pytest.raises(ConfigurationError):
            save_trace([TraceRecord(0.0, "a,b")], tmp_path / "t.csv")

    def test_malformed_line_raises_with_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,ok\nnot-a-number,key\n")
        with pytest.raises(ConfigurationError, match="bad.csv:2"):
            load_trace(path)

    def test_unsorted_trace_rejected(self, tmp_path):
        path = tmp_path / "unsorted.csv"
        path.write_text("2.0,a\n1.0,b\n")
        with pytest.raises(ConfigurationError, match="not time-sorted"):
            load_trace(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blanks.csv"
        path.write_text("1.0,a\n\n2.0,b\n")
        assert len(load_trace(path)) == 2


class TestSlotting:
    def test_slot_counts(self, records):
        counts = slot_counts(records, slot_seconds=1.0, num_slots=5)
        assert counts == [2, 2, 2, 2, 2]

    def test_out_of_window_ignored(self):
        records = [TraceRecord(-1.0, "a"), TraceRecord(100.0, "b"), TraceRecord(0.5, "c")]
        assert slot_counts(records, 1.0, 2) == [1, 0]

    def test_validation(self, records):
        with pytest.raises(ConfigurationError):
            slot_counts(records, 0.0, 5)
        with pytest.raises(ConfigurationError):
            slot_counts(records, 1.0, 0)


class TestPeakToValley:
    def test_ratio(self):
        assert peak_to_valley([10, 20, 5]) == 4.0

    def test_zero_slots_ignored(self):
        assert peak_to_valley([0, 10, 5]) == 2.0

    def test_all_empty_raises(self):
        with pytest.raises(ConfigurationError):
            peak_to_valley([0, 0])
