"""Tests for the report renderer."""

from dataclasses import dataclass

import pytest

from repro.api import RunStats
from repro.harness import RunRow
from repro.harness.report import print_table, render_table, rows_to_dicts


@dataclass
class Row:
    name: str
    value: float
    count: int


class TestRowsToDicts:
    def test_dataclass_rows(self):
        rows = rows_to_dicts([Row("a", 1.5, 2)])
        assert rows == [{"name": "a", "value": 1.5, "count": 2}]

    def test_dict_rows_pass_through(self):
        rows = rows_to_dicts([{"x": 1}])
        assert rows == [{"x": 1}]

    def test_unsupported_row_type_rejected(self):
        with pytest.raises(TypeError):
            rows_to_dicts(["not-a-row"])


class TestRowsThatKeepTheirRun:
    ROW = RunRow("obladi", 0.5, RunStats(engine="obladi", committed=3, elapsed_ms=2.0),
                 ceiling=RunStats(committed=9, elapsed_ms=3.0))

    def test_default_columns_leave_the_runs_out(self):
        assert rows_to_dicts([self.ROW]) == [{"series": "obladi", "x": 0.5}]

    def test_a_column_the_row_lacks_is_read_from_its_run(self):
        assert rows_to_dicts([self.ROW], ["x", "committed", "throughput_tps"]) == [
            {"x": 0.5, "committed": 3, "throughput_tps": 1500.0}]

    def test_dotted_columns_read_a_path(self):
        assert rows_to_dicts([self.ROW], ["ceiling.throughput_tps"]) == [
            {"ceiling.throughput_tps": 3000.0}]

    def test_unknown_column_is_blank(self):
        assert rows_to_dicts([self.ROW], ["nope"]) == [{"nope": ""}]

    def test_render_reads_run_columns(self):
        text = render_table([self.ROW], columns=["series", "committed"])
        assert text.splitlines()[-1].split() == ["obladi", "3"]


class TestRenderTable:
    def test_renders_title_and_columns(self):
        text = render_table([Row("alpha", 2.0, 3)], title="My Table")
        assert "My Table" in text
        assert "name" in text and "value" in text
        assert "alpha" in text

    def test_column_subset_and_order(self):
        text = render_table([Row("alpha", 2.0, 3)], columns=["count", "name"])
        header = text.splitlines()[0]
        assert header.index("count") < header.index("name")
        assert "value" not in header

    def test_large_numbers_formatted_with_separators(self):
        text = render_table([Row("x", 123456.0, 1)])
        assert "123,456" in text

    def test_empty_rows(self):
        assert "(no rows)" in render_table([], title="Empty")

    def test_alignment_consistent(self):
        text = render_table([Row("a", 1.0, 1), Row("bbbb", 22.0, 22)])
        lines = [line for line in text.splitlines() if line.strip()]
        assert len({len(line) for line in lines[1:]}) <= 2

    def test_print_table_prints_the_rendered_table(self, capsys):
        rows = [Row("a", 1.0, 1), Row("bbbb", 22.0, 22)]
        print_table(rows, title="T", columns=["name", "count"])
        assert capsys.readouterr().out == \
            render_table(rows, title="T", columns=["name", "count"]) + "\n"
