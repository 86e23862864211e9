"""Tests for the benchmark reporting helpers."""

from repro.obs import format_table


class TestFormatTable:
    def test_alignment_and_headers(self):
        text = format_table(
            ["name", "value"],
            [("alpha", 1.5), ("b", 123456.0)],
            title="My Table",
        )
        lines = text.splitlines()
        assert lines[0] == "My Table"
        assert "name" in lines[1] and "value" in lines[1]
        assert set(lines[2]) == {"-"}
        # All rows aligned to the same width.
        assert len(lines[3]) <= len(lines[1]) + 2

    def test_float_formatting(self):
        text = format_table(["x"], [(0.0001,), (1234567.0,), (3.14159,), (250.0,)])
        assert "1.00e-04" in text
        assert "1.23e+06" in text
        assert "3.14" in text
        assert "250" in text

    def test_zero(self):
        assert "0" in format_table(["x"], [(0.0,)])

    def test_no_title(self):
        text = format_table(["a"], [(1,)])
        assert text.splitlines()[0].startswith("a")
