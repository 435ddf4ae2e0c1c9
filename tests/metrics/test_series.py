"""Unit tests for figure series and summaries."""

import math

import pytest

from repro.metrics.series import FigureSeries, Summary, print_series, summarize


class TestSummarize:
    def test_basic_stats(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.n == 4
        assert s.mean == pytest.approx(2.5)
        assert s.p50 == pytest.approx(2.5)

    def test_single_value(self):
        s = summarize([7.0])
        assert s.std == 0.0
        assert s.p95 == 7.0

    def test_empty(self):
        s = summarize([])
        assert s.n == 0
        assert math.isnan(s.mean)

    def test_str(self):
        assert "n=2" in str(summarize([1.0, 2.0]))


class TestFigureSeries:
    def test_add_points(self):
        fs = FigureSeries("label", "x", "y")
        fs.add(1, 0.5)
        fs.add(2, 0.7)
        assert fs.x == [1.0, 2.0]
        assert fs.y == [0.5, 0.7]

    def test_to_dict_roundtrip(self):
        fs = FigureSeries("l", "xa", "ya")
        fs.add(1, 2)
        d = fs.to_dict()
        assert d["label"] == "l"
        assert d["x"] == [1.0]
        assert d["y"] == [2.0]

    def test_to_dict_stable_schema(self):
        fs = FigureSeries("l", "xa", "ya")
        fs.add(1, 2)
        d = fs.to_dict()
        # The JSON schema is a published contract (--json consumers).
        assert set(d) == {"label", "x_label", "y_label", "x", "y"}
        assert d == {"label": "l", "x_label": "xa", "y_label": "ya",
                     "x": [1.0], "y": [2.0]}

    def test_from_dict_round_trip(self):
        fs = FigureSeries("req=30ms", "# dc", "coverage")
        fs.add(5, 0.41)
        fs.add(10, 0.62)
        restored = FigureSeries.from_dict(fs.to_dict())
        assert restored.to_dict() == fs.to_dict()
        assert restored.label == fs.label
        assert restored.x == fs.x
        assert restored.y == fs.y

    def test_format_rows(self):
        fs = FigureSeries("cov", "# dc", "coverage")
        fs.add(5, 0.41)
        text = fs.format_rows()
        assert "cov" in text
        assert "0.410" in text

    def test_print_series(self, capsys):
        fs = FigureSeries("a", "x", "y")
        fs.add(1, 1)
        text = print_series([fs], title="fig")
        captured = capsys.readouterr()
        assert "== fig ==" in captured.out
        assert text in captured.out
