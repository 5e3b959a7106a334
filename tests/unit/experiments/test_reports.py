"""Unit tests for report rendering helpers and trace export."""

import csv

import pytest

from repro.core import RequestTrace, Tracer
from repro.experiments.report import ascii_gantt, ascii_series, ascii_table, hms, ms


class TestFormatting:
    def test_hms_paper_style(self):
        assert hms(58723) == "16h 18min 43s"
        assert hms(4511) == "1h 15min 11s"
        assert hms(0) == "0h 00min 00s"

    def test_ms(self):
        assert ms(0.0498) == "49.8ms"

    def test_ascii_table_alignment(self):
        text = ascii_table(("a", "long header"), [("x", 1), ("yy", 22)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[1:])
        assert "long header" in lines[0]

    def test_ascii_gantt_shape(self):
        chart = {
            "sed-a": [(0.0, 3600.0, 1), (3600.0, 7200.0, 2)],
            "sed-b": [(0.0, 7200.0, 3)],
        }
        text = ascii_gantt(chart, width=40)
        lines = text.splitlines()
        assert lines[0].startswith("sed-a")
        assert "#" in lines[0] and "|" in lines[0]
        assert "2.0h" in lines[-1]

    def test_ascii_gantt_empty(self):
        assert ascii_gantt({}) == "(empty)"

    def test_ascii_series_linear_and_log(self):
        text = ascii_series([1.0, 2.0, 3.0], width=20, height=5)
        assert text.count("*") == 3
        logtext = ascii_series([1e-3, 1.0, 1e3], width=20, height=5, log=True)
        assert "*" in logtext

    def test_ascii_series_empty(self):
        assert ascii_series([]) == "(empty series)"


class TestTracerExport:
    def make_tracer(self):
        tracer = Tracer()
        for rid in (1, 2):
            t = tracer.trace(rid, "svc")
            t.submitted_at = 0.0
            t.found_at = 0.05
            t.sed_name = f"sed{rid}"
            t.data_sent_at = 0.05
            t.solve_started_at = 1.0
            t.solve_ended_at = 2.0 + rid
            t.completed_at = 2.1 + rid
            t.status = 0
        return tracer

    def test_to_records(self):
        records = self.make_tracer().to_records()
        assert len(records) == 2
        assert records[0]["finding_time"] == pytest.approx(0.05)
        assert records[1]["solve_duration"] == pytest.approx(3.0)

    def test_csv_roundtrip(self, tmp_path):
        path = str(tmp_path / "trace.csv")
        self.make_tracer().write_csv(path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert rows[0]["sed_name"] == "sed1"
        assert float(rows[0]["latency"]) == pytest.approx(0.95)

    def test_incomplete_trace_exports_blank(self, tmp_path):
        tracer = Tracer()
        tracer.trace(9, "svc").submitted_at = 1.0
        path = str(tmp_path / "trace.csv")
        tracer.write_csv(path)
        with open(path) as fh:
            (row,) = list(csv.DictReader(fh))
        assert row["latency"] == ""
