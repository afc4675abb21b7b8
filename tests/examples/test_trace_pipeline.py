"""``examples/trace_pipeline.py`` writes its trace into a directory that
need not exist yet, and refuses an unwritable one before it simulates."""

import json
import runpy
import sys
from pathlib import Path

import pytest

SCRIPT = (Path(__file__).resolve().parents[2] / "examples"
          / "trace_pipeline.py")


def _run(monkeypatch, out_path):
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), str(out_path)])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPT), run_name="__main__")
    return exc.value.code


def test_creates_missing_output_directory(monkeypatch, tmp_path):
    out_path = tmp_path / "new" / "trace.json"
    assert _run(monkeypatch, out_path) == 0
    events = json.loads(out_path.read_text())
    assert any(e["ph"] == "X" for e in events)


def test_unwritable_output_directory_exits_2(monkeypatch, tmp_path, capsys):
    (tmp_path / "file").write_text("")
    assert _run(monkeypatch, tmp_path / "file" / "trace.json") == 2
    captured = capsys.readouterr()
    assert "cannot create output directory" in captured.err
    assert "decoded" not in captured.out
