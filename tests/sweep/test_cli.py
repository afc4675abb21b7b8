"""``python -m repro.sweep`` rejects bad arguments before it builds a
single sweep point."""

import pytest

from repro.sweep.__main__ import main as sweep_main


@pytest.mark.parametrize("argv,flag", [
    (["--parallel", "0"], "--parallel"),
    (["--seeds", "0", "--check-identity", "--parallel", "2"], "--seeds"),
    (["--seeds", "-2"], "--seeds"),
    (["--models", ","], "--models"),
    (["--backends", ","], "--backends"),
    (["--batches", ","], "--batches"),
], ids=["parallel-0", "seeds-0-identity", "seeds-negative", "models-empty",
        "backends-empty", "batches-empty"])
def test_cli_rejects_bad_input(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        sweep_main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert flag in captured.err
    assert "sweep:" not in captured.out
