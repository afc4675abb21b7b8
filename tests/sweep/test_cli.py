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
    (["--batches", "0"], "--batches"),
    (["--warmup-s", "-1"], "--warmup-s"),
    (["--measure-s", "0"], "--measure-s"),
    (["--measure-s", "nan"], "--measure-s"),
    (["--models", "foo"], "--models"),
    (["--backends", "bar"], "--backends"),
], ids=["parallel-0", "seeds-0-identity", "seeds-negative", "models-empty",
        "backends-empty", "batches-empty", "batches-0", "warmup-negative",
        "measure-0", "measure-nan", "models-unknown", "backends-unknown"])
def test_cli_rejects_bad_input(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        sweep_main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert flag in captured.err
    assert "sweep:" not in captured.out
