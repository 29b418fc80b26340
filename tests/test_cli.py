"""Tests of the command-line entry point, driven through ``main(argv)``."""

from chants.cli import main


def test_fewshot_rejects_zero_repeats_before_loading_anything(tmp_path, capsys):
    out_dir = tmp_path / "out"
    argv = [
        "fewshot", str(tmp_path / "missing.ckpt"), str(tmp_path / "missing.ts"), str(out_dir),
        "--fractions", "0.5", "--repeats", "0",
    ]
    assert main(argv) == 2
    assert "--repeats" in capsys.readouterr().err
    assert not out_dir.exists()
