"""The ``python -m repro.analysis`` entry point."""

import pytest

from repro.analysis.__main__ import main


def test_list(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "nw" in out and "lud" in out


def test_single_benchmark_ok(capsys):
    """Default run verifies every pipeline preset."""
    assert main(["nw"]) == 0
    out = capsys.readouterr().out
    for preset in ("unopt", "sc", "sc+fuse", "full"):
        assert f"nw [{preset}]" in out
    assert "OK" in out


def test_opt_only_runs_one_pipeline(capsys):
    """``--pipeline full`` is the one spelling; the old alias is gone."""
    assert main(["nn", "--pipeline", "full"]) == 0
    out = capsys.readouterr().out
    assert "[full]" in out and "[unopt]" not in out
    with pytest.raises(SystemExit) as exc:
        main(["nn", "--opt-only"])
    assert exc.value.code == 2


def test_pipeline_selects_presets(capsys):
    assert main(["nn", "--pipeline", "sc"]) == 0
    out = capsys.readouterr().out
    assert "[sc]" in out and "[full]" not in out and "[unopt]" not in out


def test_unknown_name_is_an_error(capsys):
    assert main(["not-a-benchmark"]) == 2


def test_no_programs_is_usage_error():
    with pytest.raises(SystemExit):
        main([])


def test_a_file_defining_build_is_verified(tmp_path, capsys):
    prog = tmp_path / "doubler.py"
    prog.write_text(
        "from tests.analysis.conftest import simple_fun as build\n"
    )
    assert main([str(prog), "--pipeline", "full"]) == 0
    assert "[full]" in capsys.readouterr().out
    # A file without build() is refused with a message, not a traceback.
    empty = tmp_path / "empty.py"
    empty.write_text("")
    with pytest.raises(SystemExit, match="does not define build"):
        main([str(empty)])
