"""``benchmarks/perfpairs.py``: one metric's paired runs become medians,
the parent's quartiles, wins and a verdict under the metric's bound; a
run that writes no result stops the script."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_perfpairs():
    spec = importlib.util.spec_from_file_location(
        "perfpairs", ROOT / "benchmarks" / "perfpairs.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


LOWER = {"unit": "s", "better": "lower", "bound": 0.25}
HIGHER = {"unit": "requests/s", "better": "higher", "bound": 0.25}


def test_a_move_past_the_bound_is_worse_in_either_direction():
    summarize = load_perfpairs().summarize
    parent = [1.0, 1.0, 1.1, 0.9]
    assert summarize(LOWER, parent, [1.2] * 4)["verdict"] == "within bound"
    assert summarize(LOWER, parent, [1.3] * 4)["verdict"] == "worse"
    assert summarize(HIGHER, parent, [0.8] * 4)["verdict"] == "within bound"
    assert summarize(HIGHER, parent, [0.7] * 4)["verdict"] == "worse"


def test_medians_quartiles_wins_and_byte_equality():
    m = load_perfpairs().summarize(LOWER, [1.0, 2.0, 3.0, 4.0, 5.0],
                                   [0.5, 2.0, 3.5, 3.0, 4.0])
    assert (m["parent_median"], m["change_median"]) == (3.0, 3.0)
    assert m["parent_quartiles"] == [2.0, 4.0]
    assert m["change_wins"] == 3 and not m["byte_equal"]
    exact = {"unit": "bytes", "better": "lower", "bound": 0.001}
    assert load_perfpairs().summarize(exact, [7, 7], [7, 7])["byte_equal"]


def test_a_run_that_writes_no_result_is_an_error_not_a_stale_read(tmp_path):
    """perfbench exits 1 without ``--json`` output when a worker crashes
    or the run changes ``git status``; an older file at the same path
    must not stand in for the run."""
    tree = tmp_path / "tree"
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "__init__.py").write_text("")
    (tree / "perfbench" / "__main__.py").write_text("import sys\nsys.exit(1)\n")
    out = tmp_path / "run.json"
    out.write_text('{"workloads": {"w": {"ops_failed": 0}}}')
    with pytest.raises(RuntimeError, match="exited 1 and wrote no result"):
        load_perfpairs().run_perfbench(tree, "w", 1, out)
