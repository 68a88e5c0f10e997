"""``benchmarks/perfpairs.py``: one metric's paired runs become medians,
the parent's quartiles, wins and a verdict under the benchmark's rule
(worse, gain, unresolved, within bound); a run that writes no result
stops the script; a finished one appends to the perf history."""

import importlib.util
import json
import re
import subprocess
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


def test_gain_needs_nine_wins_in_ten_and_a_move_past_the_parent_spread():
    summarize = load_perfpairs().summarize
    parent = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    faster = [0.8] * 9 + [1.5]  # nine wins, one loss
    assert summarize(LOWER, parent, faster)["verdict"] == "gain"
    eight = [0.8] * 8 + [1.0, 1.5]  # a tie counts for neither side
    assert summarize(LOWER, parent, eight)["verdict"] == "within bound"
    slight = [0.995] * 10  # wins every pair, inside the parent's spread
    assert summarize(LOWER, parent, slight)["verdict"] == "within bound"
    assert summarize(HIGHER, parent, [1.2] * 10)["verdict"] == "gain"


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    summarize = load_perfpairs().summarize
    parent = [0.5, 0.6, 1.0, 1.4, 1.5, 0.55, 1.0, 1.45, 0.6, 1.4]
    mixed = [1.0] * 10
    assert summarize(LOWER, parent, mixed)["verdict"] == "unresolved"
    # Every change run beats every parent run: resolved, though inside
    # the parent's spread, so no gain.
    assert summarize(LOWER, parent, [0.4] * 10)["verdict"] == "within bound"
    assert summarize(LOWER, parent, [0.1] * 10)["verdict"] == "gain"
    # A median worse by more than the bound stays worse.
    assert summarize(LOWER, parent, [1.5] * 10)["verdict"] == "worse"


FAKE_PERFBENCH = '''\
import argparse, json
ap = argparse.ArgumentParser()
ap.add_argument("--workload")
ap.add_argument("--seed", type=int)
ap.add_argument("--json")
a = ap.parse_args()
json.dump({"workloads": {a.workload: {
    "ops_failed": 0, "ops_attempted": 3,
    "metrics": {"first_call_s": 0.5 + a.seed / 100, "peak_bytes": 4096},
}}}, open(a.json, "w"))
'''


def test_a_finished_run_appends_one_history_line_per_workload(
    tmp_path, monkeypatch
):
    """The trajectory: after every pair has run, each workload's change
    medians and the ``src/`` line count go to ``perf_history.jsonl``."""
    import subprocess

    repo = tmp_path / "repo"
    for rel, text in {
        "perfbench/__init__.py": "",
        "perfbench/__main__.py": FAKE_PERFBENCH,
        "src/pkg/mod.py": "a = 1\nb = 2\n",
        "benchmarks/results/perf_history.jsonl": "",
        "BENCHMARK.json": json.dumps({
            "workloads": [{"name": "w1"}, {"name": "w2"}],
            "end_to_end": [
                {"name": "first_call_s", "unit": "s", "better": "lower",
                 "bound": 0.25},
                {"name": "peak_bytes", "unit": "bytes", "better": "lower",
                 "bound": 0.001},
            ],
        }),
    }.items():
        (repo / rel).parent.mkdir(parents=True, exist_ok=True)
        (repo / rel).write_text(text)

    def git(*args):
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=repo, check=True, capture_output=True,
        )

    git("init", "-q")
    git("add", "-A")
    git("commit", "-qm", "parent")
    (repo / "src" / "pkg" / "mod.py").write_text("a = 1\n")
    git("commit", "-qam", "change")
    mod = load_perfpairs()
    monkeypatch.setattr(mod, "ROOT", repo)
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    assert mod.main([str(tmp_path / "pairs.json")]) == 0
    head = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=repo, capture_output=True,
        text=True,
    ).stdout.strip()
    lines = [
        json.loads(l) for l in
        (repo / "benchmarks/results/perf_history.jsonl").read_text().splitlines()
    ]
    assert [l["workload"] for l in lines] == ["w1", "w2"]
    for line in lines:
        assert line["sha"] == head and line["src_lines"] == 1
        assert line["medians"] == {"first_call_s": 0.555, "peak_bytes": 4096}


#: Per run: which side (the tree's ``side.txt``) and which interleaving
#: (runs counted so far in ``$FAKE_RUNS``: 20 per interleaving of one
#: workload) it is; the change is twice as fast on ``steady_s``, on
#: ``flaky_s`` only in the first interleaving, and twice as slow on
#: ``late_s`` only in the second.
FAKE_TWO_INTERLEAVINGS = '''\
import argparse, json, os, pathlib
ap = argparse.ArgumentParser()
ap.add_argument("--workload")
ap.add_argument("--seed", type=int)
ap.add_argument("--json")
a = ap.parse_args()
runs = pathlib.Path(os.environ["FAKE_RUNS"])
second = runs.exists() and len(runs.read_text().splitlines()) >= 20
with runs.open("a") as f:
    f.write("run\\n")
change = pathlib.Path("side.txt").read_text().strip() == "change"
base = 1.0 + a.seed / 1000
json.dump({"workloads": {a.workload: {
    "ops_failed": 0, "ops_attempted": 3,
    "metrics": {
        "steady_s": base / 2 if change else base,
        "flaky_s": base / 2 if change and not second else base,
        "late_s": base * 2 if change and second else base,
    },
}}}, open(a.json, "w"))
'''


def test_a_verdict_stands_only_when_a_second_interleaving_agrees(
    tmp_path, monkeypatch
):
    """Gain in both interleavings: gain.  Gain in the first only, or
    worse in the second only: unresolved.  The history line carries the
    session's parent medians and the ratios."""
    import subprocess

    repo = tmp_path / "repo"
    spec = {"unit": "s", "better": "lower", "bound": 0.25}
    for rel, text in {
        "perfbench/__init__.py": "",
        "perfbench/__main__.py": FAKE_TWO_INTERLEAVINGS,
        "side.txt": "parent\n",
        "src/pkg/mod.py": "a = 1\n",
        "benchmarks/results/perf_history.jsonl": "",
        "BENCHMARK.json": json.dumps({
            "workloads": [{"name": "w"}],
            "end_to_end": [
                dict(spec, name=n) for n in ("steady_s", "flaky_s", "late_s")
            ],
        }),
    }.items():
        (repo / rel).parent.mkdir(parents=True, exist_ok=True)
        (repo / rel).write_text(text)

    def git(*args):
        return subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=repo, check=True, capture_output=True, text=True,
        ).stdout.strip()

    git("init", "-q")
    git("add", "-A")
    git("commit", "-qm", "parent")
    parent = git("rev-parse", "HEAD")
    (repo / "side.txt").write_text("change\n")
    git("commit", "-qam", "change")
    mod = load_perfpairs()
    monkeypatch.setattr(mod, "ROOT", repo)
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setenv("FAKE_RUNS", str(tmp_path / "runs"))
    out = tmp_path / "pairs.json"
    assert mod.main([str(out)]) == 0
    assert len((tmp_path / "runs").read_text().splitlines()) == 40
    metrics = json.loads(out.read_text())["workloads"]["w"]["metrics"]
    verdicts = {
        n: (m["verdict"], m["second"]["verdict"]) for n, m in metrics.items()
    }
    assert verdicts == {
        "steady_s": ("gain", "gain"),
        "flaky_s": ("unresolved", "within bound"),
        "late_s": ("unresolved", "worse"),
    }
    (line,) = [
        json.loads(l) for l in
        (repo / "benchmarks/results/perf_history.jsonl").read_text().splitlines()
    ]
    assert (line["session"], line["parent"]) == ("pairs.json", parent)
    assert line["parent_medians"]["steady_s"] == 1.0055
    assert line["ratios"]["steady_s"] == line["medians"]["steady_s"] / 1.0055
    assert line["ratios"]["steady_s"] == pytest.approx(0.5)


def test_every_history_line_names_its_commits():
    """Each line of the perf history names the measured commit and its
    parent by full sha, and carries every field ``append_history``
    writes: a ratio is only read against the commits it names."""
    keys = ["session", "sha", "parent", "workload", "medians",
            "parent_medians", "ratios", "src_lines"]
    path = ROOT / "benchmarks" / "results" / "perf_history.jsonl"
    lines = [json.loads(text) for text in path.read_text().splitlines()]
    for n, line in enumerate(lines, 1):
        assert sorted(line) == sorted(keys), n
        for sha in (line["sha"], line["parent"]):
            assert re.fullmatch(r"[0-9a-f]{40}", sha), (n, sha)
        assert line["sha"] != line["parent"], n
    if not (ROOT / ".git").exists():
        return
    # The newest session may name the commit its measuring clone made of
    # a change that lands under another sha; every older line must name
    # commits of this history.
    newest = lines[-1]["session"]
    for n, line in enumerate(lines, 1):
        if line["session"] == newest:
            continue
        for sha in (line["sha"], line["parent"]):
            found = subprocess.run(
                ["git", "cat-file", "-e", f"{sha}^{{commit}}"],
                cwd=ROOT, capture_output=True,
            )
            assert found.returncode == 0, (n, sha)
