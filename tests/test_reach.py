"""``benchmarks/reach.py``: the call recorder sees every process, and an
unreached function needs a reason from ``KEPT``.

The recorder's toy package has four functions: one called in the main
process, one only in a thread, one only in a ``subprocess`` child, and
one never.  The report must list exactly the last.
"""

import importlib.util
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_reach():
    spec = importlib.util.spec_from_file_location(
        "reach", ROOT / "benchmarks" / "reach.py"
    )
    mod = importlib.util.module_from_spec(spec)
    sys.modules["reach"] = mod  # dataclasses look their module up
    spec.loader.exec_module(mod)
    return mod


TOY = '''\
import subprocess
import sys
import threading


def in_main():
    return 1


def in_thread():
    return 2


def in_child():
    return 3


def never():
    return 4


def drive():
    in_main()
    t = threading.Thread(target=in_thread)
    t.start()
    t.join()
    subprocess.run(
        [sys.executable, "-c", "import toy.mod; toy.mod.in_child()"], check=True
    )
'''


def test_only_the_uncalled_function_is_unreached(tmp_path):
    reach = load_reach()
    pkg = tmp_path / "src" / "toy"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(textwrap.dedent(TOY))

    seen, status = reach.record(
        [["-c", "import toy.mod; toy.mod.drive()"]], pkg, tmp_path,
        [tmp_path / "src"],
    )
    assert [rc for _, rc, _ in status] == [0]
    missed = reach.unreached(reach.functions(pkg), seen)
    assert [f.qualname for f in missed] == ["never"]


def test_only_a_kept_reason_labels_an_unreached_function(monkeypatch):
    """Reaching a function from tier-1 is no reason to keep it."""
    reach = load_reach()
    monkeypatch.setattr(reach, "KEPT", {("mod.py", "Kept."): "safety"})
    only_tests = reach.Func("mod.py", "only_tests", 1, 2)
    kept = reach.Func("mod.py", "Kept.check", 4, 5)
    text = reach.report([only_tests, kept], product=set(), status=[])
    rows = [line.split()[0] for line in text.splitlines()[-2:]]
    assert rows == ["UNLABELED", "safety"]


def test_every_kept_reason_is_explained():
    reach = load_reach()
    assert set(reach.KEPT.values()) <= set(reach.NOTES)


def _toy_checkout(tmp_path, monkeypatch, reach, kept):
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(
        "def product():\n    return 1\n\n\ndef only_tests():\n    return 2\n"
    )
    results = tmp_path / "benchmarks" / "results"
    results.mkdir(parents=True)
    monkeypatch.setattr(reach, "ROOT", tmp_path)
    monkeypatch.setattr(reach, "RESULTS", results)
    monkeypatch.setattr(
        reach, "PRODUCT", [["-c", "import repro.mod; repro.mod.product()"]]
    )
    monkeypatch.setattr(reach, "KEPT", kept)
    return results / "reach.txt"


def test_main_fails_on_an_unlabeled_row(tmp_path, monkeypatch):
    reach = load_reach()
    out = _toy_checkout(tmp_path, monkeypatch, reach, kept={})
    assert reach.main() == 1
    assert "UNLABELED" in out.read_text().splitlines()[-1]


def test_main_passes_when_every_row_is_kept(tmp_path, monkeypatch):
    reach = load_reach()
    out = _toy_checkout(
        tmp_path, monkeypatch, reach, kept={("mod.py", "only_tests"): "safety"}
    )
    assert reach.main() == 0
    assert out.read_text().splitlines()[-1].split()[0] == "safety"
