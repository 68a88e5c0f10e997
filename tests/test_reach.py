"""The call recorder of ``benchmarks/reach.py`` sees every process.

A toy package has four functions: one called in the main process, one
only in a thread, one only in a ``subprocess`` child, and one never.
The report must list exactly the last.
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
