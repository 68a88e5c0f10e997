"""Shared fixtures: isolate every test from the persistent caches.

``compile_fun`` is cache-hitting (:mod:`repro.runtime`), and several
tests rely on compilations actually *running* -- monkeypatched pass
seams, ``REPRO_PRINT_AFTER`` side effects, verification-failure
injection.  Clearing the in-process cache before each test keeps those
observable; the cache's own behavior is tested explicitly in
``tests/runtime``.

The native kernel cache (:mod:`repro.backend.build`) is redirected to a
per-session temporary directory so test runs never populate the
checked-out ``benchmarks/results/.nativecache/`` -- mirroring the
program-cache isolation above.  Compiled-kernel artifacts are keyed by
content, so sharing one directory across the session is sound and keeps
the suite from invoking cc hundreds of times.

Two markers carry the suite's gates.  ``native`` marks a test that
needs the native tier; it is skipped, with :mod:`repro.backend`'s own
reason (``REPRO_NATIVE=off`` or ``no C compiler``), where the tier is
unavailable.  ``gate`` marks a check that a run of the whole suite may
not lose: there, a deselected gate test fails the session, and so does
one skipped for any reason but the ``native`` marker.  A run narrower
than ``tests/`` (a path, a node id, ``--lf``) is exempt.  Every run that
collects a gate test prints one inventory line per gate file.
"""

from collections import Counter, defaultdict
from pathlib import Path

import pytest

from repro.backend import native_unavailable
from repro.runtime import clear_caches

TESTS = Path(__file__).parent


@pytest.fixture(scope="session", autouse=True)
def _isolated_native_cache(tmp_path_factory):
    import repro.backend.build as build

    d = tmp_path_factory.mktemp("nativecache")
    mp = pytest.MonkeyPatch()
    mp.setenv("REPRO_NATIVE_CACHE", str(d))
    build.clear_memo()
    yield
    mp.undo()
    build.clear_memo()


@pytest.fixture(autouse=True)
def _fresh_program_cache():
    clear_caches()
    yield


def pytest_configure(config):
    config.pluginmanager.register(GateRule(), "gate-rule")


class GateRule:
    """The ``native`` marker's skips, the ``gate`` rule and inventory."""

    def __init__(self):
        self.outcome = {}  # gate test node id -> "passed", "skipped (why)", ...
        self.native_skips = set()  # node ids the native marker skipped

    def pytest_deselected(self, items):
        for i in items:
            if i.get_closest_marker("gate"):
                self.outcome[i.nodeid] = "deselected"

    def pytest_collection_finish(self, session):
        why = native_unavailable()
        for item in session.items:
            if why and item.get_closest_marker("native"):
                item.add_marker(pytest.mark.skip(reason=why))
                self.native_skips.add(item.nodeid)
            if item.get_closest_marker("gate"):
                self.outcome[item.nodeid] = "not run"

    def pytest_runtest_logreport(self, report):
        if report.nodeid in self.outcome and (
            report.when == "call" or not report.passed
        ):
            why = report.skipped and report.longrepr[2].removeprefix("Skipped: ")
            self.outcome[report.nodeid] = f"skipped ({why})" if why else report.outcome

    def pytest_sessionfinish(self, session):
        config, here = session.config, session.config.invocation_params.dir
        whole = not config.getoption("lf", False) and any(
            "::" not in a and TESTS.is_relative_to((here / a).resolve())
            for a in config.args
        )
        lost = [
            n for n, o in self.outcome.items()
            if o == "deselected"
            or (o.startswith("skipped") and n not in self.native_skips)
        ]
        if whole and lost and not config.option.collectonly:
            files = sorted({n.split("::")[0] for n in lost})
            session.shouldfail = (
                f"{len(lost)} gate tests deselected or skipped in a "
                f"whole-suite run: {', '.join(files)}"
            )
            session.exitstatus = pytest.ExitCode.TESTS_FAILED

    def pytest_terminal_summary(self, terminalreporter, config):
        if config.option.collectonly:
            return
        files = defaultdict(Counter)
        for n, o in self.outcome.items():
            files[n.split("::")[0]][o] += 1
        for f, c in sorted(files.items()):
            terminalreporter.write_line(
                f"gate {f}: {c.total()} collected, {c.pop('passed', 0)} passed"
                + "".join(f", {v} {k}" for k, v in sorted(c.items()))
            )
