"""Tests for execution statistics and their scaling arithmetic."""

from repro.mem.stats import ExecStats, KernelStat


class TestKernelStat:
    def test_bytes_total(self):
        k = KernelStat("map", "k", 1, 10, 20, 5)
        assert k.bytes_total == 30

    def test_merge_scaled_preserves_launches(self):
        a = KernelStat("map", "k", 2, 10, 10, 10)
        b = KernelStat("map", "k", 3, 100, 100, 100)
        a.merge_scaled(b, 4)
        assert a.launches == 5  # launches never scale with threads
        assert a.bytes_read == 10 + 400


class TestExecStats:
    def test_kernel_registry_aggregates_by_site(self):
        st = ExecStats()
        k1 = st.kernel("map", "a")
        k2 = st.kernel("map", "a")
        assert k1 is k2
        assert st.kernel("map", "b") is not k1
        assert st.kernel("copy", "a") is not k1  # kind is part of the key

    def test_key_recorded(self):
        st = ExecStats()
        k = st.kernel("copy", "c")
        # Keyed by what the stat itself says: no IR node, no address.
        assert st.kernels == {(k.kind, k.label): k}

    def test_totals(self):
        st = ExecStats()
        a = st.kernel("map", "a")
        a.launches, a.bytes_read, a.bytes_written, a.flops = 2, 10, 20, 5
        b = st.kernel("copy", "b")
        b.launches, b.bytes_read, b.bytes_written = 1, 7, 7
        assert st.bytes_read == 17
        assert st.bytes_written == 27
        assert st.bytes_total == 44
        assert st.flops == 5
        assert st.launches == 3
        assert st.copy_traffic() == 14  # only the copy-kind kernel

    def test_merge_scaled_fractional(self):
        main = ExecStats()
        sub = ExecStats()
        k = sub.kernel("map", "a")
        k.bytes_read = 100
        sub.elided_copies = 2
        main.merge_scaled(sub, 2.5)
        assert main.bytes_read == 250
        assert main.elided_copies == 5

    def test_summary_renders(self):
        st = ExecStats()
        st.kernel("map", "a").bytes_read = 1024
        st.kernel("map", "a").note_written(64, local=True)
        lines = st.summary().splitlines()
        assert "bytes read      : 1,024" in lines
        assert "bytes written   : 64" in lines


def test_no_printed_stat_contains_an_address():
    """Kernels are keyed by what they are called, not by where an IR node
    happens to live: nothing an ``ExecStats`` prints is an ``id()``."""
    import re

    from repro.bench.programs import nw
    from repro.compiler import compile_fun
    from repro.mem.exec import MemExecutor

    ex = MemExecutor(compile_fun(nw.build()).fun)
    _, stats = ex.run(**nw.inputs_for(*nw.TEST_DATASETS["tiny"]))
    assert stats.kernels
    for key, ks in stats.kernels.items():
        assert key == (ks.kind, ks.label)
    for text in (repr(stats), stats.summary(), repr(stats.signature())):
        assert not re.search(r"\d{12}", text)
