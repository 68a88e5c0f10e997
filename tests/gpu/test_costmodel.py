"""Tests for the device models and the roofline cost model."""

import pytest

from repro.gpu import A100, MI100, CostModel
from repro.mem.stats import ExecStats, KernelStat


def stats_with(kind="map", launches=1, br=0, bw=0, flops=0) -> ExecStats:
    st = ExecStats()
    k = st.kernel(kind, "k")
    k.launches = launches
    k.bytes_read = br
    k.bytes_written = bw
    k.flops = flops
    return st


class TestDevices:
    def test_a100_faster_memory_than_mi100(self):
        assert A100.stream_bandwidth > MI100.stream_bandwidth

    def test_mi100_higher_launch_overhead(self):
        assert MI100.launch_overhead > A100.launch_overhead

    def test_effective_below_peak(self):
        for d in (A100, MI100):
            assert d.stream_bandwidth < d.peak_bandwidth
            assert d.effective_flops < d.peak_flops


class TestCostModel:
    def test_memory_bound_kernel(self):
        cm = CostModel(A100)
        st = stats_with(br=10**9, bw=10**9)
        t = cm.total_time(st)
        expected_mem = 2e9 / (
            0.7 * A100.stream_bandwidth + 0.3 * A100.strided_bandwidth
        )
        assert t == pytest.approx(expected_mem + A100.launch_overhead, rel=1e-6)

    def test_compute_bound_kernel(self):
        cm = CostModel(A100)
        st = stats_with(br=8, flops=10**12)
        t = cm.total_time(st)
        assert t == pytest.approx(
            1e12 / A100.effective_flops + A100.launch_overhead, rel=1e-6
        )

    def test_copy_kernels_use_stream_bandwidth(self):
        cm = CostModel(A100)
        t_copy = cm.kernel_time(KernelStat("copy", "c", 1, 10**9, 10**9, 0))
        t_map = cm.kernel_time(KernelStat("map", "m", 1, 10**9, 10**9, 0))
        assert t_copy < t_map  # contiguous copies stream faster

    def test_launch_overhead_scales_with_launches(self):
        cm = CostModel(A100)
        t1 = cm.total_time(stats_with(launches=1))
        t100 = cm.total_time(stats_with(launches=100))
        assert t100 == pytest.approx(100 * t1, rel=1e-6)

    def test_empty_stats_cost_zero(self):
        assert CostModel(A100).total_time(ExecStats()) == 0.0

    def test_sequential_reference_model(self):
        """NN's Rodinia model: per-element latency dominates large inputs."""
        cm = CostModel(A100)
        fast = cm.time_of_traffic(10**6, 10**6, launches=1)
        slow = cm.time_of_traffic(10**6, 10**6, launches=1, sequential_elems=10**6)
        assert slow > 10 * fast

    def test_same_stats_slower_on_mi100(self):
        st = stats_with(br=10**9, bw=10**9, flops=10**6)
        assert CostModel(MI100).total_time(st) > CostModel(A100).total_time(st)
