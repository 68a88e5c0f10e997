"""BufferPool semantics: exact-size reuse, pristine-on-acquire, leases."""

import numpy as np
import pytest

from repro.runtime import BufferPool
from tests.runtime import idle_buffers, poison


class TestAcquireRelease:
    def test_miss_then_hit(self):
        pool = BufferPool()
        buf, reused = pool.acquire(16, "f32")
        assert not reused
        assert buf.dtype == np.float32 and buf.size == 16
        assert pool.misses == 1 and pool.hits == 0
        pool.release(buf)
        buf2, reused2 = pool.acquire(16, "f32")
        assert reused2 and buf2 is buf
        assert pool.hits == 1

    def test_exact_size_keying(self):
        """A 16-element buffer never serves a 17-element request -- the
        peak-footprint accounting must see the exact nbytes a fresh
        ``np.zeros`` would have had."""
        pool = BufferPool()
        buf, _ = pool.acquire(16, "f32")
        pool.release(buf)
        other, reused = pool.acquire(17, "f32")
        assert not reused
        same_size_other_dtype, reused = pool.acquire(16, "i64")
        assert not reused

    def test_reused_buffer_is_zeroed(self):
        pool = BufferPool()
        buf, _ = pool.acquire(8, "f32")
        buf[:] = 7.5
        pool.release(buf)
        buf2, reused = pool.acquire(8, "f32")
        assert reused
        assert np.array_equal(buf2, np.zeros(8, dtype=np.float32))

    def test_zero_false_skips_the_fill(self):
        pool = BufferPool()
        buf, _ = pool.acquire(8, "f32")
        buf[:] = 7.5
        pool.release(buf)
        buf2, reused = pool.acquire(8, "f32", zero=False)
        assert reused
        assert np.all(buf2 == 7.5)

    @pytest.mark.parametrize("dtype", ["f32", "f64", "i64", "bool"])
    def test_poisoned_pool_hands_out_pristine_memory(self, dtype):
        pool = BufferPool()
        buf, _ = pool.acquire(8, dtype)
        pool.release(buf)
        poison(pool)
        assert np.any(buf != 0)
        buf2, reused = pool.acquire(8, dtype)
        assert reused
        assert np.count_nonzero(buf2) == 0

    def test_counts(self):
        pool = BufferPool()
        a, _ = pool.acquire(4, "f32")
        b, _ = pool.acquire(4, "f32")
        pool.release(a)
        assert len(idle_buffers(pool)) == 1
        assert sum(b.nbytes for b in idle_buffers(pool)) == 16
        pool.release(b)
        assert len(idle_buffers(pool)) == 2


class TestLease:
    def test_buffers_return_on_close(self):
        pool = BufferPool()
        with pool.lease() as lease:
            lease.acquire(8, "f32")
            lease.acquire(4, "i64")
            assert len(idle_buffers(pool)) == 0
            assert lease.misses == 2 and lease.hits == 0
        assert len(idle_buffers(pool)) == 2

    def test_manifest_records_the_draw(self):
        pool = BufferPool()
        with pool.lease() as lease:
            lease.acquire(8, "f32")
            lease.acquire(4, "i64")
            manifest = lease.manifest()
        assert manifest == (
            (np.dtype(np.float32).str, 8),
            (np.dtype(np.int64).str, 4),
        )

    def test_concurrent_leases_never_share(self):
        pool = BufferPool()
        l1, l2 = pool.lease(), pool.lease()
        a, _ = l1.acquire(8, "f32")
        b, _ = l2.acquire(8, "f32")
        assert a is not b
        l1.close()
        l2.close()

    def test_closed_lease_rejects_acquire(self):
        pool = BufferPool()
        lease = pool.lease()
        lease.close()
        with pytest.raises(AssertionError):
            lease.acquire(8, "f32")
