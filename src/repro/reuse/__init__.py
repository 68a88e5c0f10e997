"""Memory reuse: lifetime analysis, block coalescing, footprint accounting.

The paper motivates its memory IR with two wins: eliding copies (array
short-circuiting, :mod:`repro.opt.shortcircuit`) and shrinking the
*allocation footprint* by reusing blocks whose lifetimes do not overlap.
This package is the second half:

* :mod:`repro.reuse.liveranges` -- per-block live ranges of memory blocks,
  derived from the bindings alone (with existential indirection expanded),
  plus the ``mem_frees`` annotations that tell the executor where a
  block's lifetime ends;
* :mod:`repro.reuse.interference` -- the interference graph over the
  blocks allocated in one IR block: two blocks interfere iff their live
  ranges overlap;
* :mod:`repro.reuse.coalesce` -- a linear-scan-style coalescer that
  rewrites a later ``alloc`` to reuse an earlier, provably dead block
  (sizes compared with :mod:`repro.symbolic.prove`; the surviving alloc
  is widened to the max of the merged sizes when the later block is the
  larger one);
* :mod:`repro.reuse.footprint` -- the peak-footprint estimate: a dry-mode
  run of the memory-IR executor (sizes only, no buffers), so the lifetime
  model exists once, in :mod:`repro.mem.exec`.

Everything here is accounting or annotation-level rewriting: deleting the
``mem_frees`` annotations or disabling the coalescer never changes what a
program computes, only how many bytes back it.
"""

from repro.reuse.coalesce import ReuseStats, reuse_allocations
from repro.reuse.footprint import FootprintEstimate, estimate_peak
from repro.reuse.liveranges import LiveRanges, annotate_frees

__all__ = [
    "FootprintEstimate",
    "LiveRanges",
    "ReuseStats",
    "annotate_frees",
    "estimate_peak",
    "reuse_allocations",
]
