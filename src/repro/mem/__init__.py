"""The memory pipeline: introducing and executing memory in the IR.

Following paper section IV, the source program is memory-agnostic; this
package adds a *notion of memory* as annotations on pattern elements:

* :mod:`repro.mem.memir` -- the :class:`MemBinding` (memory block + index
  function) attached to every array-typed pattern element, plus helpers.
* :mod:`repro.mem.introduce` -- the memory introduction pass: ``alloc``
  statements for fresh arrays, transformed index functions for O(1)
  change-of-layout operations, anti-unification (least general
  generalization) for ``if``/``loop`` results that may live in different
  memory blocks, with copy-insertion fallback.
* :mod:`repro.mem.hoist` -- allocation hoisting, the enabler for the
  short-circuiting pass's property (2) (destination memory in scope at the
  candidate's definition point).
* :mod:`repro.mem.exec` -- the memory-IR executor: runs annotated programs
  on flat NumPy buffers (this is our "GPU"), counting memory traffic and
  flops per kernel.  A copy whose source binding equals its destination
  binding is a no-op -- which is all short-circuiting needs to change.
* :mod:`repro.mem.stats` -- traffic/kernel statistics consumed by the
  simulated-GPU cost model in :mod:`repro.gpu`.
"""

from repro.mem.memir import MemBinding, MEM_TYPE
from repro.mem.introduce import introduce_memory
from repro.mem.hoist import hoist_allocations
from repro.mem.exec import MemExecutor
from repro.mem.stats import ExecStats, KernelStat

__all__ = [
    "MemBinding",
    "MEM_TYPE",
    "introduce_memory",
    "hoist_allocations",
    "MemExecutor",
    "ExecStats",
    "KernelStat",
]
