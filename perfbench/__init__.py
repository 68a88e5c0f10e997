"""perfbench: the benchmark every later performance claim is measured with.

Four workloads, each in a fresh subprocess, each through the same six
phases (``setup -> compile -> first_call -> warm -> dry -> check``);
thirteen end-to-end metrics with stated bounds; and, on ``--trace 1``, a
second, span-recording run that prices every layer from the outside.
Nothing under ``src/`` is touched: all spans sit around calls into public
functions.  See ``perfbench/README.md``.
"""
