"""Serving: compile once, serve many requests, ask what ran where.

Run:  python examples/serving.py
"""

from pprint import pprint

import repro.runtime as rt
from repro.bench.programs import hotspot

program = rt.compile(hotspot.build(), pipeline="full")  # cached when warm
request = hotspot.inputs_for(64, 4)
for _ in range(3):
    outs, stats = program.run(request, memoize=False)  # pooled buffers
    print("tape:", stats.tape)  # "captured" | "replayed" | "off: <why>"
program.run(request)
program.run(request)  # the same bytes again: recalled from the memo
print("memo hits:", program.memo_hits)
# Per outermost map: the tier that serves it and who declined; per
# shape class: the tape's state, and why it is off.
pprint(program.coverage())
