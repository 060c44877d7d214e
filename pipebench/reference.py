"""Fixed reference work that the gated end-to-end timings are expressed in.

The host the benchmark runs on is shared with other tenants. How fast one
thread runs there moves by 20% and more over seconds to minutes, and it
moves every mode of a workload together: the medians of two 35-second runs
of the same code can differ by a third. A wall-clock median alone therefore
cannot tell a 10% regression from a busy minute.

So the benchmark times this piece of work right before every sweep and once
after the last one, and divides each sweep's wall clock by the geometric
mean of the two reference timings around it. The ratio (unit `ref`) is the
sweep's cost in multiples of the reference work on the same host at the
same moment. The reference uses only the standard library and none of
evmsleuth, and its input is built from a fixed seed, so no change to the
program or to `--seed` can move it; a program that does twice the work
reads twice the ratio.

It does the kinds of work trace ingest does: JSON decode of a structLog-like
document, hex-word parsing, and building tuples and a dict.
"""

from __future__ import annotations

import gc
import json
import random
import time

# small document, many passes: the reference must not set the process's
# peak resident memory, which is an end-to-end metric of its own
_STEPS = 500
_PASSES = 40
_OPS = ("PUSH1", "SLOAD", "SSTORE", "ADD", "SUB", "CALL", "JUMPI", "MSTORE")


def _document() -> str:
    rng = random.Random(20210412)
    return json.dumps([
        {
            "pc": pc,
            "op": rng.choice(_OPS),
            "gas": rng.randrange(1 << 20),
            "depth": 1 + rng.randrange(3),
            "stack": [hex(rng.getrandbits(rng.randrange(8, 257)))
                      for _ in range(rng.randrange(1, 8))],
        }
        for pc in range(_STEPS)
    ])


_DOCUMENT = _document()


def _work() -> int:
    gas_by_site: dict[tuple, int] = {}
    for _ in range(_PASSES):
        steps = [
            (s["pc"], s["op"], s["gas"], s["depth"], tuple(int(w, 16) for w in s["stack"]))
            for s in json.loads(_DOCUMENT)
        ]
        for pc, op, gas, depth, stack in steps:
            site = (pc & 1023, op, depth)
            gas_by_site[site] = gas_by_site.get(site, 0) + gas + len(stack)
    return len(gas_by_site)


def time_once() -> float:
    """Wall-clock seconds of one pass of the reference work, from a clean heap."""
    gc.collect()
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start
