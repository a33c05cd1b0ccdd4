"""A fixed piece of interpreter work that measures how fast the machine runs now.

On a shared machine the same pure-Python work takes up to 1.8 times longer
from one second to the next.  The benchmark therefore times this probe
beside the program and reports seconds at the probe's reference speed:
measured seconds x REF_S / probe seconds.  The probe shares no code with
crossfam, so a change to the package cannot move it.  It allocates only ints
and three containers, so it adds no work for the cyclic garbage collector.
"""

import time

# the probe's duration on a quiet machine; any fixed value works, this one
# keeps calibrated seconds close to wall seconds on the reference machine
REF_S = 0.0009


def probe() -> float:
    """Run the fixed work; return its seconds."""
    t0 = time.perf_counter()
    seen = set()
    table = {}
    out = []
    x = 0x5DEECE66D
    for i in range(2500):
        x = (x * 0x5DEECE66D + 11) & ((1 << 96) - 1)
        seen.add(x & 0xFFF)
        table[i & 63] = (x >> 7) ^ i
        out.append(x.bit_count() + len(seen))
    return time.perf_counter() - t0
