"""The reference kernel: the unit in which job costs are reported.

A fixed pure-Python loop of a few milliseconds: small-int arithmetic on
tuples, a dict and a set, then a short run of ``Fraction`` arithmetic,
the same kinds of work the program does.  The benchmark times it right
before and right after every job; a job's cost is its wall time divided
by the mean of the two, in units of ``ref``.  When the host runs slower or
faster for a while, job and kernel slow down together and the cost stays
put.  The ``Fraction`` part is there because it tracks the program's
slowdowns better than the small-int part alone: over 150 s of
eigen-relations passes, the pass-to-pass spread of the summed costs was
3.3 % with both parts, 4.2 % with the small-int part alone and 5.2 % for
raw wall time.

This code is frozen: any change to it changes the unit, and costs measured
before and after the change can no longer be compared.
"""

from fractions import Fraction
from time import perf_counter

KERNEL_RESULT = 532902


def reference_kernel() -> int:
    table = {}
    seen = set()
    acc = 0
    for i in range(2000):
        key = (i % 17, i % 23)
        v = table.get(key, 0) + (i * 7 + 3) % 101
        table[key] = v
        seen.add(v & 255)
        acc += len(seen) + key[0] * key[1]
    q = Fraction(0)
    for i in range(1, 130):
        q += Fraction(i * 7 + 1, i + 3) ** 2 - Fraction(i, 11)
        acc += q.numerator % 97
    return acc


def time_kernel() -> float:
    """Seconds one run of the kernel takes; checks the kernel's result."""
    t0 = perf_counter()
    out = reference_kernel()
    t1 = perf_counter()
    if out != KERNEL_RESULT:
        raise RuntimeError(f"reference kernel returned {out}, not {KERNEL_RESULT}")
    return t1 - t0
