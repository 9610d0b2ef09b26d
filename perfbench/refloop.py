"""The reference loop that defines the benchmark's time unit, ``ref``.

One ref is the median duration of :func:`ref_once`, a fixed amount of
pure-Python work shaped like the package's innermost loop, the product of
two sparse polynomials whose exponent tuples are built by a generator
expression and looked up in a normal-form table.  Dividing a measured time
by the ref taken in the same stretch of the run cancels most of the drift
of a shared machine, which slows both alike.

This module imports nothing from ``bottcoh``: a change to the package
must never change the unit it is measured in.
"""

from __future__ import annotations

from itertools import product
from time import perf_counter

# a fixed amount of work, never recalibrated: about 1 ms (0.7 to 1.5 ms) on
# a 2-core x86-64 container running CPython 3.11
_LEFT = {(i, j, k): i - 2 * j + k + 1 for i in range(3) for j in range(3) for k in range(3)}
_RIGHT = {(i, j, k): i * j - k + 2 for i in range(3) for j in range(3) for k in range(2)}
_NORMAL_FORM = {
    (p, q, r): ({(p, q, r - 2): 1, (min(p + 1, 4), q, r - 1): -1, (p, min(q + 1, 4), 0): 2}
                if r >= 2 else {(p, q, r): 1})
    for p, q, r in product(range(5), range(5), range(4))
}
REF_CHECKSUM = 2704


def ref_once() -> int:
    """One pass of the reference work; returns a checksum."""
    out: dict = {}
    for e1, c1 in _LEFT.items():
        for e2, c2 in _RIGHT.items():
            c = c1 * c2
            e = tuple(x + y for x, y in zip(e1, e2))
            for mono, d in _NORMAL_FORM[e].items():
                out[mono] = out.get(mono, 0) + c * d
    return sum(out.values()) + 7 * len(out)


def ref_sample() -> float:
    """Seconds taken by one reference loop."""
    t0 = perf_counter()
    checksum = ref_once()
    elapsed = perf_counter() - t0
    if checksum != REF_CHECKSUM:
        raise RuntimeError(f"reference loop checksum {checksum} != {REF_CHECKSUM}")
    return elapsed
