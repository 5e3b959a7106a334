"""Host-speed index: how fast is this host right now, program aside?

The reference host is a 2-vCPU VM whose effective speed drifts by tens of
percent for minutes at a time with no steal time reported (a fixed pure-Python
loop took 0.067-0.106 s within 150 s; ten invocations of ``campaign_pull``
spread 40 % while ``load_pull``, run right after, spread 5 %).  The drift is
slow against one child (~5 s) and multiplies everything the child does, so
each child times a few fixed slices of benchmark-owned work right before and
right after its timed region and divides its times by their median, relative
to ``NOMINAL_S``.  Measured on 30 children per workload, a third of them
under two induced CPU hogs, taking the median of every five consecutive
children as one invocation: the quartile distance over the median was 40 %,
46 % and 36 % as measured against 2 %, 6 % and 6 % normalised
(``campaign_pull``, ``zoom_real``, ``load_pull``); with the host quiet the
two agree to within their noise.

The index is damped: it is the slice ratio to the power ``DAMPING``.  Induced
hogs and the slow drift slow slices and workloads alike, but the rest of the
host's own noise does not: it comes in bursts of a second or so (the slice
ratio of consecutive children read 1.13, 1.58, 1.13), and six 80 ms slices
at the edges of a 2-3 s run see only part of what the run saw.  Measured on
14-20 children of one seed per workload while the slice ratio ranged over
1.05-1.97, the
least-squares exponent of measured time against slice ratio was 0.83, 0.04,
0.54, 0.49 and 0.50 for ``wall_s`` (``campaign_pull``, ``load_pull``,
``survey_dag``, ``zoom_real``, ``load_push_memo``; 0.69 on a second set of
the last) and 0.31-0.48 for ``setup_s``.  The standard deviation of the log
of a child's time was, in the same order,

    as measured     0.121 0.082 0.097 0.104 0.101   setup 0.080-0.104
    exponent 1      0.082 0.128 0.090 0.108 0.101   setup 0.090-0.142
    exponent 0.5    0.088 0.095 0.067 0.057 0.062   setup 0.068-0.082

so dividing by the full ratio was no better than not dividing at all on that
day, and half of it was better than both on eight columns of ten and the
worst on none.  Under an induced hog the damped index leaves the square root
of the slowdown in.

A slice mixes what the workloads are made of: interpreter work with a
generator resume, dict and list traffic per step, and numpy FFTs with array
arithmetic.  It never calls the program, so a change to the program cannot
move the index.
"""

from __future__ import annotations

import statistics
import time
from typing import List

__all__ = ["NOMINAL_S", "DAMPING", "SLICES", "calibrate", "index"]

#: Median slice time on the reference host with nothing else running; times
#: are reported in seconds of a host running at this speed.
NOMINAL_S = 0.080

#: Share (in the exponent) of the slices' slowdown that is taken out of the
#: measured times; see the evidence above.
DAMPING = 0.5

#: Slices timed on each side of the timed region.
SLICES = 3


def _count(n: int):
    for i in range(n):
        yield i


def _slice_seconds(field) -> float:
    import numpy as np

    started = time.perf_counter()
    acc = 0.0
    table = {}
    items = []
    for i in _count(250_000):
        table[i & 1023] = acc
        items.append(i)
        if len(items) > 256:
            items.clear()
        acc += (i * 0.5) % 7.0
    for _ in range(15):
        spectrum = np.fft.rfftn(field)
        back = np.fft.irfftn(spectrum * 0.5, field.shape)
        acc += float((back * field + 1.0).sum())
    return time.perf_counter() - started


def calibrate(slices: int = SLICES) -> List[float]:
    """Time ``slices`` fixed slices of work, back to back."""
    import numpy as np

    field = np.random.default_rng(0).random((48, 48, 48))
    return [_slice_seconds(field) for _ in range(slices)]


def index(slice_times: List[float]) -> float:
    """Host-speed index: 1.0 at nominal speed, ``1.3 ** DAMPING`` when the
    slices run 30 % slower."""
    return (statistics.median(slice_times) / NOMINAL_S) ** DAMPING
