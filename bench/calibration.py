"""Machine-speed calibration for the benchmark's timings.

The machine the runs share changes speed by up to half over spans of
seconds to minutes, far more than the changes the benchmark must resolve.
A fixed snippet of interpreter work like the package's own (Fraction,
big-integer, float and dict operations), timed next to each measurement,
tracks that speed; ``rescale`` turns a measured time into the time on a
machine that runs the snippet in ``CALIBRATION_REF_MS``.  The snippet does
not use the package, so a change to the package moves rescaled times
exactly as it moves measured ones.
"""

import time
from fractions import Fraction

CALIBRATION_REF_MS = 2.5


def calibration_ms() -> float:
    """Snippet wall time in ms: the faster of two back-to-back runs, since
    the first run after the process sat waiting can find the core slow."""
    return min(_snippet_ms(), _snippet_ms())


def _snippet_ms() -> float:
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 50):
        acc = acc + Fraction(i, i + 7) * Fraction(3, i + 1)
    h, b, x = 0, 3 ** 200, 1.0
    for i in range(6000):
        h = (h * 31 + i) % 1000003
    for i in range(750):
        b = (b * 7 + i) % (10 ** 90 + 7)
    for i in range(1, 2500):
        x = (x * 1.000001 + i ** 0.5) % 1e6
    counts = {}
    for i in range(2500):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return (time.perf_counter() - t0) * 1e3


def rescale(seconds: float, snippet_ms: float) -> float:
    """`seconds`, measured while the snippet took `snippet_ms`, rescaled to
    reference speed."""
    return seconds * CALIBRATION_REF_MS / snippet_ms
