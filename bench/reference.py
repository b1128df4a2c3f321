"""The reference unit ("ref") that item times are divided by.

One call of `reference()` is a fixed computation, timed immediately
before every timed item. Dividing an item's wall time by the wall time of
the reference run just before it cancels most of the host's speed drift
(frequency scaling, neighbours on a shared machine), which raw wall time
cannot survive on a small shared host.

The computation mixes the two kinds of work the program does: small
numpy array operations inside a Python loop (a damped Gauss-Newton fit
of an exponential, like the program's lifetime fits) and pure-Python
float formatting and parsing (like its CSV I/O). It uses only Python and
numpy, never the package under test, and its size is fixed here so that
it is the same work on every commit: about a tenth of a
`gamma_a1_recovery` item.
"""

import numpy as np

REPEATS = 64

_TIMES = 4.0 + 0.25 * np.arange(461)
_DATA = 0.7 * np.exp(-0.184 * _TIMES) * (1.0 + 0.01 * np.sin(3.0 * _TIMES))


def _fit_exponential(iterations=12):
    amplitude, rate = 1.0, 0.1
    for _ in range(iterations):
        decay = np.exp(-rate * _TIMES)
        model = amplitude * decay
        jac = np.stack([decay, -_TIMES * model], axis=1)
        normal = jac.T @ jac
        step = np.linalg.solve(normal + 1e-9 * np.diag(np.diag(normal)),
                               jac.T @ (_DATA - model))
        amplitude += step[0]
        rate += step[1]
    return amplitude, rate


def _format_and_parse(rows=120):
    text = "\n".join(f"{t:.17g},{y:.17g}"
                     for t, y in zip(_TIMES[:rows].tolist(), _DATA[:rows].tolist()))
    return sum(float(line.split(",")[1]) for line in text.splitlines())


def reference():
    """Run the fixed reference computation once; returns a checksum."""
    total = 0.0
    for _ in range(REPEATS):
        amplitude, rate = _fit_exponential()
        total += amplitude + rate + _format_and_parse()
    return total
