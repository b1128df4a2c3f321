"""Span tracer for the benchmark's traced runs.

Each traced layer is a public function of the package, named by the
module that defines it (`phonon.effective_isc_rates`). The tracer wraps
it under every module attribute of the loaded package that holds it,
whatever the attribute's name (the same function can sit under several
modules, for example `closedform.fluorescence_a12` and the
`phonon.fluorescence_a12` binding that `effective_isc_rates` calls),
records one span per call and restores the originals afterwards, so
untraced items run the unmodified code. A layer that no longer exists
under its name makes `install` fail rather than read 0.

A span is (name, start, end, parent index); self time is a span's
duration minus the durations of its direct child spans. Spans stay in
memory and are summarised per item.
"""

import sys
import time
from collections import defaultdict

from nvphonon import verify


def _fit_gamma_a1_extras(args, kwargs, result):
    points = kwargs.get("points", args[0] if args else ())
    return {"iterations": result.iterations,
            "temperatures": len({point[0] for point in points})}


# (span name "module.function", extras recorded from the call's result)
TARGETS = (
    ("synth.generate", None),
    ("closedform.fluorescence_a12", None),
    ("closedform.rabi_fit_model", None),
    ("estimate.nlls", None),
    ("estimate.fit_exponential_window", None),
    ("estimate.fit_gamma_a1", _fit_gamma_a1_extras),
    ("estimate.fit_rabi_trace", None),
    ("phonon.effective_isc_rates", None),
    ("phonon.crossing_ratio", None),
    ("dynamics.evolve_rates", None),
    ("dynamics.evolve_lindblad", None),
    ("cli.parse_config", None),
    ("cli.load_trace", None),
    ("cli.write_trace_csv", None),
)


def _package_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None and (name == "nvphonon" or name.startswith("nvphonon."))]


class Tracer:
    """Records spans while installed; `install`/`uninstall` bracket an item."""

    def __init__(self):
        self.spans = []
        self.extras = {}
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name, extras=None):
        spans, stack, recorded = self.spans, self._stack, self.extras

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if extras is not None:
                recorded[index] = extras(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, module, attribute, value):
        self._saved.append((module, attribute, getattr(module, attribute)))
        setattr(module, attribute, value)

    def install(self):
        modules = _package_modules()
        for name, extras in TARGETS:
            home, attribute = name.split(".")
            fn = getattr(sys.modules[f"nvphonon.{home}"], attribute)
            traced = self._wrap(fn, name, extras)
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, binding, traced)
        # verify.run_checks iterates the module-level CHECKS tuple
        self._patch(verify, "CHECKS", tuple(
            (check, self._wrap(fn, f"verify.{check}")) for check, fn in verify.CHECKS))

    def uninstall(self):
        while self._saved:
            module, attribute, original = self._saved.pop()
            setattr(module, attribute, original)

    def summarise(self, first, wall):
        """Per-layer figures of the spans recorded since index `first`.

        Returns {span name: {"calls", "self_s", "total_s"}}, the share of
        `wall` covered by top-level spans, and the recorded extras.
        """
        spans = self.spans[first:]
        child_time = defaultdict(float)
        for name, start, end, parent in spans:
            if parent >= first:
                child_time[parent] += end - start
        layers = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        covered = 0.0
        for offset, (name, start, end, parent) in enumerate(spans):
            duration = end - start
            layer = layers[name]
            layer["calls"] += 1
            layer["total_s"] += duration
            layer["self_s"] += duration - child_time[first + offset]
            if parent < first:
                covered += duration
        extras = {index: value for index, value in self.extras.items() if index >= first}
        return dict(layers), covered / wall, extras

    def child_calls(self, parent, name):
        """Number of direct children of span `parent` named `name`."""
        return sum(1 for span in self.spans[parent + 1:]
                   if span[3] == parent and span[0] == name)
