"""Span tracing from outside the library.

Each hook wraps one public function of ``fdmimo`` and is installed in every
``fdmimo`` module whose namespace holds that function object, which is where
the calling code looks the name up (``fdmimo.rates.draw_cn``,
``fdmimo.scenario.build_topology``, the package itself, ...).  A hook whose
module or function no longer exists marks its layer ``absent`` instead of
failing, so the benchmark keeps working when internal paths are renamed.

Spans (layer, start, end, parent span, extra count) stay in memory and are
written out as JSON lines when the run ends.  A layer's self time is its
span time minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from time import perf_counter


def _values(args, kwargs, result):
    return int(getattr(result, "size", 0))


def _trials(args, kwargs, result):
    return int(getattr(result, "n_trials", 0))


def _bytes_written(args, kwargs, result):
    path = kwargs.get("path", args[2] if len(args) > 2 else None)
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


# (layer, defining module, function, extra counter, extra counter's name)
HOOKS = (
    ("channel.draw_cn", "fdmimo.channel", "draw_cn", _values, "values"),
    ("channel.build_topology", "fdmimo.channel", "build_topology", None, None),
    ("channel.sample_hexagon", "fdmimo.channel", "sample_hexagon", None, None),
    ("channel.compose_large_scale", "fdmimo.channel", "compose_large_scale", None, None),
    ("rates.mc", "fdmimo.rates", "fd_rates_mc", _trials, "trials"),
    ("rates.mc", "fdmimo.rates", "tdd_rates_mc", _trials, "trials"),
    ("rates.dl_rates_fd_imperfect", "fdmimo.rates", "dl_rates_fd_imperfect", None, None),
    ("rates.per_cell_factors", "fdmimo.rates", "per_cell_factors", None, None),
    ("estimation.estimation_stats", "fdmimo.estimation", "estimation_stats", None, None),
    ("bounds.prop1_rates", "fdmimo.bounds", "prop1_rates", None, None),
    ("bounds.prop2_rates", "fdmimo.bounds", "prop2_rates", None, None),
    ("bounds.homogeneous_rates", "fdmimo.bounds", "homogeneous_rates", None, None),
    ("bounds.asymptotic_rates", "fdmimo.bounds", "asymptotic_rates", None, None),
    ("bounds.antenna_reduction_curve", "fdmimo.bounds", "antenna_reduction_curve",
     None, None),
    ("scenario.run_drop", "fdmimo.scenario", "run_drop", None, None),
    ("scenario.profile_from_topology", "fdmimo.scenario", "profile_from_topology",
     None, None),
    ("config.validate", "fdmimo.config", "validate", None, None),
    ("config.expand_homogeneous", "fdmimo.config", "expand_homogeneous", None, None),
    ("experiments.emit", "fdmimo.experiments", "emit", _bytes_written, "bytes"),
)
LAYERS = tuple(dict.fromkeys(h[0] for h in HOOKS))
EXTRA = {h[0]: h[4] for h in HOOKS if h[4]}
SELF_TIME = ("rates.mc",)


class Tracer:
    """Records spans around the hooked functions while installed."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.layers = tuple(dict.fromkeys(h[0] for h in hooks))
        self.spans = []           # (layer index, start, end, parent, extra)
        self.marks = []           # (segment label, first span index)
        self._stack = []
        self._patches = []        # (module, attribute, original, wrapper)
        self.absent = []

    def mark(self, label):
        self.marks.append((label, len(self.spans)))

    def _wrap(self, layer_idx, fn, extra):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[sid] = (layer_idx, t0, t1, parent, 0)
            if extra is not None:
                spans[sid] = (layer_idx, t0, t1, parent, extra(args, kwargs, result))
            return result
        return wrapper

    def install(self):
        """Patch every hook that exists; remember the layers that do not."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "fdmimo" or name.startswith("fdmimo."))]
        found = set()
        for layer, mod_name, fn_name, extra, _ in self.hooks:
            fn = getattr(sys.modules.get(mod_name), fn_name, None)
            if not callable(fn):
                continue
            found.add(layer)
            wrapper = self._wrap(self.layers.index(layer), fn, extra)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        self._patches.append((m, attr, fn, wrapper))
                        setattr(m, attr, wrapper)
        self.absent = [layer for layer in self.layers if layer not in found]

    def uninstall(self):
        for m, attr, fn, _ in reversed(self._patches):
            setattr(m, attr, fn)
        self._patches = []

    def enable(self, on: bool):
        """Switch the installed wrappers in or out without losing spans."""
        for m, attr, fn, wrapper in self._patches:
            setattr(m, attr, wrapper if on else fn)

    # -- aggregation --------------------------------------------------------

    def segments(self):
        """Map segment label -> (first span, end span)."""
        bounds = [i for _, i in self.marks] + [len(self.spans)]
        return {label: (bounds[k], bounds[k + 1])
                for k, (label, _) in enumerate(self.marks)}

    def totals(self, labels):
        """Per-layer calls, extra count, inclusive and self seconds over the
        spans of the given segments."""
        child = [0.0] * len(self.spans)
        for layer, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        seg = self.segments()
        out = {layer: {"calls": 0, "extra": 0, "s": 0.0, "self_s": 0.0}
               for layer in self.layers}
        for label in labels:
            lo, hi = seg[label]
            for sid in range(lo, hi):
                layer, t0, t1, _, extra = self.spans[sid]
                rec = out[self.layers[layer]]
                rec["calls"] += 1
                rec["extra"] += extra
                rec["s"] += t1 - t0
                rec["self_s"] += t1 - t0 - child[sid]
        return out

    def write(self, path):
        """Write the spans as JSON lines: a header naming the fields and the
        layers, then one array per span."""
        seg_of = {}
        for label, (lo, hi) in self.segments().items():
            for sid in range(lo, hi):
                seg_of[sid] = label
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["id", "layer", "start", "end", "parent",
                                            "extra", "segment"],
                                 "layers": list(self.layers)}) + "\n")
            for sid, (layer, t0, t1, parent, extra) in enumerate(self.spans):
                fh.write(json.dumps([sid, layer, round(t0, 7), round(t1, 7), parent,
                                     extra, seg_of.get(sid)]) + "\n")
