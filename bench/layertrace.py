"""Layer-boundary tracing of airyqc from outside the package.

``LayerTrace.install()`` replaces the public entry points of each layer
(the package modules) with wrappers, everywhere the name is bound: on the
class for methods, and in every ``airyqc`` module namespace and module-level
dict (``suites.SUITES``, ``cli._TABLE_BUILDERS``) for functions.  A wrapper
opens a span only when control crosses into a different layer than the one
on top of the stack, so DVV's own recursion through
``CorrelatorTable.correlator`` counts calls but adds no spans.  ``core``
helpers are never wrapped and so count in the layer that calls them.

A layer's self time is the duration of its spans minus the time covered by
their child spans.  Spans are kept in memory as
``[layer, entry, start, end, parent_index]`` and written out by the caller.
"""

from __future__ import annotations

import os
import sys
import time

LAYERS = ("correlators", "residues", "polynomials", "wkb", "suites", "cache", "cli")

# Counters reported for every run, zero when a layer is not reached.
COUNTERS = (
    "correlators.calls",
    "residues.cells",
    "residues.series_mul",
    "residues.series_add",
    "residues.residue_terms",
    "polynomials.step_calls",
    "polynomials.builder_calls",
    "polynomials.expanded_terms",
    "wkb.orders_checked",
    "suites.checks",
    "cache.bytes_read",
    "cache.bytes_written",
    "cache.records",
)


def _series_size(series):
    return sum(len(poly) for poly in series.terms.values())


# (layer, module, attribute path, counter bumped per call, before(trace, args), after(trace, args, result))
_ENTRIES = (
    ("correlators", "correlators", "CorrelatorTable.correlator", "correlators.calls", None, None),
    ("correlators", "correlators", "CorrelatorTable.fill_shell", "correlators.calls", None, None),
    ("residues", "residues", "eo_W", "residues.cells", None, None),
    ("residues", "residues", "eo_shell", None, None, None),
    ("residues", "residues", "ZSeries.__mul__", "residues.series_mul", None, None),
    ("residues", "residues", "ZSeries.__add__", "residues.series_add", None, None),
    (
        "residues",
        "residues",
        "ZSeries.residue",
        None,
        lambda t, a: t.bump("residues.residue_terms", _series_size(a[0])),
        None,
    ),
    ("polynomials", "polynomials", "omega_step", "polynomials.step_calls", None, None),
    ("polynomials", "polynomials", "Omega_step", "polynomials.step_calls", None, None),
    ("polynomials", "polynomials", "omega_from_correlators", "polynomials.builder_calls", None, None),
    ("polynomials", "polynomials", "tW_from_correlators", "polynomials.builder_calls", None, None),
    ("polynomials", "polynomials", "Omega_from_correlators", "polynomials.builder_calls", None, None),
    (
        "polynomials",
        "polynomials",
        "_OrbitPoly.expand",
        None,
        None,
        lambda t, a, r: t.bump("polynomials.expanded_terms", len(r)),
    ),
    ("wkb", "wkb", "quantum_curve_report", None, None, None),
    ("wkb", "wkb", "s_terms", None, None, None),
    ("wkb", "wkb", "s_term", None, None, None),
    ("wkb", "wkb", "verify_order", "wkb.orders_checked", None, None),
    *(
        ("suites", "suites", name, None, None, lambda t, a, r: t.bump("suites.checks", len(r)))
        for name in (
            "suite_dvv_eo",
            "suite_omega_rec",
            "suite_Omega_rec",
            "suite_d_lemma",
            "suite_quantum_curve",
            "suite_t_rec",
        )
    ),
    (
        "cache",
        "cache",
        "load_table",
        None,
        lambda t, a: t.bump("cache.bytes_read", os.path.getsize(a[0])),
        lambda t, a, r: t.bump("cache.records", len(r)),
    ),
    (
        "cache",
        "cache",
        "save_table",
        None,
        None,
        lambda t, a, r: (t.bump("cache.records", r), t.bump("cache.bytes_written", os.path.getsize(a[1]))),
    ),
    ("cli", "cli", "main", None, None, None),
)


class LayerTrace:
    """Spans and counters at airyqc's layer boundaries, for one process."""

    def __init__(self):
        self.clock = time.perf_counter
        self._undo = []
        self.reset()

    def reset(self):
        """Start a new measurement; installed wrappers stay in place."""
        self.stack = [["bench", 0.0, 0.0, -1]]  # layer, start, child time, span index
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.entry_s = {}
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.spans = []
        self.tables = []

    def bump(self, name, k=1):
        self.counts[name] += k

    def summary(self) -> dict:
        """Per-layer metrics of the measurement since the last reset."""
        out = {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS}
        out.update(self.counts)
        out["cache.load_s"] = self.entry_s.get("load_table", 0.0)
        out["cache.save_s"] = self.entry_s.get("save_table", 0.0)
        out["correlators.keys"] = sum(len(t) for t in self.tables)
        out["correlators.hits"] = sum(t.hits for t in self.tables)
        out["correlators.misses"] = sum(t.misses for t in self.tables)
        return out

    def _close(self, frame, entry, end):
        layer, start, child, index = frame
        duration = end - start
        self.self_s[layer] += duration - child
        self.entry_s[entry] = self.entry_s.get(entry, 0.0) + duration - child
        self.stack[-1][2] += duration
        self.spans[index][3] = end

    def _wrap(self, layer, entry, fn, counter, before, after):
        trace = self

        def wrapper(*args, **kwargs):
            if counter:
                trace.counts[counter] += 1
            if before:
                before(trace, args)
            stack = trace.stack
            if stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                start = trace.clock()
                index = len(trace.spans)
                trace.spans.append([layer, entry, start, None, stack[-1][3]])
                frame = [layer, start, 0.0, index]
                stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = trace.clock()
                    stack.pop()
                    trace._close(frame, entry, end)
            if after:
                after(trace, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every entry point; import the whole package first."""
        import airyqc.cli  # noqa: F401  (pulls in every layer)
        from airyqc.correlators import CorrelatorTable

        modules = [m for name, m in sys.modules.items() if name == "airyqc" or name.startswith("airyqc.")]
        for layer, module, path, counter, before, after in _ENTRIES:
            owner = sys.modules[f"airyqc.{module}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(layer, path.rsplit(".", 1)[-1], original, counter, before, after)
            if outer:
                self._set(owner, attr, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, name, wrapper)
                    elif isinstance(value, dict):
                        for key, item in list(value.items()):
                            if item is original:
                                self._undo.append((value.__setitem__, key, original))
                                value[key] = wrapper

        init = CorrelatorTable.__init__
        trace = self

        def register(table, *args, **kwargs):
            init(table, *args, **kwargs)
            trace.tables.append(table)

        self._set(CorrelatorTable, "__init__", register)

    def _set(self, owner, name, value):
        self._undo.append((lambda k, v, o=owner: setattr(o, k, v), name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self):
        while self._undo:
            setter, key, original = self._undo.pop()
            setter(key, original)
