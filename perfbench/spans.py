"""In-memory spans around the calls into each cohlogic module's public
functions, and the per-layer metrics computed from them.

A span records its name, start, end, the span open when it began (its
parent) and an optional tag taken from the return value.  Spans are kept in
a list and written out once, when the traced process ends.

Functions imported by name into other modules (``enumerate_models``,
``enum_formulas``, ``compute_typespace``, ...) are replaced at every module
attribute that refers to them, so a span opens wherever a caller looks
them up.  Hot helpers such as ``normalize`` and ``denote`` are not wrapped:
their per-call cost is close to the cost of a span.
"""

import functools
import importlib
import json
import time


def _kind(out):
    return type(out).__name__


# (module, function, tag of the return value)
SPANNED = (
    ("syntax", "enum_formulas", len),
    ("semantics", "enumerate_models", len),
    ("calculus", "entails", _kind),
    ("calculus", "prove", None),
    ("calculus", "find_countermodel", None),
    ("calculus", "check_derivation", None),
    ("calculus", "check_derivation_reason", None),
    ("typespace", "compute_typespace", None),
    ("typespace", "check_functor_bc", None),
    ("internal_logic", "export_presentation", None),
    ("internal_logic", "th_of", None),
    ("internal_logic", "induced_models", None),
    ("internal_logic", "roundtrip_theory", None),
    ("internal_logic", "roundtrip_functor", None),
    ("lattice", "all_dist_lattices", len),
    ("lattice", "all_posets", len),
    ("lattice", "duality_roundtrip_lattice", None),
    ("lattice", "duality_roundtrip_poset", None),
)

MODULES = ("syntax", "semantics", "calculus", "typespace", "internal_logic",
           "lattice", "cli")


class Tracer:
    """Collects spans in memory; ``records`` holds
    ``[name, start, end, parent index or None, tag]`` per span."""

    def __init__(self):
        self.records = []
        self._open = []

    def wrap(self, name, fn, tag=None):
        records, stack = self.records, self._open

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            rec = [name, time.perf_counter(), None,
                   stack[-1] if stack else None, None]
            stack.append(len(records))
            records.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = time.perf_counter()
            if tag is not None:
                rec[4] = tag(out)
            return out

        return spanned

    def instrument(self):
        """Replace every spanned function at every cohlogic module
        attribute that refers to it."""
        mods = [importlib.import_module(f"cohlogic.{m}") for m in MODULES]
        by_name = {m.__name__.rsplit(".", 1)[1]: m for m in mods}
        for mod_name, fn_name, tag in SPANNED:
            original = getattr(by_name[mod_name], fn_name)
            wrapped = self.wrap(f"{mod_name}.{fn_name}", original, tag)
            for m in mods:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapped)

    def dump(self, path, **extra):
        with open(path, "w") as fh:
            json.dump(dict(extra, spans=self.records), fh)


def self_times(records):
    """Per-span self time: duration minus the time its direct children
    cover.  Children run inside their parent on one thread, so they do not
    overlap and their durations add up."""
    child = [0.0] * len(records)
    for name, start, end, parent, _ in records:
        if parent is not None:
            child[parent] += end - start
    return [end - start - child[i]
            for i, (_, start, end, _, _) in enumerate(records)]


def layer_metrics(traces):
    """Per-layer metrics from the span files of one pass.

    ``traces`` is a list of dicts as written by ``Tracer.dump``, each with
    ``spans``, ``import_s`` and ``normalize_cache``."""
    self_s, calls, tags_sum = {}, {}, {}
    verdicts = {"Proved": 0, "Refuted": 0, "Unknown": 0}
    unknown_s = 0.0
    import_s = 0.0
    cache = 0
    for tr in traces:
        recs = tr["spans"]
        import_s += tr.get("import_s", 0.0)
        cache = max(cache, tr.get("normalize_cache", 0))
        for (name, start, end, _, tag), own in zip(recs, self_times(recs)):
            self_s[name] = self_s.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
            if isinstance(tag, int):
                tags_sum[name] = tags_sum.get(name, 0) + tag
            elif name == "calculus.entails":
                verdicts[tag] += 1
                if tag == "Unknown":
                    unknown_s += end - start

    def s(name):
        return self_s.get(name, 0.0)

    def total(name):
        return sum(end - start for tr in traces
                   for (n, start, end, _, _) in tr["spans"] if n == name)

    def rate(name):
        t = total(name)
        return tags_sum.get(name, 0) / t if t > 0 else 0.0

    return {
        "cli.import_s": (import_s, "s"),
        "cli.main_s": (s("cli.main"), "s"),
        "syntax.enum_formulas_s": (s("syntax.enum_formulas"), "s"),
        "syntax.enum_formulas_calls": (calls.get("syntax.enum_formulas", 0),
                                       "count"),
        "syntax.formulas_per_s": (rate("syntax.enum_formulas"), "1/s"),
        "syntax.normalize_cache_entries": (cache, "count"),
        "semantics.enumerate_models_s": (s("semantics.enumerate_models"), "s"),
        "semantics.enumerate_models_calls": (
            calls.get("semantics.enumerate_models", 0), "count"),
        "semantics.models_per_s": (rate("semantics.enumerate_models"), "1/s"),
        "calculus.entails_s": (s("calculus.entails"), "s"),
        "calculus.prove_s": (s("calculus.prove"), "s"),
        "calculus.find_countermodel_s": (s("calculus.find_countermodel"), "s"),
        "calculus.check_derivation_s": (
            s("calculus.check_derivation")
            + s("calculus.check_derivation_reason"), "s"),
        "calculus.decided": (verdicts["Proved"] + verdicts["Refuted"], "count"),
        "calculus.unknown": (verdicts["Unknown"], "count"),
        "calculus.unknown_s": (unknown_s, "s"),
        "typespace.compute_typespace_s": (s("typespace.compute_typespace"), "s"),
        "typespace.compute_typespace_calls": (
            calls.get("typespace.compute_typespace", 0), "count"),
        "typespace.check_functor_bc_s": (s("typespace.check_functor_bc"), "s"),
        "internal_logic.export_presentation_s": (
            s("internal_logic.export_presentation"), "s"),
        "internal_logic.th_of_s": (s("internal_logic.th_of"), "s"),
        "internal_logic.induced_models_s": (
            s("internal_logic.induced_models"), "s"),
        "internal_logic.roundtrip_theory_s": (
            s("internal_logic.roundtrip_theory"), "s"),
        "internal_logic.roundtrip_functor_s": (
            s("internal_logic.roundtrip_functor"), "s"),
        "lattice.all_dist_lattices_s": (s("lattice.all_dist_lattices"), "s"),
        "lattice.all_posets_s": (s("lattice.all_posets"), "s"),
        "lattice.duality_roundtrip_s": (
            s("lattice.duality_roundtrip_lattice")
            + s("lattice.duality_roundtrip_poset"), "s"),
    }
