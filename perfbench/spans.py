"""Spans around the calls into each layer of paraposet, kept in memory.

``install`` replaces every public function of the traced modules, at
every place a module of the package refers to it, by a wrapper that
records a span: its name (``<module>.<function>``), the span that was
open when it was called, its self time (duration minus the time its
child spans cover) and, for generators and list results, the items it
produced. A generator's span stays open only while it runs, so the
consumer's work is not charged to the enumeration. The theorem checks
and their ``applies`` filters get spans of their own
(``harness.check.<id>``, ``harness.applies``). ``FinitePoset.meet`` and
``join`` are counted but get no span: they are called millions of times
and a span per call would swamp the run.

Spans are aggregated by name and by (parent, name) edge as they close,
and read out once the pass is over. Install only in a process that runs
traced passes: the wrappers are never removed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from dataclasses import replace
from time import perf_counter

LAYERS = ("cli", "harness", "universe", "ortho", "implication", "relative",
          "adjoint", "amalgam", "fileformat", "render")

# Derived tables counted by implication.tables_per_structure.
TABLES = ("implication.impl_I", "implication.impl_I2", "implication.sasaki_proj",
          "implication.sasaki_impl", "relative.impl_I3", "relative.impl_I4")

# Enumeration generators: self time, calls and items each.
ENUMERATORS = ("universe.bounded_posets", "universe.antitone_involutions",
               "universe.filter_involutions", "universe.involutions")

# Layer functions reported by self time and call count.
TIMED = ("universe.ortho_posets", "universe.sectioned_posets",
         "adjoint.omidentity_equiv", "adjoint.check_conditions", "adjoint.residuate",
         *TABLES,
         "amalgam.build_amalgam", "amalgam.classify_amalgam",
         "amalgam.cover_transfer", "amalgam.find_loops",
         "fileformat.load", "render.render_table", "render.export_dot")


def _item_n(item) -> int:
    """Size of a harness stream item: a structure or a (poset, inv) pair."""
    return item[0].n if isinstance(item, tuple) else item.n


class Tracer:
    def __init__(self):
        self.reset()

    def reset(self):
        self.stack = [["", 0.0]]         # the root frame stands for untraced time
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.items = Counter()
        self.edges = Counter()           # (parent name, name) -> calls
        self.items_at_n = Counter()      # (name, n) -> items, for the pinned counts
        self.calls_at_n = Counter()
        self.seen = Counter()            # (theorem id, n) -> stream items received
        self.counts = {"poset.meet": [0], "poset.join": [0]}
        self.structures = {}             # id -> structure a derived table was built for

    def _open(self, name, args):
        self.calls[name] += 1
        self.edges[self.stack[-1][0], name] += 1
        if args and type(args[0]) is int:
            self.calls_at_n[name, args[0]] += 1
            return args[0]
        return None

    def _close(self, frame, dt):
        self.stack.pop()
        self.stack[-1][1] += dt
        self.self_s[frame[0]] += dt - frame[1]

    def _resume(self, name, gen, n):
        try:
            while True:
                frame = [name, 0.0]
                self.stack.append(frame)
                t0 = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(frame, perf_counter() - t0)
                self.items[name] += 1
                if n is not None:
                    self.items_at_n[name, n] += 1
                yield item
        finally:
            gen.close()

    def wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                n = self._open(name, args)
                return self._resume(name, fn(*args, **kwargs), n)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open(name, args)
            frame = [name, 0.0]
            self.stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, perf_counter() - t0)
            if type(result) is list:
                self.items[name] += len(result)
            return result
        return wrapper

    def _table(self, fn):
        @functools.wraps(fn)
        def builder(structure, *args, **kwargs):
            self.structures[id(structure)] = structure
            return fn(structure, *args, **kwargs)
        return builder

    def _seen(self, tid, fn):
        def first(item):
            self.seen[tid, _item_n(item)] += 1
            return fn(item)
        return first

    def _count(self, name, fn):
        def counted(poset, x, y):
            self.counts[name][0] += 1
            return fn(poset, x, y)
        return counted

    # -- read-out ---------------------------------------------------------

    def layer_metrics(self, theorem_ids, wall):
        """Per-layer metrics of one pass whose timed calls took ``wall`` s."""
        m = {}
        for name in ENUMERATORS:
            m[f"{name}.s"] = (self.self_s[name], "s")
            m[f"{name}.calls"] = (self.calls[name], "count")
            m[f"{name}.items"] = (self.items[name], "count")
        m["universe.s"] = (_sum_prefix(self.self_s, "universe."), "s")
        m["universe.stream_passes"] = (sum(
            c for (parent, name), c in self.edges.items()
            if name == "universe.bounded_posets" and parent != name), "count")
        items = sum(self.seen.values())
        m["universe.items"] = (items, "count")
        for tid in theorem_ids:
            m[f"harness.check.{tid}.s"] = (self.self_s[f"harness.check.{tid}"], "s")
        m["harness.check.s"] = (_sum_prefix(self.self_s, "harness.check."), "s")
        m["harness.applies.s"] = (self.self_s["harness.applies"], "s")
        m["harness.applies.calls"] = (self.calls["harness.applies"], "count")
        m["harness.run_one.s"] = (self.self_s["harness.run_one"], "s")
        checked = _sum_prefix(self.calls, "harness.check.")
        m["harness.useful_ratio"] = (checked / items if items else 0.0, "ratio")
        for name in TIMED:
            m[f"{name}.s"] = (self.self_s[name], "s")
            m[f"{name}.calls"] = (self.calls[name], "count")
        m["poset.meet.calls"] = (self.counts["poset.meet"][0], "count")
        m["poset.join.calls"] = (self.counts["poset.join"][0], "count")
        tables = sum(self.calls[name] for name in TABLES)
        m["implication.tables_per_structure"] = (
            tables / len(self.structures) if self.structures else 0.0, "ratio")
        m["ortho.s"] = (_sum_prefix(self.self_s, "ortho."), "s")
        m["cli.s"] = (_sum_prefix(self.self_s, "cli."), "s")
        m["trace.wall_s"] = (wall, "s")
        m["trace.gap_s"] = (wall - sum(self.self_s.values()), "s")
        return m


def _sum_prefix(table, prefix):
    return sum(v for k, v in table.items() if k.startswith(prefix))


def install(tracer: Tracer) -> None:
    """Route every call into the traced layers through ``tracer``."""
    mods = {layer: importlib.import_module(f"paraposet.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer, mod in mods.items():
        for attr, fn in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__):
                wrapped[fn] = tracer.wrap(f"{layer}.{attr}", fn)
    for name in TABLES:
        layer, attr = name.split(".")
        fn = getattr(mods[layer], attr)
        wrapped[fn] = tracer._table(wrapped[fn])
    # ``from .x import f`` copies the reference, so patch every alias.
    for modname, mod in list(sys.modules.items()):
        if modname == "paraposet" or modname.startswith("paraposet."):
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrapped:
                    setattr(mod, attr, wrapped[val])
    preds = mods["ortho"].PREDICATES
    for key, fn in preds.items():
        preds[key] = wrapped.get(fn) or tracer.wrap(f"ortho.PREDICATES.{key}", fn)
    theorems = mods["harness"].THEOREMS
    for tid, th in theorems.items():
        check = tracer.wrap(f"harness.check.{tid}", th.check)
        if th.applies is None:
            theorems[tid] = replace(th, check=tracer._seen(tid, check))
        else:
            applies = tracer.wrap("harness.applies", th.applies)
            theorems[tid] = replace(th, check=check,
                                    applies=tracer._seen(tid, applies))
    poset_cls = importlib.import_module("paraposet.poset").FinitePoset
    poset_cls.meet = tracer._count("poset.meet", poset_cls.meet)
    poset_cls.join = tracer._count("poset.join", poset_cls.join)
