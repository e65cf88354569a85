"""Spans around the public functions and methods of every cubicmotives module.

``Tracer.install`` replaces each public module-level function (in every
namespace that imported it) and each public method of the package's classes
with a wrapper.  Inside ``run_item`` the wrapper records calls, self time and
outermost inclusive time under ``<module>.<name>`` or
``<module>.<Class>.<name>``, on the clock the tracer is given; outside items
it only forwards the call.
Private helpers are not wrapped, so their time falls into the public caller's
self time.  Spans are aggregated in memory rather than stored one by one;
``restore`` puts the original callables back.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict

# dunder methods that carry real work in this package
_DUNDERS = {"__init__", "__post_init__", "__call__", "__add__", "__sub__", "__mul__",
            "__neg__", "__eq__", "__ne__"}


class _Rec:
    __slots__ = ("module", "calls", "self_s", "total_s", "active")

    def __init__(self, module):
        self.module = module
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.active = 0


class Tracer:
    def __init__(self, package: str, clock, extra_namespaces=(), repeat_keys=None):
        self.package = package
        self.clock = clock
        self.extra = list(extra_namespaces)
        self.repeat_keys = dict(repeat_keys or {})
        self.recs = {}
        self.repeats = defaultdict(int)
        self._seen = defaultdict(set)
        self._stack = [0.0]
        self._undo = []
        self.item_s = 0.0
        self.other_s = 0.0
        self.recording = False

    # --- installation ----------------------------------------------------------

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if name == self.package or name.startswith(self.package + ".")]

    def _span(self, name, fn):
        rec = self.recs.setdefault(name, _Rec(name.split(".", 1)[0]))
        stack, clock = self._stack, self.clock
        keyfn = self.repeat_keys.get(name)
        seen = self._seen[name]
        repeats = self.repeats

        def span(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            if keyfn is not None:
                key = keyfn(*args, **kwargs)
                if key in seen:
                    repeats[name] += 1
                seen.add(key)
            rec.active += 1
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                rec.self_s += dt - stack.pop()
                stack[-1] += dt
                rec.calls += 1
                rec.active -= 1
                if not rec.active:
                    rec.total_s += dt

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", name)
        return span

    def install(self):
        wrapped = {}  # id(original function) -> wrapper
        for mod in self._modules():
            short = mod.__name__.rsplit(".", 1)[-1]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._span(f"{short}.{name}", obj)
                elif inspect.isclass(obj):
                    self._install_class(short, obj)
        for ns in self._modules() + self.extra:
            for name, obj in list(vars(ns).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    setattr(ns, name, wrapped[id(obj)])
                    self._undo.append((ns, name, obj))

    def _install_class(self, short, cls):
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(val, (classmethod, staticmethod)):
                new = type(val)(self._span(name, val.__func__))
            elif inspect.isfunction(val):
                new = self._span(name, val)
            else:
                continue
            setattr(cls, attr, new)
            self._undo.append((cls, attr, val))

    def restore(self):
        for ns, name, obj in reversed(self._undo):
            setattr(ns, name, obj)
        self._undo.clear()

    # --- items -------------------------------------------------------------------

    def run_item(self, fn, *args):
        """Run one item as the root span; repeats are counted within one item."""
        for seen in self._seen.values():
            seen.clear()
        self._stack.append(0.0)
        self.recording = True
        t0 = self.clock()
        try:
            return fn(*args)
        finally:
            dt = self.clock() - t0
            self.recording = False
            self.other_s += dt - self._stack.pop()
            self.item_s += dt
