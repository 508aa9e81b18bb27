"""Span tracer that instruments the bifurc package from outside.

``Tracer.install`` wraps every public function (except ``cli.main``) and every
public method of a public class defined in a ``bifurc.*`` module, then rebinds each wrapper at
every module attribute that still refers to the original. The rebinding
matters: ``cli`` imports ``numerical_hessian`` by name and ``hessian`` calls
``nll`` through its own binding, so patching only the defining module would
miss the hot calls. Properties and names starting with ``_`` are left alone,
except those listed in ``extra``.

Spans are kept in memory as ``[name, start, end, parent, note]`` lists and
only recorded on the installing thread of the installing process: forked
pool workers inherit the wrappers but their spans would be lost anyway.
"""

import functools
import importlib
import inspect
import os
import pkgutil
import sys
import threading
import time

NAME, START, END, PARENT, NOTE = range(5)
PACKAGE = "bifurc"
EXCLUDE = ("cli.main",)


class Tracer:
    """Collects nested spans around the wrapped callables of the bifurc package.

    ``extra`` names private callables to wrap as well (``"cli._parallel_map"``);
    ``notes`` maps a span name to a function of the call's arguments whose
    value is stored in the span's NOTE slot.
    """

    def __init__(self, extra=(), notes=None):
        self.extra = set(extra)
        self.notes = dict(notes or {})
        self.spans = []
        self.wrapped = []
        self._stack = []
        self._undo = []
        self._owner = None

    def _wrap(self, name, fn):
        spans, stack, note = self.spans, self._stack, self.notes.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if (os.getpid(), threading.get_ident()) != self._owner:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            if note is not None:
                span[NOTE] = note(*args, **kwargs)
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        self.wrapped.append(name)
        return traced

    def _wanted(self, short, attr):
        name = f"{short}.{attr}"
        if name in self.extra:
            return True
        return not attr.startswith("_") and name not in EXCLUDE

    def install(self):
        """Wrap and rebind; returns self. Call ``uninstall`` to undo."""
        if self._owner is not None:
            raise RuntimeError("tracer already installed")
        pkg = importlib.import_module(PACKAGE)
        for info in pkgutil.iter_modules(pkg.__path__):
            if info.name != "__main__":
                importlib.import_module(f"{PACKAGE}.{info.name}")
        prefix = PACKAGE + "."
        modules = {
            name: mod
            for name, mod in sorted(sys.modules.items())
            if name == PACKAGE or name.startswith(prefix)
        }
        replacement = {}
        for modname, mod in modules.items():
            short = modname[len(prefix):] if modname.startswith(prefix) else modname
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != modname:
                    continue
                if inspect.isfunction(obj) and self._wanted(short, attr):
                    replacement[obj] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj) and not attr.startswith("_"):
                    self._wrap_methods(f"{short}.{attr}", obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replacement:
                    setattr(mod, attr, replacement[obj])
                    self._undo.append((mod, attr, obj))
        self._owner = (os.getpid(), threading.get_ident())
        return self

    def _wrap_methods(self, qual, cls):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(member, (staticmethod, classmethod)):
                new = type(member)(self._wrap(f"{qual}.{attr}", member.__func__))
            elif inspect.isfunction(member):
                new = self._wrap(f"{qual}.{attr}", member)
            else:
                continue
            setattr(cls, attr, new)
            self._undo.append((cls, attr, member))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        self._owner = None

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def summarize(spans):
    """{name: {"calls", "total_s", "self_s"}} over all spans of each name."""
    table = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span[END] - span[START]
        row["self_s"] += own
    return table
