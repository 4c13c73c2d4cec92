"""Spans around the calls into each layer of ``mubasis``, kept in memory.

``install`` wraps the public functions in ``TARGETS`` and replaces every
binding of them in the loaded ``mubasis`` modules, because names imported
with ``from .grobner import buchberger`` are bound again in the importing
module.  ``CALL_SITES`` adds a span named after one importing module on
top of the wrapper there.  The returned handle restores every original.
No file of the library is changed.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager

# (defining module, attribute, span name).  ``PolyMatrix.det`` is a method.
TARGETS = [
    ("mubasis.cli", "run", "cli.run"),
    ("mubasis.parser", "parse_tuple", "parser.parse_tuple"),
    ("mubasis.pipeline", "compute_mu_basis", "pipeline.compute_mu_basis"),
    ("mubasis.pipeline", "verify_mu_basis", "pipeline.verify_mu_basis"),
    ("mubasis.grobner", "free_resolution", "grobner.free_resolution"),
    ("mubasis.grobner", "buchberger", "grobner.buchberger"),
    ("mubasis.grobner", "syzygy_generators", "grobner.syzygy_generators"),
    ("mubasis.grobner", "minimal_generators", "grobner.minimal_generators"),
    ("mubasis.grobner", "modules_equal", "grobner.modules_equal"),
    ("mubasis.bounds", "report_for_resolution", "bounds.report_for_resolution"),
    ("mubasis.quillen_suslin", "complete_columns", "quillen_suslin.complete_columns"),
    ("mubasis.arith", "mat_inverse", "arith.mat_inverse"),
    ("mubasis.arith", "gcd_many", "arith.gcd_many"),
    ("mubasis.arith", "PolyMatrix.det", "arith.det"),
]

# (importing module, attribute, span name): every call to free_resolution
# from bounds builds the minimal resolution (fixed_first_map=False).
CALL_SITES = [
    ("mubasis.bounds", "free_resolution", "bounds.minimal_resolution"),
]


def _attrs(name, args, result):
    """Values recorded on a span besides its times."""
    if name == "arith.mat_inverse":
        return {"n": args[0].rows}
    if name == "quillen_suslin.complete_columns":
        return {"deg_M": result.deg_M}
    return None


class Tracer:
    """In-memory span store.

    A span is a list [name, start, end, parent, input, outermost, child_s,
    attrs]: ``outermost`` is False when a span of the same name encloses it,
    ``child_s`` the summed duration of its direct children.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._active = {}
        self.input_id = None

    def call(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        sid = len(self.spans)
        depth = self._active.get(name, 0)
        span = [name, 0.0, 0.0, parent, self.input_id, depth == 0, 0.0, None]
        self.spans.append(span)
        self._stack.append(sid)
        self._active[name] = depth + 1
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            self._active[name] = depth
            if parent >= 0:
                self.spans[parent][6] += span[2] - span[1]
        span[7] = _attrs(name, args, result)
        return result

    @contextmanager
    def input(self, input_id):
        """Root span of one benchmark input; spans inside carry its id."""
        self.input_id = input_id
        try:
            yield
        finally:
            self.input_id = None

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, t0, t1, parent, inp, _, _, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "input": inp,
                                     "attrs": attrs}) + "\n")


def _wrap(tracer, fn, name):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    return wrapper


def _library_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "mubasis" or n.startswith("mubasis."))]


class Installed:
    """Handle of installed wrappers; ``restore`` puts every original back."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer) -> Installed:
    handle = Installed()
    for modname, _, _ in TARGETS + CALL_SITES:
        importlib.import_module(modname)
    modules = _library_modules()
    try:
        for modname, attr, name in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = owner.__dict__[cls_name]
                handle.set(owner, attr, _wrap(tracer, owner.__dict__[attr], name))
                continue
            original = owner.__dict__[attr]
            wrapper = _wrap(tracer, original, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        handle.set(mod, key, wrapper)
        for modname, attr, name in CALL_SITES:
            owner = sys.modules[modname]
            handle.set(owner, attr, _wrap(tracer, owner.__dict__[attr], name))
    except BaseException:
        handle.restore()
        raise
    return handle


def layer_totals(tracer: Tracer) -> dict:
    """Per span name: outermost seconds, calls, self seconds, attribute lists."""
    out = {}
    for name, t0, t1, _, _, outermost, child_s, attrs in tracer.spans:
        row = out.setdefault(name, {"s": 0.0, "calls": 0, "self_s": 0.0, "attrs": []})
        row["calls"] += 1
        if outermost:
            row["s"] += t1 - t0
        row["self_s"] += (t1 - t0) - child_s
        if attrs:
            row["attrs"].append(attrs)
    return out
