"""Span tracing of the bsdh layers from outside the package.

The tracer patches every public function of each layer module (the names
in the module's ``__all__``) plus a short list of public methods, both in
the defining module and at every ``from ... import`` binding of the same
function object in any loaded ``bsdh`` module.  Functions defined in one
module and called through another (``autgroup.demazure_step``,
``tangent.euler_char``, ``bsdh.classify``, ...) would otherwise escape the
trace.  ``uninstall`` puts every original back, so untraced passes run the
unmodified package.

A span is (name, start, end, parent span, item id).  While the run lasts
only name, start and end are stored, in flat arrays, when a span closes:
that keeps the cost per span, which is the tracing overhead, small.  The
code is single-threaded, so spans nest properly: a span's parent is the
innermost span that encloses it, and its item is the item that was
running when it started.  Both are derived when the spans are analysed
or written out by ``write_tsv`` at exit.  Self time is a span's duration
minus the time covered by its children, which never overlap.

Generator functions (``weyl.reduced_words``) return immediately when
called, so their work is recorded as one span per ``next()`` and the
yields are counted as words streamed.

Counters that need the arguments or the result of a call (string terms of
a Demazure step, words bucketed, completions checked) are computed in
hooks that run inside their own ``trace.hook`` span, so their cost is
not charged to any layer.
"""

from __future__ import annotations

import bisect
import gzip
import inspect
import sys
import time
from array import array

LAYERS = ("roots", "weyl", "characters", "tangent", "autgroup", "cli")

# Public methods traced in addition to the module-level functions of
# ``__all__``: constructors and the report serialisers the CLI calls, and
# the Weyl-element product that dominates ``weyl``.
METHODS = {
    "roots": {"RootSystem": ("of",)},
    "weyl": {"WeylElement": ("__matmul__",)},
    "characters": {"Character": ("to_json",)},
    "tangent": {"BsdhWord": ("__init__",),
                "TangentReport": ("to_json",),
                "KernelReport": ("to_json",)},
    "autgroup": {"AutReport": ("to_json",),
                 "W0Classes": ("to_json",),
                 "VerifyReport": ("to_json",)},
}

STEP = "characters.demazure_step"
MATMUL = "weyl.WeylElement.__matmul__"
STREAM = "weyl.reduced_words"
HOOK = "trace.hook"

COUNTS = ("string_terms", "terms_out", "max_support", "words_streamed",
          "words_bucketed", "completions_checked")


def string_terms(i: int, chi) -> int:
    """Terms the three-branch string sum emits for D_i applied to chi."""
    total = 0
    for lam in chi.terms:
        n = lam[i]
        if n >= 0:
            total += n + 1
        elif n <= -2:
            total += -n - 1
    return total


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("H")     # per span, in the order spans close
        self.start = array("d")
        self.end = array("d")
        self.item_start = array("d")   # per item, in the order items start
        self.active = False
        self.counts = dict.fromkeys(COUNTS, 0)
        self.systems: list = []   # RootSystems built while active
        self._patches: list = []
        self._hook_id = self._name_id(HOOK)
        self._record = self._recorder()

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _recorder(self):
        """record(name id, start): store a span that ends now."""
        add_name, add_start, add_end = self.name.append, self.start.append, self.end.append
        clock = time.perf_counter

        def record(nid: int, t0: float) -> None:
            add_end(clock())
            add_start(t0)
            add_name(nid)
        return record

    def begin_item(self) -> None:
        """Spans that start from now on belong to the next item (items are
        numbered from 0 across all traced passes)."""
        self.item_start.append(time.perf_counter())

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span of the given name (used for cli.main)."""
        if not self.active:
            return fn(*args, **kwargs)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._record(self._name_id(name), t0)

    def reset_counts(self) -> None:
        for key in self.counts:
            self.counts[key] = 0

    def mark(self) -> int:
        """Index of the next span; spans from here on belong to a new pass."""
        return len(self.name)

    # -- hooks ----------------------------------------------------------------

    def _after_step(self, args, kwargs, result) -> None:
        _rs, i, chi = args
        c = self.counts
        c["string_terms"] += string_terms(i, chi)
        c["terms_out"] += len(result.terms)
        c["max_support"] = max(c["max_support"], len(chi.terms),
                               len(result.terms))

    def _after_classify(self, args, kwargs, result) -> None:
        self.counts["completions_checked"] += result.completions_checked

    def _after_classify_all(self, args, kwargs, result) -> None:
        self.counts["words_bucketed"] += sum(result.buckets.values())

    def _after_build(self, args, kwargs, result) -> None:
        self.systems.append(result)

    # -- patching -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        hooks = {STEP: self._after_step,
                 "autgroup.classify": self._after_classify,
                 "autgroup.classify_all_w0": self._after_classify_all,
                 "roots.build_root_system": self._after_build}
        hook = hooks.get(name)
        hook_id = self._hook_id
        tracer = self
        record = self._record
        clock = time.perf_counter

        if inspect.isgeneratorfunction(fn):
            counts = self.counts

            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)

                def stream():
                    while True:
                        traced = tracer.active
                        t0 = clock()
                        try:
                            value = next(inner)
                        except StopIteration:
                            return
                        finally:
                            if traced:
                                record(nid, t0)
                        if traced and name == STREAM:
                            counts["words_streamed"] += 1
                        yield value
                return stream()
            return gen_wrapper

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record(nid, t0)
            if hook is not None:
                t0 = clock()
                hook(args, kwargs, result)
                record(hook_id, t0)
            return result

        return wrapper

    def install(self, lib) -> None:
        """Patch the layer modules of the imported package ``lib``."""
        if self._patches:
            return
        loaded = [m for n, m in sorted(sys.modules.items())
                  if m is not None and (n == "bsdh" or n.startswith("bsdh."))]
        for layer in LAYERS:
            mod = getattr(lib, layer, None)
            if mod is None:
                continue
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for m in loaded:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            self._patches.append((m, key, value))
                            setattr(m, key, wrapped)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    name = f"{layer}.{cls_name}.{meth}"
                    if isinstance(raw, classmethod):
                        patched = classmethod(self._wrap(name, raw.__func__))
                    else:
                        patched = self._wrap(name, raw)
                    self._patches.append((cls, meth, raw))
                    setattr(cls, meth, patched)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches = []

    # -- analysis ---------------------------------------------------------------

    def structure(self, lo: int, hi: int) -> dict:
        """Parent span index (or -1) of each span in [lo, hi), found by
        sweeping the spans in start order with a stack of open spans."""
        start, end = self.start, self.end
        order = sorted(range(lo, hi), key=lambda k: (start[k], -end[k]))
        parent = {}
        stack: list = []
        for k in order:
            while stack and end[stack[-1]] <= start[k]:
                stack.pop()
            parent[k] = stack[-1] if stack else -1
            stack.append(k)
        return parent

    def layer_totals(self, lo: int = 0, hi: int | None = None) -> dict:
        """Per-layer self time and call count over spans [lo, hi).

        The hook spans and the generator ``next`` spans are kept out of the
        call counts (the latter are counted as words streamed).
        """
        hi = len(self.name) if hi is None else hi
        start, end = self.start, self.end
        child = dict.fromkeys(range(lo, hi), 0.0)
        for k, p in self.structure(lo, hi).items():
            if p >= 0:
                child[p] += end[k] - start[k]
        layer_of = [n.split(".", 1)[0] for n in self.names]
        out = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        by_name: dict = {}
        for k in range(lo, hi):
            nid = self.name[k]
            by_name[nid] = by_name.get(nid, 0) + 1
            totals = out.get(layer_of[nid])
            if totals is not None:
                totals["self_s"] += (end[k] - start[k]) - child[k]
                if self.names[nid] != STREAM:
                    totals["calls"] += 1
        names = {self.names[nid]: c for nid, c in by_name.items()}
        return {"layers": out, "by_name": names}

    def write_tsv(self, path) -> None:
        """Write every span, in start order, as gzip-compressed
        tab-separated text; set-up spans have item -1."""
        parent = self.structure(0, len(self.name))
        order = sorted(parent, key=lambda k: (self.start[k], -self.end[k]))
        row = {k: r for r, k in enumerate(order)}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\titem\n")
            for k in order:
                item = bisect.bisect_right(self.item_start, self.start[k]) - 1
                p = parent[k]
                fh.write(f"{row[k]}\t{self.names[self.name[k]]}\t{self.start[k]:.9f}\t"
                         f"{self.end[k]:.9f}\t{row[p] if p >= 0 else -1}\t{item}\n")
