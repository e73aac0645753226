"""Span tracer for the benchmark's traced run.

The tracer wraps functions of the `nambu` modules from outside: every public
module-level function, the methods named in METHODS, and the private functions
named in PRIVATE under a public label. A function is replaced at every place
its name is bound, so `formal.solve_linear` is wrapped as well as
`polyalg.solve_linear`, and methods are replaced on their class. `uninstall`
puts the originals back.

Each call becomes a span: name, start, end, parent span and job id, kept in
typed arrays and written out by `write`. A function's self time is its span's
duration minus the spans of traced functions it calls. A leaf function's
callees are not traced: `solve_linear` is the graded solver's kernel, so the
eliminations it runs count as its own time and not as `RatMatrix.rref` calls.
Counting work (matrix cells, term pairs, bytes) happens outside both the
caller's and the callee's timed interval.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

MODULES = ["polyalg", "exterior", "verify", "linclass", "formal", "cli"]
METHODS = {"polyalg": {"Poly": ["mul", "substitute"], "RatMatrix": ["rref"]},
           "exterior": {"FormalMap": ["compose", "inverse"]}}
# private functions traced under a public label: the CLI's JSON writer and one
# rung of the Type 2 prelinearization ladder
PRIVATE = {("cli", "_emit"): "emit", ("formal", "_prelinearize_attempt"): "prelinearize_attempt"}
LEAVES = {"polyalg.solve_linear"}
# counted but not timed, so the pipeline's time stays in prelinearize_type2
COUNT_ONLY = {"formal.prelinearize_attempt"}
# Helpers called once per index pair inside wedge and contraction loops; a
# span each would cost more than the work it times.
SKIP = {"exterior.merge_sign", "exterior.sort_sign"}


def _solve_counts(st, args, result, exc, before):
    M = args[0]
    st["cells"] += M.rows * M.cols
    st["nonzeros"] += sum(1 for row in M.data for v in row if v)
    if result is not None and result.solution is None:
        st["inconsistent"] += 1


def _mul_counts(st, args, result, exc, before):
    st["term_pairs"] += len(args[0].terms) * len(args[1].terms)


def _divide_counts(st, args, result, exc, before):
    if exc is not None and type(exc).__name__ == "SolveInconsistencyError":
        st["inconsistent"] += 1


def _attempt_counts(st, args, result, exc, before):
    if exc is not None:
        st["failed"] += 1


def _emit_counts(st, args, result, exc, before):
    st["bytes"] += sys.stdout.tell() - before


COUNTERS = {
    "polyalg.solve_linear": (("cells", "nonzeros", "inconsistent"), None, _solve_counts),
    "polyalg.Poly.mul": (("term_pairs",), None, _mul_counts),
    "formal.graded_divide": (("inconsistent",), None, _divide_counts),
    "formal.prelinearize_attempt": (("failed",), None, _attempt_counts),
    "cli.emit": (("bytes",), lambda args: sys.stdout.tell(), _emit_counts),
}


class Tracer:
    def __init__(self):
        self.names = []
        self.stats = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []          # [span index, seconds spent in traced callees]
        self.job = -1
        self.leaf_depth = 0
        self._patches = []

    # -- wrapping ------------------------------------------------------------------------

    def wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        fields, before_hook, after_hook = COUNTERS.get(name, ((), None, None))
        st = {"calls": 0, "self_s": 0.0}
        st.update({f: 0 for f in fields})
        self.stats[name] = st
        if name in COUNT_ONLY:
            return self._counting(st, after_hook, fn)
        leaf = name in LEAVES
        tracer = self
        stack = self.stack
        perf = time.perf_counter
        names, parents, jobs = self.span_name, self.span_parent, self.span_job
        starts, ends = self.span_start, self.span_end

        def traced(*args, **kwargs):
            if tracer.leaf_depth:
                return fn(*args, **kwargs)
            t_in = perf()
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            jobs.append(tracer.job)
            starts.append(0.0)
            ends.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            before = before_hook(args) if before_hook else None
            if leaf:
                tracer.leaf_depth += 1
            result = exc = None
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = perf()
                if leaf:
                    tracer.leaf_depth -= 1
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
                st["calls"] += 1
                st["self_s"] += (t1 - t0) - frame[1]
                if after_hook:
                    after_hook(st, args, result, exc, before)
                if stack:
                    stack[-1][1] += perf() - t_in

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    @staticmethod
    def _counting(st, after_hook, fn):
        def counted(*args, **kwargs):
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                st["calls"] += 1
                after_hook(st, args, result, exc, None)
        return counted

    def install(self, package):
        """Wrap the nambu functions; `package` is the imported nambu package."""
        modules = {short: sys.modules[f"{package.__name__}.{short}"] for short in MODULES}
        every_namespace = [package] + list(modules.values())
        for short, mod in modules.items():
            targets = [(name, fn) for name, fn in vars(mod).items()
                       if callable(fn) and not isinstance(fn, type)
                       and getattr(fn, "__module__", None) == mod.__name__
                       and not name.startswith("_")
                       and f"{short}.{name}" not in SKIP]
            targets += [(label, vars(mod)[name])
                        for (m, name), label in PRIVATE.items() if m == short]
            for label, fn in sorted(targets, key=lambda t: t[0]):
                wrapped = self.wrap(f"{short}.{label}", fn)
                for ns in every_namespace:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._patches.append((ns, attr, fn))
                            setattr(ns, attr, wrapped)
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    fn = cls.__dict__[meth]
                    self._patches.append((cls, meth, fn))
                    setattr(cls, meth, self.wrap(f"{short}.{cls_name}.{meth}", fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    # -- output ---------------------------------------------------------------------------

    def write(self, stem, extra):
        """Spans to `<stem>.bin` (five arrays) and their description to `<stem>.json`."""
        arrays = [("name", self.span_name), ("parent", self.span_parent),
                  ("job", self.span_job), ("start", self.span_start), ("end", self.span_end)]
        with open(stem + ".bin", "wb") as fh:
            for _, arr in arrays:
                arr.tofile(fh)
        header = {"spans": len(self.span_start), "names": self.names,
                  "arrays": [[label, arr.typecode, arr.itemsize] for label, arr in arrays],
                  "stats": self.stats}
        header.update(extra)
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(header, fh, indent=1)
