"""In-memory span tracer wrapped around the library from outside.

Nothing in ``src/`` is edited.  While a traced op runs, the tracer replaces
the module attributes that ``experiments`` and ``schemes``
call through, and the instance attributes ``d``, ``w`` and ``check_point``
of each space and ``apply`` of each mapping the benchmark builds (so the
spaces' own ``self.check_point`` calls are counted too).

A span is ``(name, start, end, parent, op)``.  Spans of the current op are
folded into per-name totals (calls, inclusive and self time) when the op
ends; the raw spans of the first ops are kept and written out at the end.
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

SPAN_KEEP_LIMIT = 50_000


class Tracer:
    def __init__(self):
        self.spans = []            # spans of the current op
        self.kept = []             # raw spans of the first ops, for the file
        self.stack = [-1]
        self.op = -1
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        # filled by the _picard_solve counter
        self.solves = 0
        self.inner_iters = 0
        self.max_residual = 0.0
        self.nonconvergence = 0
        self._traced_classes = {}

    # -- spans -------------------------------------------------------------

    def wrap(self, name, fn):
        spans, stack, clock, tracer = self.spans, self.stack, time.perf_counter, self

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.op)

        traced.__wrapped__ = fn
        return traced

    def begin_op(self, op: int):
        self.op = op
        del self.spans[:]

    def end_op(self):
        """Fold the op's spans into the totals; keep the first ops raw."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(spans):
            dur = end - start
            self.calls[name] += 1
            self.total_s[name] += dur
            self.self_s[name] += dur - child[i]
        if len(self.kept) + len(spans) <= SPAN_KEEP_LIMIT:
            base = len(self.kept)
            self.kept.extend((n, s, e, p + base if p >= 0 else -1, op)
                             for n, s, e, p, op in spans)
        del spans[:]

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.kept:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")

    # -- instrumentation ---------------------------------------------------

    def counted_solver(self, fn):
        """Count inner solves, iterations, residuals and nonconvergence."""
        from implicitfp.errors import NonconvergenceError

        def counted(*args, **kwargs):
            try:
                x, stats = fn(*args, **kwargs)
            except NonconvergenceError:
                self.nonconvergence += 1
                raise
            self.solves += 1
            self.inner_iters += stats.iterations
            self.max_residual = max(self.max_residual, stats.residual)
            return x, stats

        return counted

    def instrument_space(self, space):
        for attr in ("d", "w", "check_point"):
            setattr(space, attr, self.wrap(f"spaces.{attr}", getattr(space, attr)))

    def instrument_map(self, op, name):
        """Wrap op.apply; an AffineMap keeps its class (callers test isinstance)."""
        from implicitfp.mappings import AffineMap

        apply = op.apply
        if isinstance(apply, AffineMap):
            cls = type(apply)
            if (cls, name) not in self._traced_classes:
                self._traced_classes[(cls, name)] = type(
                    "Traced" + cls.__name__, (cls,),
                    {"__call__": self.wrap(name, cls.__call__)})
            apply.__class__ = self._traced_classes[(cls, name)]
        else:
            op.apply = self.wrap(name, apply)

    def patches(self):
        """(owner, attribute, replacement) for every module-level hook."""
        from implicitfp import bounds, experiments, schemes, spaces

        out = []

        def hook(owner, attr, name):
            fn = getattr(owner, attr, None)
            if fn is not None:
                out.append((owner, attr, self.wrap(name, fn)))

        run = self.wrap("schemes.run", schemes.run)
        out += [(owner, "run", run) for owner in (schemes, experiments)
                if getattr(owner, "run", None) is schemes.run]
        for attr in ("implicit_s_step", "implicit_ishikawa_step", "implicit_mann_step"):
            hook(schemes, attr, "schemes.step")
        if hasattr(schemes, "_picard_solve"):
            out.append((schemes, "_picard_solve",
                        self.counted_solver(schemes._picard_solve)))
        hook(experiments, "_solve_u_step", "experiments.u_step")
        hook(experiments, "rate_race", "experiments.rate_race")
        hook(experiments, "run_datadep", "experiments.run_datadep")
        hook(experiments, "berinde_compare", "bounds.berinde_compare")
        hook(experiments, "check_lemma1", "bounds.check_lemma1")
        out.append((bounds.BoundSequences, "compute",
                    staticmethod(self.wrap("bounds.compute", bounds.BoundSequences.compute))))
        hook(spaces, "check_axioms", "spaces.check_axioms")
        return out


class patched:
    """Install (owner, attr, value) replacements; restore them on exit."""

    def __init__(self, replacements):
        self.replacements = replacements
        self.saved = []

    def __enter__(self):
        for owner, attr, value in self.replacements:
            self.saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)
        return self

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self.saved):
            setattr(owner, attr, value)
        return False
