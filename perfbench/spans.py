"""Spans recorded around the program's layer boundaries, from outside.

The program's modules look some names up at call time (``tqrank.solver``
calls ``right_singular_basis`` and ``_prox_unfolded`` through its module
globals, ``tqrank.bench`` and ``tqrank.cli`` call ``admm_complete`` and
the ``tensor3`` readers and writers the same way).  A ``Tracer`` replaces
those names with timing wrappers and puts the originals back when it is
closed; the program's files are not edited.  A name that is missing is
skipped and its layer's metrics are left unreported.

Spans are kept in memory as (name, start, end, parent, attrs) and
written out once, when the benchmark ends.
"""

import importlib
import os
import time

import numpy as np

# (module, attribute, span name); the span name's prefix is the layer
SOLVER_HOOKS = [
    ("tqrank.solver", "right_singular_basis", "orth.refresh"),
    ("tqrank.solver", "_prox_unfolded", "qnorm.prox"),
]
PROBE = "trace.probe"
GRID_HOOKS = [("tqrank.bench", "admm_complete", "solver.solve")]
CLI_HOOKS = [
    ("tqrank.cli", "admm_complete", "solver.solve"),
    ("tqrank.cli", "read_tensor", "tensor3.read_t3"),
    ("tqrank.cli", "write_tensor", "tensor3.write_t3"),
    ("tqrank.cli", "read_mask", "tensor3.read_m3"),
    ("tqrank.cli", "write_mask", "tensor3.write_m3"),
]


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, attrs]
        self._stack = []
        self._installed = []     # (module, attribute, original)
        self.missing = set()     # span names whose wrapped name does not exist

    def span(self, name, attrs=None):
        return _Span(self, name, attrs)

    def install(self, hooks):
        for module_name, attr, span_name in hooks:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.add(span_name)
                continue
            setattr(module, attr, self._wrap(original, span_name))
            self._installed.append((module, attr, original))

    def absorb(self, child_spans, missing):
        """Append spans recorded in a child process under the current span."""
        offset = len(self.spans)
        top = self._stack[-1] if self._stack else None
        for name, start, end, parent, attrs in child_spans:
            self.spans.append([name, start, end, top if parent is None else parent + offset,
                               attrs])
        self.missing.update(missing)

    def close(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _wrap(self, fn, name):
        if name == "qnorm.prox":
            def prox(t3, q, lam, *args, **kwargs):
                with self.span(name) as attrs:
                    out = fn(t3, q, lam, *args, **kwargs)
                attrs["slices"] = q.shape[1]
                attrs["zero_slices"] = self._zero_slices(t3, q, lam, *args)
                return out
            return prox
        if name.startswith("tensor3."):
            def io(path, *args, **kwargs):
                with self.span(name) as attrs:
                    out = fn(path, *args, **kwargs)
                attrs["bytes"] = os.path.getsize(path)
                return out
            return io

        def call(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return call

    def _zero_slices(self, t3, q, lam, n1, n2):
        """Slices the prox shrinks to zero: those with largest singular value <= lam.

        Runs in a ``trace.probe`` span, whose time ``totals`` takes out of
        every enclosing span.  Frobenius bounds settle most slices
        (sigma_max <= ||G||_F, and sigma_max >= ||G||_F / sqrt(min(n1, n2)));
        only the rest get an SVD.
        """
        with self.span(PROBE):
            g = np.moveaxis(np.reshape(t3 @ q, (n1, n2, -1), order="F"), 2, 0)
            fro = np.linalg.norm(g, axis=(1, 2))
            zero = fro <= lam
            unsure = ~zero & (fro / np.sqrt(min(n1, n2)) <= lam)
            if unsure.any():
                zero[unsure] = np.linalg.svd(g[unsure], compute_uv=False)[:, 0] <= lam
        return int(zero.sum())


class _Span:
    def __init__(self, tracer, name, attrs):
        self.tracer = tracer
        self.record = [name, 0.0, 0.0, None, dict(attrs or {})]

    def __enter__(self):
        stack = self.tracer._stack
        self.record[3] = stack[-1] if stack else None
        stack.append(len(self.tracer.spans))
        self.tracer.spans.append(self.record)
        self.record[1] = time.perf_counter()
        return self.record[4]

    def __exit__(self, *exc):
        self.record[2] = time.perf_counter()
        self.tracer._stack.pop()
        return False


def totals(spans):
    """Per span name: call count, total duration, self time and summed attrs.

    A span's duration excludes the ``trace.probe`` spans inside it; its
    self time is its duration minus the durations of its direct children.
    """
    child_time = [0.0] * len(spans)
    probe_time = [0.0] * len(spans)
    # a child always comes after its parent, so one reverse pass suffices
    for i in range(len(spans) - 1, -1, -1):
        name, start, end, parent, _ = spans[i]
        if parent is not None:
            child_time[parent] += end - start
            probe_time[parent] += end - start if name == PROBE else probe_time[i]
    out = {}
    for i, (name, start, end, _, attrs) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start - probe_time[i]
        entry["self_s"] += end - start - child_time[i]
        for key, value in attrs.items():
            entry[key] = entry.get(key, 0) + value
    return out
