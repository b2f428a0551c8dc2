"""Span tracing and op counting around the package's public functions.

Nothing under src/ is edited.  A traced function is replaced, in every
loaded nxmds module that binds it, by a wrapper that records a span:
name, start, end, parent span and cycle id.  Replacing every binding
matters because modules import names directly (`from .verifier import
verify`), so `nxmds.experiments.verify` and `nxmds.verifier.verify` are
separate lookups of the same function.

Spans live in flat arrays while the workload runs and are written out
once at the end.  Self time is a span's duration minus the part of it
covered by its child spans; it is accumulated as spans close.

Scalar field methods, `matrix.dot` and `code.dot_row` run millions of
times per second.  A timing shim on each would distort the spans around
them, so they are only counted, in a separate short pass (`Counters`).
"""

from __future__ import annotations

import functools
import itertools
import sys
from array import array
from time import perf_counter


def _modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "nxmds" or name.startswith("nxmds."))]


def _resolve(path):
    """'nxmds.storage:SystemState.restore' -> (owner, attribute, value);
    None when the program no longer has that name."""
    modname, _, attr = path.partition(":")
    owner = sys.modules.get(modname)
    *outer, last = attr.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    value = getattr(owner, last, None) if owner is not None else None
    return (owner, last, value) if value is not None else None


class _Patches:
    """Replacements of attributes, undone in reverse order."""

    def __init__(self):
        self._undo = []

    def rebind(self, path, make):
        """Replace the object at `path` with make(original) wherever an
        nxmds module binds it; returns False when the name is absent."""
        found = _resolve(path)
        if found is None:
            return False
        owner, attr, original = found
        replacement = make(original)
        targets = [(owner, attr)]
        if isinstance(owner, type(sys)):
            targets = [(m, k) for m in _modules()
                       for k, v in list(vars(m).items()) if v is original]
        for obj, key in targets:
            self._undo.append((obj, key, original))
            setattr(obj, key, replacement)
        return True

    def undo(self):
        while self._undo:
            obj, key, original = self._undo.pop()
            setattr(obj, key, original)


class Tracer:
    """Span recorder with online self-time aggregation per name."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.cycle = -1
        # one entry per closed span, in closing order
        self.span_id = array("i")
        self.span_parent = array("i")
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_cycle = array("i")
        self._next_id = itertools.count()
        self._stack = []  # [span id, time covered by children]
        self._patches = _Patches()
        self.reset_totals()

    def reset_totals(self):
        size = len(self.names)
        self.self_s = [0.0] * size
        self.incl_s = [0.0] * size
        self.calls = [0] * size
        self.work = [0] * size

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            for table, zero in ((self.self_s, 0.0), (self.incl_s, 0.0),
                                (self.calls, 0), (self.work, 0)):
                table.append(zero)
        return self._ids[name]

    def _closer(self, nid):
        """close(frame, t0, t1, work) for spans named by nid."""
        stack = self._stack
        ids, parents, names = self.span_id, self.span_parent, self.span_name
        starts, ends, cycles = self.span_start, self.span_end, self.span_cycle

        def close(frame, t0, t1, work):
            stack.pop()
            d = t1 - t0
            ids.append(frame[0])
            parents.append(stack[-1][0] if stack else -1)
            names.append(nid)
            starts.append(t0)
            ends.append(t1)
            cycles.append(self.cycle)
            self.self_s[nid] += d - frame[1]
            self.incl_s[nid] += d
            self.calls[nid] += 1
            self.work[nid] += work
            if stack:
                stack[-1][1] += d
        return close

    def enter(self, name):
        """Open a span by hand; returns the token that close() needs."""
        frame = [next(self._next_id), 0.0]
        self._stack.append(frame)
        return self._closer(self._id(name)), frame, perf_counter()

    def close(self, token):
        t1 = perf_counter()
        closer, frame, t0 = token
        closer(frame, t0, t1, 0)

    def wrap(self, path, name, work=None):
        """Trace the function at `path` under metric prefix `name`.
        `work(args, result)` sizes one call (symbols, bytes) for rates."""
        close = self._closer(self._id(name))
        stack, next_id = self._stack, self._next_id

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                frame = [next(next_id), 0.0]
                stack.append(frame)
                size = 0
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                    if work is not None:
                        size = work(args, result)
                    return result
                finally:
                    close(frame, t0, perf_counter(), size)
            return traced

        return self._patches.rebind(path, make)

    def uninstall(self):
        self._patches.undo()

    def stats(self, name):
        """(self seconds, inclusive seconds, calls, work) since reset_totals."""
        nid = self._ids.get(name)
        if nid is None:
            return 0.0, 0.0, 0, 0
        return self.self_s[nid], self.incl_s[nid], self.calls[nid], self.work[nid]

    def durations(self, name):
        """Durations of the spans of `name` in measured cycles (id >= 0)."""
        nid = self._ids.get(name)
        return [e - s for n, s, e, c in zip(self.span_name, self.span_start,
                                             self.span_end, self.span_cycle)
                if n == nid and c >= 0]

    def save(self, path):
        import numpy as np
        np.savez_compressed(
            path,
            names=np.array(self.names),
            id=np.frombuffer(self.span_id, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            name=np.frombuffer(self.span_name, dtype=np.uint16),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            cycle=np.frombuffer(self.span_cycle, dtype=np.int32),
        )


class Counters:
    """Call counts on the scalar hot paths, without timing them."""

    FIELD_OPS = ("add", "sub", "neg", "mul", "inv", "div", "pow")

    def __init__(self):
        self.counts = {"prime_ops": 0, "ext_ops": 0, "check_calls": 0,
                       "dot_calls": 0, "dot_row_calls": 0,
                       "decoded_words": 0, "decode_attempts": 0,
                       "bytes_read": 0, "bytes_written": 0}
        self._patches = _Patches()

    def _counting(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self):
        for cls, key in (("PrimeField", "prime_ops"), ("ExtensionField", "ext_ops")):
            for op in self.FIELD_OPS:
                self._patches.rebind(f"nxmds.field:{cls}.{op}",
                                     functools.partial(self._counting, key))
            self._patches.rebind(f"nxmds.field:{cls}.check",
                                 functools.partial(self._counting, "check_calls"))
        self._patches.rebind("nxmds.matrix:dot",
                             functools.partial(self._counting, "dot_calls"))
        self._patches.rebind("nxmds.code:dot_row",
                             functools.partial(self._counting, "dot_row_calls"))
        self._patches.rebind("nxmds.code:decode_codeword", self._decoder)
        self._patches.rebind("nxmds.container:serialize_matrix", self._written)
        self._patches.rebind("nxmds.container:deserialize_matrix", self._read)

    def _written(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            data = fn(*args, **kwargs)
            counts["bytes_written"] += len(data)
            return data
        return counted

    def _read(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(data, *args, **kwargs):
            counts["bytes_read"] += len(data)
            return fn(data, *args, **kwargs)
        return counted

    def _decoder(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(params, *args, **kwargs):
            before = counts["dot_row_calls"]
            try:
                return fn(params, *args, **kwargs)
            finally:
                # one attempt re-interpolates all n positions: n dot_row calls
                counts["decode_attempts"] += (counts["dot_row_calls"] - before) / params.n
                counts["decoded_words"] += 1
        return counted

    def uninstall(self):
        self._patches.undo()
