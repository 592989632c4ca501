"""Per-layer spans around the calls into each softnewt module.

A layer is a module of the package. Its traced functions are found at import
time, not from a list of names: every public function a module defines is
wrapped wherever a softnewt namespace binds it (the defining module, every
other module that imported it, and the package). The program itself is not
changed, and ``uninstall`` puts every original binding back.

A call that enters a layer from another layer (or from the benchmark) opens a
span and counts as one call. A call from a layer into itself opens no span;
its result is still observed, so counters see values that only an inner call
returns, such as the halvings of one damped Newton step. A layer's self time
is its spans' time minus the spans of other layers nested in them.

Counters are read from returned objects by their attributes, so they survive
renames and deletions of the functions that produce them. A layer that no
traced call reaches reports zeros.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
import types
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("model", "derivatives", "hessian", "sketch", "newton", "bounds", "oracle", "generate", "serialize", "cli")


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    callbacks: int = 0  # invocations of plain functions passed into the layer
    counters: dict = field(default_factory=dict)

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def maximum(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, value), value)


class _Frame:
    __slots__ = ("layer", "nested_s", "results")

    def __init__(self, layer: str):
        self.layer = layer
        self.nested_s = 0.0  # time inside spans of other layers
        self.results = []


def discover_layers(package) -> dict[str, dict]:
    """Map each submodule of ``package`` to its public functions, by identity."""
    layers = {}
    for info in pkgutil.iter_modules(package.__path__):
        module = importlib.import_module(f"{package.__name__}.{info.name}")
        layers[info.name] = {
            name: obj
            for name, obj in vars(module).items()
            if isinstance(obj, types.FunctionType)
            and obj.__module__ == module.__name__
            and not name.startswith("_")
        }
    return layers


def _reachable(results, depth: int = 2):
    """Distinct objects in the results, their items and attributes, ``depth`` levels down."""
    seen = {}
    level = list(results)
    for _ in range(depth + 1):
        nxt = []
        for obj in level:
            if obj is None or id(obj) in seen:
                continue
            seen[id(obj)] = obj
            if isinstance(obj, (list, tuple)):
                nxt.extend(obj)
            elif hasattr(obj, "__dict__") and not isinstance(obj, (type, types.ModuleType, types.FunctionType)):
                nxt.extend(vars(obj).values())
        level = nxt
    return seen.values()


def _hessian_counters(objs, st: LayerStats, n: int) -> None:
    st.add("kernel_bytes", sum(o.nbytes for o in objs if isinstance(o, np.ndarray) and o.shape == (n, n)))


def _sketch_counters(objs, st: LayerStats, n: int) -> None:
    for o in objs:
        if hasattr(o, "exact") and hasattr(o, "kept_indices"):
            st.add("results", 1)
            st.add("sampled", 0 if o.exact else 1)
            st.add("kept_frac_sum", np.unique(o.kept_indices).size / n)


def _newton_counters(objs, st: LayerStats, n: int) -> None:
    for o in objs:
        if isinstance(getattr(o, "halvings", None), int):
            st.add("halvings", o.halvings)
        if hasattr(o, "n_iters") and hasattr(o, "iterates"):
            st.add("iters", o.n_iters)
        eps = getattr(o, "eps_end_to_end", None)
        if eps is not None:
            st.maximum("eps_e2e_max", float(eps))


def _bounds_counters(objs, st: LayerStats, n: int) -> None:
    for o in objs:
        if hasattr(o, "n_admissible") and hasattr(o, "n_excluded"):
            st.add("probe_points", o.n_admissible + o.n_excluded)


def _serialize_counters(objs, st: LayerStats, n: int) -> None:
    st.add("bytes", sum(len(o.encode()) for o in objs if isinstance(o, str)))


COUNTERS = {
    "hessian": _hessian_counters,
    "sketch": _sketch_counters,
    "newton": _newton_counters,
    "bounds": _bounds_counters,
    "serialize": _serialize_counters,
}


class LayerTracer:
    """Wraps the package's public functions and accumulates per-layer stats.

    ``n`` is the instance's softmax dimension: a returned n x n array counts
    as a dense curvature kernel.
    """

    def __init__(self, package, n: int):
        self.n = n
        self.layers = discover_layers(package)
        self.stats = {layer: LayerStats() for layer in (*LAYERS, *self.layers)}
        self.ops = 0
        self.op_s = 0.0
        self._stack: list[_Frame] = []
        self._patches: list[tuple[dict, str, object]] = []
        self._namespaces = [vars(package)] + [
            vars(importlib.import_module(f"{package.__name__}.{name}")) for name in self.layers
        ]
        self._wrappers = {
            id(fn): self._wrap(fn, layer) for layer, fns in self.layers.items() for fn in fns.values()
        }

    def install(self) -> None:
        for ns in self._namespaces:
            for name, obj in list(ns.items()):
                wrapper = self._wrappers.get(id(obj)) if isinstance(obj, types.FunctionType) else None
                if wrapper is not None:
                    self._patches.append((ns, name, obj))
                    ns[name] = wrapper

    def uninstall(self) -> None:
        while self._patches:
            ns, name, obj = self._patches.pop()
            ns[name] = obj

    @contextmanager
    def op(self):
        """Trace one operation: installs the wrappers and times the whole op."""
        frame = _Frame("benchmark")
        self.install()
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.op_s += time.perf_counter() - t0
            self.ops += 1
            self._stack.pop()
            self.uninstall()

    def _counting(self, layer: str, fn):
        st = self.stats[layer]

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            st.callbacks += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap(self, fn, layer: str):
        stack = self._stack
        st = self.stats[layer]
        count = COUNTERS.get(layer)
        n = self.n

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            if parent.layer == layer:
                result = fn(*args, **kwargs)
                parent.results.append(result)
                return result
            args = tuple(self._counting(layer, a) if type(a) is types.FunctionType else a for a in args)
            frame = _Frame(layer)
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                frame.results.append(result)
                return result
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                parent.nested_s += elapsed
                st.calls += 1
                st.self_s += elapsed - frame.nested_s
                if count is not None:
                    count(_reachable(frame.results), st, n)

        return traced
