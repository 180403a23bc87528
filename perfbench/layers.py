"""Layer map and the two instruments of the traced run.

Every interpreter frame is charged to a *layer* named after the modules of
``repro`` (see README.md for the table).  Frames of modules outside the
map — the standard library, C functions, ``repro.errors`` — belong to the
nearest enclosing frame that is in it, so a ``gzip.compress`` made by the
HTTP layer counts as HTTP work.  The benchmark's own frames, and frames
with nothing of ``repro`` below them on the stack, are the ``driver``.

- :class:`CallCounter` is a ``sys.setprofile`` hook: it counts every
  Python and C call per layer, plus a few named entry points whose call
  counts are work counters (simulator events, HTTP exchanges, ...).  The
  counts are exact and repeat across runs and hash seeds.
- :class:`SpanTracer` wraps the public functions and methods of every
  mapped module, and every callback the simulator dispatches, in host
  wall-clock spans.  Each span's self time is its duration minus that of
  the spans it encloses.  The spans are kept in memory and written out at
  the end of the run.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import types
from typing import Any, Callable

LAYERS = (
    "sim", "transport", "http", "codec", "vsg", "resilience",
    "vsr", "rules", "store", "obs", "native", "driver",
)

#: Module prefix -> layer; the longest matching prefix wins.
_PREFIXES = {
    "repro.net.simkernel": "sim",
    "repro.net": "transport",
    "repro.soap.http": "http",
    "repro.soap.channel": "http",
    "repro.soap": "codec",
    "repro.core.resilience": "resilience",
    "repro.core.vsr": "vsr",
    "repro.core.shard": "vsr",
    "repro.core": "vsg",
    "repro.rules": "rules",
    "repro.store": "store",
    "repro.obs": "obs",
    **{
        f"repro.{package}": "native"
        for package in ("pcms", "jini", "havi", "x10", "mail", "upnp", "sip", "devices", "apps")
    },
}

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


_layer_cache: dict[str, str | None] = {}


def module_layer(module: str | None) -> str | None:
    """The layer of a module name, ``driver`` for the benchmark's own
    modules, or None for a module outside the map."""
    if not module:
        return None
    layer = _layer_cache.get(module, "?")
    if layer == "?":
        layer = _lookup_layer(module)
        _layer_cache[module] = layer
    return layer


def _lookup_layer(module: str) -> str | None:
    path = getattr(sys.modules.get(module), "__file__", None)
    if path and os.path.dirname(os.path.abspath(path)) == _BENCH_DIR:
        return "driver"
    parts = module.split(".")
    for end in range(len(parts), 1, -1):
        layer = _PREFIXES.get(".".join(parts[:end]))
        if layer is not None:
            return layer
    return None


def mapped_modules() -> dict[str, tuple[types.ModuleType, str]]:
    """Every imported ``repro`` module that belongs to a layer."""
    found = {}
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        layer = module_layer(name)
        if layer is not None:
            found[name] = (module, layer)
    return found


def _layer_by_file() -> dict[str, str]:
    by_file = {}
    for module, layer in mapped_modules().values():
        path = getattr(module, "__file__", None)
        if path:
            by_file[path] = layer
    for module in list(sys.modules.values()):
        path = getattr(module, "__file__", None)
        if path and os.path.dirname(os.path.abspath(path)) == _BENCH_DIR:
            by_file[path] = "driver"
    return by_file


class CallCounter:
    """``sys.setprofile`` hook counting interpreter calls per layer.

    ``watch`` maps a counter name to a function; the counter counts that
    function's calls.  ``watch_arg_len`` additionally sums the length of
    one of its arguments (``send_vectored``'s frame list).
    """

    def __init__(self, watch: dict[str, Callable], watch_arg_len: dict[str, tuple[Callable, str]]) -> None:
        self.by_file = _layer_by_file()
        self.calls = dict.fromkeys(LAYERS, 0)
        self.counters = dict.fromkeys([*watch, *watch_arg_len], 0)
        self._watch = {fn.__code__: name for name, fn in watch.items()}
        self._watch_len = {fn.__code__: (name, arg) for name, (fn, arg) in watch_arg_len.items()}

    def hook(self, frame: types.FrameType, event: str, arg: Any) -> None:
        if event != "call" and event != "c_call":
            return
        if event == "call":
            code = frame.f_code
            name = self._watch.get(code)
            if name is not None:
                self.counters[name] += 1
            else:
                watched = self._watch_len.get(code)
                if watched is not None:
                    self.counters[watched[0]] += len(frame.f_locals[watched[1]])
        by_file = self.by_file
        while frame is not None:
            layer = by_file.get(frame.f_code.co_filename)
            if layer is not None:
                self.calls[layer] += 1
                return
            frame = frame.f_back
        self.calls["driver"] += 1

    def __enter__(self) -> "CallCounter":
        sys.setprofile(self.hook)
        return self

    def __exit__(self, *exc: Any) -> None:
        sys.setprofile(None)


_now_ns = time.perf_counter_ns


class SpanTracer:
    """Host wall-clock spans around each layer's public entry points.

    Install it before the world is built, so that every bound method and
    callback the world captures is already the wrapped one.
    """

    def __init__(self, keep: int = 200_000) -> None:
        self.index = {layer: position for position, layer in enumerate(LAYERS)}
        self.entries = [0] * len(LAYERS)
        self.self_ns = [0] * len(LAYERS)
        #: Total time of spans with no enclosing span.
        self.top_ns = 0
        #: Open spans: [layer index, time of enclosed child spans].
        self._stack: list[list[int]] = []
        #: Kept spans: (layer index, parent layer index or -1, start, end).
        self.spans: list[tuple[int, int, int, int]] = []
        self._keep = keep

    def _span(self, fn: Callable, layer: str) -> Callable:
        position = self.index[layer]
        stack, entries, self_ns, spans = self._stack, self.entries, self.self_ns, self.spans
        keep = self._keep

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = [position, 0]
            stack.append(frame)
            start = _now_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _now_ns()
                stack.pop()
                duration = end - start
                entries[position] += 1
                self_ns[position] += duration - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += duration
                    parent_layer = parent[0]
                else:
                    self.top_ns += duration
                    parent_layer = -1
                if len(spans) < keep:
                    spans.append((position, parent_layer, start, end))

        wrapper.__perfbench_span__ = True  # type: ignore[attr-defined]
        return wrapper

    def _callback(self, callback: Callable) -> Callable:
        """Wrap a dispatched callback in a span of the layer that defined
        it (callbacks from outside the map run unwrapped)."""
        if getattr(callback, "__perfbench_span__", False):
            return callback
        target = getattr(callback, "__func__", callback)
        target = getattr(target, "func", target)
        if getattr(target, "__perfbench_span__", False):
            return callback
        layer = module_layer(getattr(target, "__module__", None))
        if layer is None:
            return callback
        return self._span(callback, layer)

    def install(self) -> None:
        """Wrap every public function and method of the mapped modules,
        then make the simulator and futures wrap what they dispatch."""
        replaced: dict[int, Callable] = {}
        modules = mapped_modules()
        for name, (module, layer) in modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != name:
                    continue
                if isinstance(value, types.FunctionType):
                    replaced[id(value)] = self._span(value, layer)
                elif isinstance(value, type):
                    self._wrap_class(value, layer)
        # Rebind module-level functions wherever they were imported.
        for module in list(sys.modules.values()):
            if module is None or not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                wrapped = replaced.get(id(value))
                if wrapped is not None and isinstance(value, types.FunctionType):
                    setattr(module, attr, wrapped)
        self._wrap_dispatch()

    def _wrap_class(self, cls: type, layer: str) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(value, types.FunctionType):
                wrapped: Any = self._span(value, layer)
            elif isinstance(value, staticmethod) and isinstance(value.__func__, types.FunctionType):
                wrapped = staticmethod(self._span(value.__func__, layer))
            elif isinstance(value, classmethod) and isinstance(value.__func__, types.FunctionType):
                wrapped = classmethod(self._span(value.__func__, layer))
            else:
                continue
            try:
                setattr(cls, attr, wrapped)
            except (AttributeError, TypeError):
                pass

    def _wrap_dispatch(self) -> None:
        from repro.net.simkernel import SimFuture, Simulator

        at, post, add_done = Simulator.at, Simulator.post, SimFuture.add_done_callback
        callback = self._callback

        @functools.wraps(at)
        def traced_at(sim: Simulator, when: float, fn: Callable, *args: Any) -> Any:
            return at(sim, when, callback(fn), *args)

        @functools.wraps(post)
        def traced_post(sim: Simulator, fn: Callable, *args: Any) -> None:
            post(sim, callback(fn), *args)

        @functools.wraps(add_done)
        def traced_add_done(future: SimFuture, fn: Callable) -> None:
            add_done(future, callback(fn))

        Simulator.at, Simulator.post = traced_at, traced_post
        SimFuture.add_done_callback = traced_add_done

    def write(self, path: str) -> None:
        """Write the kept spans, one JSON array per line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for layer, parent, start, end in self.spans:
                parent_name = LAYERS[parent] if parent >= 0 else None
                handle.write(json.dumps([LAYERS[layer], parent_name, start, end]) + "\n")
