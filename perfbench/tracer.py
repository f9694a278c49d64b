"""Span tracing from outside the program, for the benchmark's traced runs.

The tracer patches layer entry points on their classes (and a few
module-level functions) at run time, and wraps every callback handed to
an event engine so each one becomes a span named after the layer of the
module that defined it. Nothing inside ``src/`` changes: a traced run
executes exactly the code an untraced run does, plus the wrappers.

Spans live in flat arrays (start, end, parent, name, request id) and are
written out once, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import types
from array import array
from time import perf_counter
from typing import Any, Callable, Iterable

import numpy as np

from helpers import layer_self_times

#: module prefix -> layer name; the longest matching prefix wins
MODULE_LAYERS = {
    "repro.sim": "sim",
    "repro.net": "net",
    "repro.cluster.system": "cluster.system",
    "repro.cluster.client": "cluster.system",
    "repro.cluster.request": "cluster.system",
    "repro.cluster.server": "cluster.server",
    "repro.cluster.availability": "cluster.availability",
    "repro.cluster.service": "cluster.availability",
    "repro.cluster.reliability": "cluster.reliability",
    "repro.cluster.overload": "cluster.overload",
    "repro.cluster.dispatcher": "cluster.dispatcher",
    "repro.cluster.autoscaler": "cluster.autoscaler",
    "repro.cluster.failures": "cluster.failures",
    "repro.core": "core",
    "repro.prototype": "prototype",
    "repro.telemetry": "telemetry",
    "repro.verify": "verify",
    "repro.live.client": "live.client",
    "repro.live.clock": "live.client",
    "repro.live.faults": "live.client",
    "repro.live.server": "live.server",
    "repro.live.wire": "live.wire",
}

#: every layer the benchmark reports a self time for
LAYERS = (
    "sim", "net", "cluster.system", "cluster.server", "core", "prototype",
    "cluster.availability", "cluster.reliability", "cluster.overload",
    "cluster.dispatcher", "cluster.autoscaler", "cluster.failures",
    "telemetry", "verify", "live.client", "live.server", "live.wire",
)


def layer_of(module: str | None) -> str:
    """Layer name for a module path (unknown modules keep their own name)."""
    if not module:
        return "unknown"
    best = ""
    for prefix in MODULE_LAYERS:
        if (module == prefix or module.startswith(prefix + ".")) and len(prefix) > len(best):
            best = prefix
    return MODULE_LAYERS[best] if best else module


def _request_id(args: tuple, request_type: type, message_type: type) -> int:
    """Index of the request a call is about, or -1."""
    for arg in args:
        kind = type(arg)
        if kind is request_type:
            return arg.index
        if kind is message_type:
            payload = arg.payload
            if type(payload) is request_type:
                return payload.index
        elif kind is tuple and arg:
            found = _request_id(arg, request_type, message_type)
            if found >= 0:
                return found
    return -1


class _Unused:
    """Stands for a request or message type a tracer does not look for."""


class Tracer:
    """Records nested spans and patches entry points while installed.

    ``request_type``/``message_type`` let spans pick up the request id
    from a call's arguments (a request, or a message carrying one).
    """

    def __init__(self, request_type: type = _Unused, message_type: type = _Unused):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.request = array("q")
        self.calls: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._module_ids: dict[str | None, int] = {}
        self._request_type = request_type
        self._message_type = message_type
        self.per_child = self.per_span = 0.0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int, request: int = -1) -> int:
        index = len(self.start)
        stack = self._stack
        parent = stack[-1] if stack else -1
        if request < 0 and parent >= 0:
            request = self.request[parent]
        self.parent.append(parent)
        self.name.append(nid)
        self.request.append(request)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(perf_counter())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while span {popped} was open")

    def clear(self) -> None:
        """Drop recorded spans and call counts (between set-up and the run)."""
        if self._stack:
            raise RuntimeError("cannot clear while spans are open")
        for column in (self.start, self.end, self.parent, self.name, self.request):
            del column[:]
        self.calls.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "name": np.frombuffer(self.name, dtype=np.int64).copy(),
            "request": np.frombuffer(self.request, dtype=np.int64).copy(),
        }

    def calibrate(self, calls: int = 20_000, rounds: int = 5) -> None:
        """Measure the tracer's own cost per span (``per_child``: paid by
        the parent around a child span; ``per_span``: paid inside a span
        around the traced call), the least over ``rounds`` for noise,
        so ``self_seconds`` can leave it out."""

        def noop(*args):
            return None

        traced, parent = self.traced(noop, "calibration"), self.name_id("calibration")
        per_child = per_span = float("inf")
        for _ in range(rounds):
            started = perf_counter()
            for _ in range(calls):
                noop(None)
            bare = perf_counter() - started
            self.clear()
            root = self.begin(parent)
            for _ in range(calls):
                traced(None)
            self.finish(root)
            cols = self.arrays()
            inner = cols["end"][1:] - cols["start"][1:]
            outer = cols["end"][0] - cols["start"][0] - inner.sum()
            per_child = min(per_child, (outer - bare) / calls)
            per_span = min(per_span, float(inner.mean()))
        self.clear()
        self.per_child, self.per_span = per_child, per_span

    def self_seconds(self) -> dict[str, float]:
        """Self seconds per layer over every recorded span, less the
        tracer's own cost when ``calibrate`` has run."""
        cols = self.arrays()
        totals = layer_self_times(
            cols["start"], cols["end"], cols["parent"], cols["name"], self.names,
            self.per_child, self.per_span,
        )
        return {
            layer: totals.get(layer, 0.0)
            for layer in sorted(set(LAYERS) | set(self.names)) if layer != "calibration"
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.asarray(self.names), **self.arrays())

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------
    def traced(self, fn: Callable, layer: str, count_as: str | None = None) -> Callable:
        """``fn`` wrapped in a span named ``layer``."""
        nid = self.name_id(layer)
        begin, finish, calls = self.begin, self.finish, self.calls
        request_type, message_type = self._request_type, self._message_type

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_as is not None:
                calls[count_as] = calls.get(count_as, 0) + 1
            index = begin(nid, _request_id(args, request_type, message_type))
            try:
                return fn(*args, **kwargs)
            finally:
                finish(index)

        return wrapper

    def traced_callback(self, fn: Callable) -> Callable:
        """A callback wrapped in a span named after its module's layer
        (returned as is when it is already such a wrapper)."""
        if getattr(fn, "traced_callback", False):
            return fn
        module = getattr(fn, "__module__", None)
        nid = self._module_ids.get(module)
        if nid is None:
            nid = self._module_ids[module] = self.name_id(layer_of(module))
        begin, finish = self.begin, self.finish
        request_type, message_type = self._request_type, self._message_type

        def callback(*args):
            index = begin(nid, _request_id(args, request_type, message_type))
            try:
                return fn(*args)
            finally:
                finish(index)

        callback.traced_callback = True
        return callback

    def traced_coroutine(self, fn: Callable, layer: str) -> Callable:
        """A coroutine function whose every step (send/throw) is a span."""
        nid = self.name_id(layer)
        tracer = self

        class _Steps:
            def __init__(self, coro):
                self.coro = coro

            def __await__(self):
                coro, value, error = self.coro, None, None
                while True:
                    index = tracer.begin(nid)
                    try:
                        if error is None:
                            yielded = coro.send(value)
                        else:
                            yielded = coro.throw(error)
                    except StopIteration as stop:
                        tracer.finish(index)
                        return stop.value
                    except BaseException:
                        tracer.finish(index)
                        raise
                    tracer.finish(index)
                    try:
                        value, error = (yield yielded), None
                    except BaseException as exc:  # delivered into the coroutine
                        value, error = None, exc

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            return await _Steps(fn(*args, **kwargs))

        return wrapper

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def patch_methods(
        self, cls: type, layer: str, names: Iterable[str] | None = None,
        counted: Iterable[str] = (),
    ) -> None:
        """Wrap methods defined on ``cls`` (all non-dunder plain functions
        when ``names`` is None) in spans named ``layer``."""
        counted = set(counted)
        if names is None:
            names = [
                n for n, v in vars(cls).items()
                if isinstance(v, types.FunctionType) and not n.startswith("__")
                and not inspect.iscoroutinefunction(v) and not inspect.isgeneratorfunction(v)
            ]
        for attr in names:
            fn = cls.__dict__[attr]
            label = f"{cls.__name__}.{attr}" if attr in counted else None
            self.patch(cls, attr, self.traced(fn, layer, count_as=label))

    def patch_scheduler(
        self, cls: type, layer: str, names: Iterable[str],
        callback_index: int = 1, callback_name: str = "fn",
    ) -> None:
        """Wrap methods that take a callback (positional ``callback_index``
        after ``self``, or keyword ``callback_name``) so the call is a
        ``layer`` span and the callback becomes a span of its own."""
        for attr in names:
            original = cls.__dict__[attr]
            wrap_callback = self.traced_callback

            def schedule(self_, *args, _original=original, **kwargs):
                if len(args) > callback_index:
                    args = (*args[:callback_index], wrap_callback(args[callback_index]),
                            *args[callback_index + 1:])
                elif callback_name in kwargs:
                    kwargs[callback_name] = wrap_callback(kwargs[callback_name])
                return _original(self_, *args, **kwargs)

            functools.update_wrapper(schedule, original)
            self.patch(cls, attr, self.traced(schedule, layer))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
