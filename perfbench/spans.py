"""Outside-in span recorder for the traced benchmark run.

The recorder never edits the program: it finds the program's classes and
module functions by reflection, starting from objects an engine exposes
(the engine, its kernel, coordinator, RPC tracker, scheduler, sharing /
prediction / workload services, a tuning handle and an execution's tasks)
and following the module namespaces their functions were defined in.  It
then replaces each method or function with a wrapper that records a span
around the call and restores the originals on ``uninstall``.

Every span has a name (``Class.method``), a start and an end (host
seconds), the index of the span that was open when it started (its
parent) and a query id.  A span's *self time* is its duration minus the
duration of its children; self time is summed per layer, where a layer is
named after the module that defines the code (``exec.exchange``,
``buffers``, ``exec.operators.<Class>``...).  At most ``keep`` spans are
kept in memory for the span file; the per-layer sums cover every call.

A few calls also count work as it happens (rows into each operator,
pages fetched by exchanges, waiter callbacks run per notify, pages
created), so the layer ratios are measured where the work is done.
"""

from __future__ import annotations

import contextlib
import enum
import json
import time
import types
from collections import defaultdict

#: Module prefix -> layer.  The longest matching prefix wins; modules that
#: match nothing (configuration, errors, the parallel offload backend,
#: which the benchmark leaves off) are not instrumented.
LAYERS = {
    "repro.sim": "sim",
    "repro.exec.driver": "exec.driver",
    "repro.exec.task": "exec.driver",
    "repro.exec.splits": "exec.driver",
    "repro.exec.exchange_client": "exec.exchange",
    "repro.exec.operators": "exec.operators",
    "repro.exec.spill": "exec.spill",
    "repro.buffers": "buffers",
    "repro.pages": "pages",
    "repro.sql": "sql",
    "repro.plan": "plan",
    "repro.cluster": "cluster",
    "repro.faults": "cluster",
    "repro.elastic": "elastic",
    "repro.autotune": "autotune",
    "repro.workload": "workload",
    "repro.sharing": "sharing",
    "repro.predict": "predict",
    "repro.data": "data",
    "repro.obs": "obs",
    "repro.metrics": "obs",
    "repro.engine": "engine",
    "repro.handle": "engine",
}

#: Single methods that belong to another layer than their module's.
METHOD_LAYERS = {"Coordinator.plan_sql": "plan"}

#: Properties are accessors and mostly too small to time, except these.
TIMED_PROPERTIES = {"Page.size_bytes"}

#: Module-level helpers in operator modules run inside an operator's
#: method; leaving them unwrapped charges them to that operator.
_UNWRAPPED_FUNCTION_MODULES = ("repro.exec.operators",)


def layer_of(module: str) -> str | None:
    best = None
    for prefix, layer in LAYERS.items():
        if (module == prefix or module.startswith(prefix + ".")) and (
            best is None or len(prefix) > len(best[0])
        ):
            best = (prefix, layer)
    return best[1] if best else None


def _namespace_of(obj) -> dict | None:
    """The module namespace a class or function was defined in, reached
    through one of its functions' ``__globals__``."""
    if isinstance(obj, types.FunctionType):
        return obj.__globals__
    if isinstance(obj, type):
        for value in vars(obj).values():
            if isinstance(value, (staticmethod, classmethod)):
                value = value.__func__
            if isinstance(value, property):
                value = value.fget
            if isinstance(value, types.FunctionType) and value.__module__ == obj.__module__:
                return value.__globals__
    return None


def discover(seeds) -> dict[str, dict]:
    """Module name -> namespace for every program module reachable from
    ``seeds`` (objects or classes) through definitions and globals."""
    found: dict[str, dict] = {}
    pending = []
    for seed in seeds:
        pending.append(seed if isinstance(seed, type) else type(seed))
    while pending:
        obj = pending.pop()
        if isinstance(obj, types.ModuleType):
            namespace = vars(obj)
        else:
            namespace = _namespace_of(obj)
        if namespace is None:
            continue
        name = namespace.get("__name__", "")
        if not name.startswith("repro") or name in found:
            continue
        found[name] = namespace
        for value in list(namespace.values()):
            module = getattr(value, "__module__", None)
            if isinstance(value, types.ModuleType):
                if value.__name__.startswith("repro"):
                    pending.append(value)
            elif isinstance(value, (type, types.FunctionType)) and isinstance(
                module, str
            ) and module.startswith("repro"):
                pending.append(value)
    return found


def _skip_class(cls: type) -> bool:
    return issubclass(cls, (BaseException, enum.Enum, tuple))


class SpanRecorder:
    """Wraps program code in spans; see the module docstring."""

    def __init__(self, keep: int = 50_000):
        self.keep = keep
        self.spans: list[list] = []
        self.dropped = 0
        #: Query id given to spans opened with no span open above them.
        self.query_id = None
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.layer: dict[str, str] = {}
        self._stack: list[list] = []
        self._patches: list[tuple] = []
        self._wrapped: dict[int, object] = {}

    # -- spans -------------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str, layer: str, query_id=None):
        """A span opened by the benchmark itself."""
        self.layer[name] = layer
        frame = self._open(name, query_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(frame, name, start, time.perf_counter())

    def wrap(self, fn, name: str, layer: str):
        """``fn`` wrapped in spans charged to ``layer`` (for benchmark code
        that runs inside a traced window)."""
        self.layer[name] = layer
        return self._wrap(fn, name)

    def _open(self, name: str, query_id) -> list:
        """Push a frame ``[child seconds, span record or None, query id]``."""
        stack = self._stack
        parent = stack[-1] if stack else None
        if query_id is None:
            query_id = parent[2] if parent is not None else None
            if query_id is None:
                query_id = self.query_id
        record = None
        if len(self.spans) < self.keep:
            parent_index = -1
            if parent is not None and parent[1] is not None:
                parent_index = parent[1][0]
            record = [len(self.spans), name, 0.0, 0.0, parent_index, query_id]
            self.spans.append(record)
        else:
            self.dropped += 1
        frame = [0.0, record, query_id]
        stack.append(frame)
        return frame

    def _close(self, frame: list, name: str, start: float, end: float) -> None:
        stack = self._stack
        stack.pop()
        duration = end - start
        self.self_s[name] += duration - frame[0]
        self.calls[name] += 1
        if stack:
            stack[-1][0] += duration
        record = frame[1]
        if record is not None:
            record[2] = start
            record[3] = end

    def _wrap(self, fn, name: str, hooks=(None, None)):
        recorder = self
        clock = time.perf_counter
        open_, close = self._open, self._close
        before, after = hooks

        if before is None and after is None:
            def wrapper(*args, **kwargs):
                frame = open_(name, None)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(frame, name, start, clock())
        else:
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(recorder, args)
                frame = open_(name, None)
                start = clock()
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    end = clock()
                    if after is not None:
                        after(recorder, args, result)
                    close(frame, name, start, end)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        return wrapper

    # -- installing ----------------------------------------------------------
    def install(self, seeds) -> None:
        """Wrap every method and function of the program modules reachable
        from ``seeds``."""
        modules = discover(seeds)
        classes: dict[int, type] = {}
        functions: dict[int, types.FunctionType] = {}
        for module_name, namespace in modules.items():
            if layer_of(module_name) is None:
                continue
            for value in namespace.values():
                if getattr(value, "__module__", None) != module_name:
                    continue
                if isinstance(value, type) and not _skip_class(value):
                    classes[id(value)] = value
                elif isinstance(value, types.FunctionType) and not module_name.startswith(
                    _UNWRAPPED_FUNCTION_MODULES
                ):
                    functions[id(value)] = value
        for cls in classes.values():
            self._wrap_class(cls)
        # Functions are bound by name into every module that imports
        # them, so each namespace holding one gets the same wrapper.
        for fn in functions.values():
            layer = layer_of(fn.__module__)
            name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
            if fn.__code__.co_flags & 0x20:  # generator: times creation only
                continue
            self.layer[name] = layer
            self._wrapped[id(fn)] = self._wrap(fn, name)
        for namespace in modules.values():
            for key, value in list(namespace.items()):
                wrapper = self._wrapped.get(id(value))
                if wrapper is not None and isinstance(value, types.FunctionType):
                    self._patches.append((namespace, key, value, True))
                    namespace[key] = wrapper

    def _wrap_class(self, cls: type) -> None:
        layer = layer_of(cls.__module__)
        if layer == "exec.operators":
            layer = f"exec.operators.{cls.__name__}"
        for key, value in list(vars(cls).items()):
            name = f"{cls.__name__}.{key}"
            if key.startswith("__") and key != "__init__":
                continue
            if isinstance(value, property):
                if name not in TIMED_PROPERTIES or value.fget is None:
                    continue
                new = property(self._wrap(value.fget, name), value.fset, value.fdel, value.__doc__)
            elif isinstance(value, (staticmethod, classmethod)):
                fn = value.__func__
                if not isinstance(fn, types.FunctionType) or fn.__code__.co_flags & 0x20:
                    continue
                new = type(value)(self._wrap(fn, name))
            elif isinstance(value, types.FunctionType):
                if value.__code__.co_flags & 0x20:
                    continue
                new = self._wrap(value, name, _hooks_for(cls, key, layer))
            else:
                continue
            self.layer[name] = METHOD_LAYERS.get(name, layer)
            self._patches.append((cls, key, value, False))
            setattr(cls, key, new)

    def uninstall(self) -> None:
        for owner, key, original, is_namespace in reversed(self._patches):
            if is_namespace:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()
        self._wrapped.clear()

    # -- results -------------------------------------------------------------
    def layer_self_s(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, seconds in self.self_s.items():
            out[self.layer.get(name, "other")] += seconds
        return dict(out)

    def calls_of(self, *names: str) -> int:
        return sum(self.calls.get(name, 0) for name in names)

    def write(self, path) -> None:
        """Write the kept spans as JSON lines (one span per line)."""
        with open(path, "w") as fh:
            for index, name, start, end, parent, query_id in self.spans:
                fh.write(json.dumps({
                    "id": index, "name": name, "layer": self.layer.get(name, "other"),
                    "start": start, "end": end, "parent": parent,
                    "query_id": query_id,
                }) + "\n")


# -- counting hooks ------------------------------------------------------------
# ``before(recorder, args)`` runs ahead of the call and ``after(recorder,
# args, result)`` behind it; both only add to ``recorder.counts`` or set
# the query id that spans opened outside any query span carry.
def _rows_in(key):
    def after(recorder, args, result):
        page = args[1] if len(args) > 1 else None
        if page is not None and not page.is_end:
            recorder.counts[key] += page.num_rows
    return after


def _rows_out(key):
    def after(recorder, args, result):
        page = result[0] if result else None
        if page is not None and not page.is_end:
            recorder.counts[key] += page.num_rows
    return after


def _rows_delivered(key):
    def after(recorder, args, result):
        pages = args[1] if len(args) > 1 else ()
        recorder.counts[key] += sum(p.num_rows for p in pages if not p.is_end)
    return after


def _fetched_pages(recorder, args, result):
    batch = args[2] if len(args) > 2 else ()
    recorder.counts["exec.exchange.pages"] += sum(1 for p in batch if not p.is_end)


def _waiters_notified(recorder, args):
    recorder.counts["buffers.notifies"] += 1
    recorder.counts["buffers.callbacks"] += len(args[0])


def _page_created(recorder, args):
    recorder.counts["pages.created"] += 1


def _query_submitted(recorder, args, result):
    # Closed loops run one query at a time, so later top-level spans
    # belong to it; where queries interleave this is the latest one.
    if result is not None:
        recorder.query_id = result.id


_ROW_HOOKS = {"process": _rows_in, "poll": _rows_out, "deliver": _rows_delivered}

_HOOKS = {
    "ExchangeClient._commit_fetch": (None, _fetched_pages),
    "WaiterList.notify_all": (_waiters_notified, None),
    "Page.__init__": (_page_created, None),
    "Coordinator.submit": (None, _query_submitted),
}


def _hooks_for(cls: type, method: str, layer: str):
    if layer.startswith("exec.operators.") and method in _ROW_HOOKS:
        return None, _ROW_HOOKS[method](f"{layer}.rows")
    return _HOOKS.get(f"{cls.__name__}.{method}", (None, None))
