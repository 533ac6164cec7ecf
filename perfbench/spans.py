"""In-memory span recorder wrapped around the public call points of ``rtblab``.

Spans are recorded from the benchmark's side only: each call point is
replaced, wherever a loaded ``rtblab`` module binds it, by a wrapper that
records name, start, end, parent span and op id, plus a few counts read
from the call's arguments and result.  A call point that no longer exists
is reported as unmeasured instead of aborting the run, so the benchmark
keeps working across refactors of the package.
"""
from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

Counter = Callable[[tuple, dict, object], dict]


@dataclass
class Span:
    id: int
    parent: int | None
    op: int
    name: str
    start: float
    end: float
    counts: dict

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


@dataclass(frozen=True)
class CallPoint:
    name: str          # span name; its first component is the layer
    module: str        # module that defines the function or class
    attr: str          # function name, or "Class.method"
    counter: Counter | None = None


def _rows_in(args, kwargs, result) -> dict:
    return {"rows": len(args[0])}


def _rows_out(args, kwargs, result) -> dict:
    return {"rows": len(result)}


def _dropout_counts(args, kwargs, result) -> dict:
    # apply_dropout hands the log back untouched when p == 0: nothing drawn.
    if result is args[0]:
        return {"drawn": 0, "kept": 0}
    return {"drawn": len(args[0]), "kept": len(result)}


def _campaign_counts(args, kwargs, result) -> dict:
    return {"periods": len(result.trace), "terminated": int(bool(result.terminated))}


DRIVERS = ("run_experiment", "sweep_sparsity", "run_ablation")

# The campaign call point alone: installed on its own to count the periods
# of one untimed op, since no output file holds that number.
CAMPAIGN_POINT = CallPoint("auction.run_campaign", "rtblab.auction", "run_campaign",
                           _campaign_counts)

CALL_POINTS = (
    *(CallPoint("harness.driver", "rtblab.harness", d) for d in DRIVERS),
    CallPoint("harness.load_log", "rtblab.harness", "load_log", _rows_out),
    CallPoint("harness.build_controller", "rtblab.harness", "build_controller"),
    CAMPAIGN_POINT,
    CallPoint("auction.apply_dropout", "rtblab.auction", "apply_dropout", _dropout_counts),
    CallPoint("auction.run_period", "rtblab.auction", "run_period", _rows_in),
    CallPoint("data.from_csv", "rtblab.data", "BidLog.from_csv", _rows_out),
    CallPoint("data.filter", "rtblab.data", "BidLog.filter", _rows_in),
    CallPoint("data.segment", "rtblab.data", "BidLog.segment"),
    CallPoint("data.serialize_canonical", "rtblab.data", "serialize_canonical", _rows_in),
    CallPoint("data.generate_synthetic", "rtblab.data", "generate_synthetic", _rows_out),
)


class Tracer:
    """Records spans for the call points it is installed on.

    ``op`` tags every span with the op it belongs to; the benchmark sets it
    before each op (-1 marks set-up).
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.unmeasured: dict[str, str] = {}
        self.op = -1
        self._stack: list[int] = []
        self._next_id = 0
        self._undo: list[Callable[[], None]] = []

    # -- recording -------------------------------------------------------
    def call(self, name: str, fn, args: tuple, kwargs: dict, counter: Counter | None = None):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
        counts = {}
        if counter is not None:
            try:
                counts = counter(args, kwargs, result)
            except (AttributeError, TypeError, IndexError):
                self.unmeasured.setdefault(f"{name} counts",
                                           "arguments or result changed shape")
        self.spans.append(Span(span_id, parent, self.op, name, start, end, counts))
        return result

    def wrap(self, name: str, fn, counter: Counter | None = None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter)
        traced.__wrapped__ = fn
        return traced

    # -- installing ------------------------------------------------------
    def install(self, points=CALL_POINTS) -> None:
        for point in points:
            try:
                module = importlib.import_module(point.module)
            except ImportError as exc:
                self.unmeasured[point.name] = f"{point.module} not importable: {exc}"
                continue
            owner_name, _, method = point.attr.rpartition(".")
            if owner_name:
                self._install_method(point, getattr(module, owner_name, None), method)
            else:
                self._install_function(point, module)

    def _install_function(self, point: CallPoint, module) -> None:
        original = getattr(module, point.attr, None)
        if not callable(original):
            self.unmeasured[point.name] = f"{point.module}.{point.attr} not found"
            return
        if point.name == "harness.build_controller":
            wrapper = self._wrap_build_controller(original)
        else:
            wrapper = self.wrap(point.name, original, point.counter)
        # Rebind every alias in the package, so calls through a re-export or
        # a ``from .x import f`` binding are caught as well.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "rtblab" or mod_name.startswith("rtblab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append(lambda m=mod, a=attr: setattr(m, a, original))

    def _install_method(self, point: CallPoint, cls, method: str) -> None:
        raw = vars(cls).get(method) if isinstance(cls, type) else None
        if raw is None:
            self.unmeasured[point.name] = f"{point.module}.{point.attr} not found"
            return
        if isinstance(raw, classmethod):
            replacement = classmethod(self.wrap(point.name, raw.__func__, point.counter))
        else:
            replacement = self.wrap(point.name, raw, point.counter)
        setattr(cls, method, replacement)
        self._undo.append(lambda: setattr(cls, method, raw))

    def _wrap_build_controller(self, original):
        def build_controller(*args, **kwargs):
            controller = self.call("harness.build_controller", original, args, kwargs)
            kind = getattr(args[0] if args else None, "kind", type(controller).__name__.lower())
            return TimedController(controller, kind, self)
        build_controller.__wrapped__ = original
        return build_controller

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


class TimedController:
    """Proxy that times ``begin_period``/``end_period`` of a built controller.

    Spans are named ``<layer>.<kind>.begin``/``.end``; the layer is the module
    that defines the controller class (``controller`` for mlp,
    ``baselines`` for pid and fixed).
    """

    def __init__(self, inner, kind: str, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer
        layer = type(inner).__module__.rsplit(".", 1)[-1]
        self._begin = f"{layer}.{kind}.begin"
        self._end = f"{layer}.{kind}.end"

    def begin_period(self, *args, **kwargs):
        return self._tracer.call(self._begin, self._inner.begin_period, args, kwargs)

    def end_period(self, *args, **kwargs):
        return self._tracer.call(self._end, self._inner.end_period, args, kwargs)

    def __getattr__(self, name):
        return getattr(self._inner, name)


# ---------------------------------------------------------------------------
# Arithmetic on recorded spans

def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the durations of its child spans.

    Spans come from one synchronous call stack, so a span's children lie
    inside it and never overlap each other.
    """
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
    return {s.id: (s.end - s.start) - child_time.get(s.id, 0.0) for s in spans}


@dataclass
class Totals:
    """Per-span-name totals over a set of spans."""
    calls: int = 0
    seconds: float = 0.0        # inclusive
    self_seconds: float = 0.0
    counts: dict = field(default_factory=dict)


def totals(spans: list[Span]) -> dict[str, Totals]:
    selfs = self_times(spans)
    out: dict[str, Totals] = {}
    for s in spans:
        t = out.setdefault(s.name, Totals())
        t.calls += 1
        t.seconds += s.end - s.start
        t.self_seconds += selfs[s.id]
        for k, v in s.counts.items():
            t.counts[k] = t.counts.get(k, 0) + v
    return out


def write_spans(spans: list[Span], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("id,parent,op,name,start_s,end_s\n")
        for s in spans:
            parent = "" if s.parent is None else s.parent
            fh.write(f"{s.id},{parent},{s.op},{s.name},{s.start:.9f},{s.end:.9f}\n")
